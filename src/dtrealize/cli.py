"""Command-line interface.

Exit codes are a stable contract: 0 success, 1 usage/IO errors,
2 verification failure or UNKNOWN, 3 invalid input triangulation.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import formats
from .constraints import build_const, build_constsqu, export_system
from .instances import BoundTooSmall, fan_triangulation, random_instance, stacked_triangulation
from .plane_graph import candidate_outer_faces, reembed_with_outer_face, validate_triangulation
from .realizer import RealizeConfig, certify, realize
from .solver import SolverConfig

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_INVALID = 3


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _write(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    try:
        Path(path).write_text(text)
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _load_graph(path: str):
    text = _read(path)
    try:
        return formats.graph_from_json(text)
    except formats.FormatError as e:
        print(f"error: {path}: {e}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _solver_config(args) -> SolverConfig:
    kwargs = {}
    if args.seed is not None:
        kwargs["seed"] = args.seed
    if args.max_iterations is not None:
        kwargs["max_iterations"] = args.max_iterations
    if args.restarts is not None:
        kwargs["restarts"] = args.restarts
    return SolverConfig(**kwargs)


def cmd_check(args) -> int:
    G = _load_graph(args.graph)
    report = validate_triangulation(G)
    doc = {"ok": report.ok,
           "violations": [{"rule": v.rule, "message": v.message,
                           "elements": list(v.elements)} for v in report.violations]}
    _write(args.output, json.dumps(doc, indent=1) + "\n")
    return EXIT_OK if report.ok else EXIT_INVALID


def cmd_gen(args) -> int:
    if args.n < 4:
        print("error: n must be at least 4", file=sys.stderr)
        return EXIT_USAGE
    if args.kind != "random":
        G = (fan_triangulation(args.n) if args.kind == "fan"
             else stacked_triangulation(args.n, args.seed or 0))
        _write(args.graph_out, formats.graph_to_json(G))
        return EXIT_OK
    try:
        points, G = random_instance(args.n, args.seed or 0, args.bound)
    except BoundTooSmall as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    _write(args.graph_out, formats.graph_to_json(G))
    if args.points_out:
        _write(args.points_out, formats.points_to_text(points))
    return EXIT_OK


def cmd_emit(args) -> int:
    G = _load_graph(args.graph)
    # the same check as realize(), which places n < 4 directly
    violations = validate_triangulation(G).violations if G.n >= 4 else ()
    for v in violations:
        print(f"error: {v.rule}: {v.message}", file=sys.stderr)
    if violations:
        return EXIT_INVALID
    if args.face_index:
        candidates = candidate_outer_faces(G)
        if not 0 <= args.face_index < len(candidates):
            print(f"error: face index {args.face_index} out of range "
                  f"0..{len(candidates) - 1}", file=sys.stderr)
            return EXIT_USAGE
        G = reembed_with_outer_face(G, candidates[args.face_index])
    system = build_const(G) if args.flavor == "const" else build_constsqu(G)
    _write(args.output, export_system(system, args.format))
    print(f"{len(system.variables)} variables, {len(system.constraints)} constraints",
          file=sys.stderr)
    return EXIT_OK


def cmd_realize(args) -> int:
    G = _load_graph(args.graph)
    try:
        config = RealizeConfig(solver=_solver_config(args), time_budget=args.time_budget)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    result = realize(G, config)
    if result.status == "REALIZED":
        cert = result.certificate
        _write(args.output, formats.certificate_to_json(cert))
        if args.plot:
            _write(args.plot, formats.certificate_to_svg(cert, G.edge_pairs()))
        return EXIT_OK
    doc = {"status": result.status, "diagnostics": list(result.diagnostics)}
    _write(args.output, json.dumps(doc, indent=1, default=str) + "\n")
    return EXIT_VERIFY if result.status == "UNKNOWN" else EXIT_INVALID


def cmd_verify(args) -> int:
    G = _load_graph(args.graph)
    text = _read(args.points)
    try:
        pts = formats.points_from_text(text)
    except formats.FormatError as e:
        print(f"error: {args.points}: {e}", file=sys.stderr)
        return EXIT_USAGE
    if len(pts) != G.n:
        print(f"error: {len(pts)} points for {G.n} vertices", file=sys.stderr)
        return EXIT_USAGE
    if any(p.x.denominator != 1 or p.y.denominator != 1 for p in pts):
        print("error: verification requires integer points", file=sys.stderr)
        return EXIT_USAGE
    ipts = [(int(p.x), int(p.y)) for p in pts]
    result = certify(G, G.outer_face, ipts, allow_reflection=not args.strict_orientation)
    doc = {"ok": result.ok, "transcript": list(result.transcript)}
    if not result.ok:
        doc["failed_step"] = result.failed_step
        doc["detail"] = result.detail
    _write(args.output, json.dumps(doc, indent=1) + "\n")
    return EXIT_OK if result.ok else EXIT_VERIFY


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="dtrealize",
                                description="Delaunay realization toolkit")
    p.add_argument("--seed", type=int, default=None, help="solver / generator seed")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", help="validate a triangulation file")
    c.add_argument("graph")
    c.add_argument("-o", "--output", default=None)
    c.set_defaults(func=cmd_check)

    g = sub.add_parser("gen", help="generate an instance")
    g.add_argument("kind", choices=["random", "fan", "stacked"])
    g.add_argument("n", type=int)
    g.add_argument("--bound", type=int, default=1000)
    g.add_argument("--graph-out", required=True)
    g.add_argument("--points-out", default=None)
    g.set_defaults(func=cmd_gen)

    e = sub.add_parser("emit", help="export a constraint system")
    e.add_argument("graph")
    e.add_argument("--flavor", choices=["const", "constsqu"], default="const")
    e.add_argument("--format", choices=["json", "smt2"], default="json")
    e.add_argument("--face-index", type=int, default=0,
                   help="candidate outer face to use (maximal planar inputs)")
    e.add_argument("-o", "--output", default=None)
    e.set_defaults(func=cmd_emit)

    r = sub.add_parser("realize", help="search for an integer realization")
    r.add_argument("graph")
    r.add_argument("--time-budget", type=float, default=None, metavar="SECONDS",
                   help="one wall-clock deadline for the whole call, shared out "
                        "across candidate outer faces; UNKNOWN when it passes. "
                        "A stage already under way finishes first "
                        "(default: no limit)")
    r.add_argument("--max-iterations", type=int, default=None)
    r.add_argument("--restarts", type=int, default=None)
    r.add_argument("--plot", default=None, help="also write an SVG to this path")
    r.add_argument("-o", "--output", default=None)
    r.set_defaults(func=cmd_realize)

    v = sub.add_parser("verify", help="certify points against a triangulation")
    v.add_argument("graph")
    v.add_argument("points")
    v.add_argument("--strict-orientation", action="store_true")
    v.add_argument("-o", "--output", default=None)
    v.set_defaults(func=cmd_verify)
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on usage errors and 0 on --help; fold into our codes
        code = e.code if isinstance(e.code, int) else EXIT_USAGE
        return EXIT_OK if code == 0 else EXIT_USAGE
    try:
        return args.func(args)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else EXIT_USAGE
    except BrokenPipeError:
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
