"""Digests of dtrealize's outputs, for checking that a change leaves them unchanged.

Usage: python3 tools/output_digest.py ROOT

Imports ``dtrealize`` from ``ROOT/src`` and prints three SHA-256 digests:

- ``realize``: 769 ``realize`` calls. The 50 acceptance ``CASES`` and the 330
  survey graphs ``random_instance(n, s)`` (n = 5..15, s = 4000..4029) are
  each run once by default and once with their instance points as
  ``warm_points``; then fans 4..12. Each call contributes its status,
  certificate JSON, diagnostics repr and exact assignment.
- ``emit``: 64 exports, JSON and SMT-LIB2 of both flavors, through the CLI's
  ``emit``, on K4 with face index 0 and 1, fans 4..12 and
  ``random_instance(n, 996 + n)`` for n = 5..9.
- ``descents``: 180 ConstSqu descents from perturbed starts. The survey
  graphs n = 5..10, s = 4000..4009 each get 3 starts, their points plus
  N(0, 3) noise, under ``SolverConfig(max_iterations=300, restarts=1)``.
  Each contributes its status, iterations, restart index, ``min_margin``
  and every assignment float, all bit for bit.

Run it on two checkouts and compare the lines. It takes a few minutes.
Native thread pools are left at their defaults: the digests were the same
at one and at two OpenBLAS threads.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path


def _digest(items) -> tuple[int, str]:
    """The number of items and one SHA-256 over them, hashed as they come."""
    h = hashlib.sha256()
    count = 0
    for count, item in enumerate(items, start=1):
        h.update(item.encode())
        h.update(b"\0")
    return count, h.hexdigest()


def realize_outputs():
    from dtrealize import formats
    from dtrealize.instances import fan_triangulation, random_instance
    from dtrealize.realizer import realize

    cases = [(4 + k % 12, 1000 + k) for k in range(50)]
    survey = [(n, s) for n in range(5, 16) for s in range(4000, 4030)]
    calls = []
    for n, seed in cases + survey:
        points, G = random_instance(n, seed)
        calls += [(G, None), (G, points)]
    calls += [(fan_triangulation(n), None) for n in range(4, 13)]
    for G, warm in calls:
        r = realize(G, warm_points=warm)
        cert = None if r.certificate is None else formats.certificate_to_json(r.certificate)
        exact = None if r.exact_assignment is None else sorted(r.exact_assignment.items())
        yield repr((r.status, cert, r.diagnostics, exact))


def emit_outputs():
    from dtrealize import cli, formats
    from dtrealize.instances import fan_triangulation, random_instance
    from dtrealize.plane_graph import build_triangulation

    k4 = build_triangulation(4, {1: [2, 4, 3], 2: [3, 4, 1], 3: [1, 4, 2], 4: [1, 2, 3]},
                             (1, 3, 2))
    graphs = [(k4, 0), (k4, 1)]
    graphs += [(fan_triangulation(n), 0) for n in range(4, 13)]
    graphs += [(random_instance(n, 996 + n)[1], 0) for n in range(5, 10)]
    with tempfile.TemporaryDirectory() as tmp:
        src, out = Path(tmp, "graph.json"), Path(tmp, "out")
        for G, face in graphs:
            src.write_text(formats.graph_to_json(G))
            for flavor in ("const", "constsqu"):
                for fmt in ("json", "smt2"):
                    with contextlib.redirect_stderr(io.StringIO()):
                        code = cli.main(["emit", str(src), "--flavor", flavor, "--format", fmt,
                                         "--face-index", str(face), "-o", str(out)])
                    yield f"{code}\n{out.read_text()}"


def descent_outputs():
    import numpy as np

    from dtrealize.constraints import constsqu_stencil
    from dtrealize.instances import random_instance
    from dtrealize.solver import SolverConfig, solve

    config = SolverConfig(max_iterations=300, restarts=1)
    for n in range(5, 11):
        for s in range(4000, 4010):
            points, G = random_instance(n, s)
            system = constsqu_stencil(G)
            rng = np.random.default_rng(s)
            for _ in range(3):
                start = np.asarray(points, dtype=float) + rng.normal(0.0, 3.0, (n, 2))
                out = solve(system, config, G, start.tolist())
                floats = " ".join(float(out.assignment[v]).hex() for v in system.variables)
                yield (f"{out.status} {out.iterations} {out.restart_index} "
                       f"{out.min_margin.hex()} {floats}")


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    src = Path(argv[1], "src").resolve()
    sys.path.insert(0, str(src))
    import dtrealize
    if not Path(dtrealize.__file__).resolve().is_relative_to(src):
        print(f"error: imported dtrealize from {dtrealize.__file__}", file=sys.stderr)
        return 1
    for name, outputs in (("realize", realize_outputs), ("emit", emit_outputs),
                          ("descents", descent_outputs)):
        count, digest = _digest(outputs())
        print(f"{name} {count} {digest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
