"""Per-layer spans recorded from outside dtrealize.

`installed(tracer)` replaces the public functions of plane_graph,
constraints, solver, realizer and oracle by timing wrappers for the duration
of a `with` block and restores the originals afterwards. realizer imports
its collaborators by name, so those are patched in the realizer namespace;
CompiledSystem is patched in solver, where solve() looks it up; and the
oracle functions are patched in oracle, which catches both calls to
general_position_check per certify(). geometry is not wrapped: its
predicates run millions of times per call and a wrapper would swamp them.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

from dtrealize import oracle, realizer, solver


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None      # index of the enclosing span
    input: str | None = None       # the workload input being processed
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans kept in memory, nested by call order on one thread."""

    def __init__(self):
        self.spans: list[Span] = []
        self.input: str | None = None
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        s = Span(name, time.perf_counter(), parent=self._open[-1] if self._open else None,
                 input=self.input)
        self.spans.append(s)
        self._open.append(len(self.spans) - 1)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._open.pop()

    def to_json(self) -> list[dict]:
        return [dict(asdict(s), self_s=t) for s, t in zip(self.spans, self_times(self.spans))]


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, reach), min(b, s.end)
            if b > a:
                covered += b - a
                reach = b
        out.append(s.seconds - covered)
    return out


def _rows(args, result) -> dict:
    return {"rows": len(result.constraints)}


def _solve_name(args, kwargs) -> str:
    return "solver.solve." + args[0].flavor.lower()


# (module, attribute, span name or function of the call's arguments, attributes
# recorded from the result)
PATCHES = (
    (realizer, "realize", "realizer.realize", None),
    (realizer, "certify", "realizer.certify", lambda a, r: {"ok": r.ok}),
    (realizer, "repair_radii", "realizer.repair_radii", None),
    (realizer, "build_const", "constraints.build_const", _rows),
    (realizer, "build_constsqu", "constraints.build_constsqu", _rows),
    (realizer, "satisfied_exact", "constraints.satisfied_exact", lambda a, r: {"passed": r}),
    (realizer, "solve", _solve_name,
     lambda a, r: {"iterations": r.iterations, "exhausted": r.status == "EXHAUSTED"}),
    (realizer, "validate_triangulation", "plane_graph.validate", None),
    (realizer, "candidate_outer_faces", "plane_graph.candidate_outer_faces", None),
    (realizer, "reembed_with_outer_face", "plane_graph.reembed", None),
    (solver, "CompiledSystem", "solver.compile", None),
    (oracle, "general_position_check", "oracle.general_position", None),
    (oracle, "delaunay", "oracle.delaunay", None),
)


def _wrap(tracer: Tracer, fn, name, note):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(name(args, kwargs) if callable(name) else name) as s:
            result = fn(*args, **kwargs)
            if note is not None:
                s.attrs.update(note(args, result))
            return result
    return traced


def _wrap_generator(tracer: Tracer, fn, name):
    """One span per item drawn, so lazily skipped items cost nothing."""
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        items = fn(*args, **kwargs)
        while True:
            with tracer.span(name) as s:
                try:
                    item = next(items)
                except StopIteration:
                    return
                s.attrs["drawn"] = True
            yield item
    return traced


@contextmanager
def installed(tracer: Tracer):
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in PATCHES]
    saved.append((realizer, "round_candidates", realizer.round_candidates))
    try:
        for mod, attr, name, note in PATCHES:
            setattr(mod, attr, _wrap(tracer, getattr(mod, attr), name, note))
        realizer.round_candidates = _wrap_generator(
            tracer, realizer.round_candidates, "realizer.round_candidates")
        yield tracer
    finally:
        for mod, attr, fn in saved:
            setattr(mod, attr, fn)


# Per-layer figures in report order. The `_s` figures are seconds in the
# traced pass; they are published as `_pct`, their share of the traced pass's
# wall time, because a layer that a workload never enters would otherwise
# report a constant 0 s.
LAYER_SECONDS = (
    "constraints.build_constsqu_s", "constraints.build_const_s",
    "constraints.satisfied_exact_s", "solver.compile_s", "solver.solve_self_s",
    "plane_graph.validate_s", "oracle.general_position_s", "oracle.delaunay_self_s",
    "realizer.certify_s", "realizer.certify_self_s", "realizer.repair_radii_s",
    "realizer.self_s", "trace.overhead_s",
)
LAYER_COUNTS = (
    ("constraints.build_constsqu_rows", "count"), ("constraints.build_const_rows", "count"),
    ("constraints.exact_pass_ratio", "ratio"), ("solver.iterations.const", "count"),
    ("solver.iterations.constsqu", "count"), ("solver.exhausted_ratio", "ratio"),
    ("plane_graph.outer_faces_tried", "count"), ("oracle.general_position_calls", "count"),
    ("realizer.certify_calls", "count"), ("realizer.certify_ok_ratio", "ratio"),
    ("realizer.round_candidates_drawn", "count"),
)
# the metrics a traced run publishes, with their units
PER_LAYER = {**{n[:-2] + "_pct": "%" for n in LAYER_SECONDS}, **dict(LAYER_COUNTS)}


def unit_of(name: str) -> str:
    return PER_LAYER.get(name, "s")


def self_by_name(spans: list[Span]) -> dict[str, float]:
    out: dict[str, float] = {}
    for s, t in zip(spans, self_times(spans)):
        out[s.name] = out.get(s.name, 0.0) + t
    return out


def layer_metrics(spans: list[Span], traced_wall: float, untraced_wall: float) -> dict[str, float]:
    """Per-layer seconds, counts and ratios of one traced pass."""
    own = self_times(spans)
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    for s, t in zip(spans, own):
        key = "solver.solve" if s.name.startswith("solver.solve.") else s.name
        total[key] = total.get(key, 0.0) + s.seconds
        self_s[key] = self_s.get(key, 0.0) + t
        calls[key] = calls.get(key, 0) + 1

    def attr_sum(name: str, attr: str, prefix: bool = False) -> int:
        return sum(int(s.attrs.get(attr, 0)) for s in spans
                   if (s.name.startswith(name) if prefix else s.name == name))

    def ratio(num: int, den: int) -> float:
        return num / den if den else 0.0

    m = {
        "constraints.build_constsqu_s": total.get("constraints.build_constsqu", 0.0),
        "constraints.build_const_s": total.get("constraints.build_const", 0.0),
        "constraints.satisfied_exact_s": total.get("constraints.satisfied_exact", 0.0),
        "solver.compile_s": total.get("solver.compile", 0.0),
        "solver.solve_self_s": self_s.get("solver.solve", 0.0),
        "plane_graph.validate_s": total.get("plane_graph.validate", 0.0),
        "oracle.general_position_s": total.get("oracle.general_position", 0.0),
        "oracle.delaunay_self_s": self_s.get("oracle.delaunay", 0.0),
        "realizer.certify_s": total.get("realizer.certify", 0.0),
        "realizer.certify_self_s": self_s.get("realizer.certify", 0.0),
        "realizer.repair_radii_s": total.get("realizer.repair_radii", 0.0),
        "realizer.self_s": self_s.get("realizer.realize", 0.0),
        "trace.overhead_s": traced_wall - untraced_wall,
        "constraints.build_constsqu_rows": attr_sum("constraints.build_constsqu", "rows"),
        "constraints.build_const_rows": attr_sum("constraints.build_const", "rows"),
        "constraints.exact_pass_ratio": ratio(attr_sum("constraints.satisfied_exact", "passed"),
                                              calls.get("constraints.satisfied_exact", 0)),
        "solver.iterations.const": attr_sum("solver.solve.const", "iterations"),
        "solver.iterations.constsqu": attr_sum("solver.solve.constsqu", "iterations"),
        "solver.exhausted_ratio": ratio(attr_sum("solver.solve.", "exhausted", prefix=True),
                                        calls.get("solver.solve", 0)),
        "plane_graph.outer_faces_tried": calls.get("plane_graph.reembed", 0),
        "oracle.general_position_calls": calls.get("oracle.general_position", 0),
        "realizer.certify_calls": calls.get("realizer.certify", 0),
        "realizer.certify_ok_ratio": ratio(attr_sum("realizer.certify", "ok"),
                                           calls.get("realizer.certify", 0)),
        "realizer.round_candidates_drawn": attr_sum("realizer.round_candidates", "drawn"),
        # context for the coverage checks, not published
        "realizer.realize_s": total.get("realizer.realize", 0.0),
    }
    for name in LAYER_SECONDS:
        m[name[:-2] + "_pct"] = 100.0 * m[name] / traced_wall
    return m
