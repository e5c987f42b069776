"""End-to-end realization: angle warm start, solve, round, exactly verify, certify, scale.

A result is only ever REALIZED when the integer points pass the full exact
certification chain against the independent Delaunay oracle; everything
before that is untrusted search. Failure to find a realization is reported
as UNKNOWN. On a maximal planar graph, the dual of a face's angle LP that
stops the search may point at a tough set, which refutes every outer face
(README, "Refutation"); a set that passes ``plane_graph.is_tough_set`` goes
into that face's diagnostics as ``tough_set``, and the later faces are
listed as REFUTED and not searched, so their angle LPs are never solved.
The dual read is the first iterate's that proves t* <= ``angles.T_STAR_MIN``
where a candidate set read from it passes as it is, and the converged one
otherwise. The status stays UNKNOWN.
"""

from __future__ import annotations

import math
import operator
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Sequence

from . import angles, oracle
from .constraints import (StencilSystem, VarId, constsqu_stencil, repair_radii,
                          satisfied_exact)
# perfbench/tracing.py wraps these names; realize() calls neither
from .constraints import build_const, build_constsqu  # noqa: F401
from .formats import RealizationCertificate
from .geometry import RatPoint, circumcenter_homogeneous, scale_to_integers, witness_centers
from .plane_graph import (PlaneTriangulation, _canon_cycle, candidate_outer_faces,
                          reembed_with_outer_face, tough_set_near, validate_triangulation)
from .solver import SolverConfig, round_candidates, solve


@dataclass(frozen=True)
class RealizeConfig:
    """Options of one realize() call: the search settings ``solver`` and
    ``time_budget``.

    ``time_budget`` is the wall-clock limit, in seconds, of the whole call
    (None: no limit). realize() turns it into one deadline at entry. Each
    candidate outer face gets an equal share of the time still left, so time
    one face leaves unused passes to the next; the ConstSqu solve stops at the
    end of the share. A face that would start after the deadline is listed in
    the diagnostics with ``solver_status`` ``"DEADLINE"`` and not searched,
    and no certify call starts after it. A face after one whose dual gave a
    tough set is listed as ``"REFUTED"`` the same way, whatever the time. The
    deadline is checked between stages and at every solver step, so a call
    can overrun it by at most one stage that is not interrupted once started:

    - the build of the graph's angle LP table, before the first face;
    - one face's angle LP, with, on a maximal planar graph, the reading of
      the dual of the iterate where its decision stop asks, then its Newton
      step and layout, then its system build and solve start-up (compiling
      the system and building its start assignment); or, where it stops at
      the angle LP on a maximal planar graph after the LP has converged,
      the reading of its dual for a tough set;
    - one certify call, then the draw of the next candidate: a jitter, or the
      radius fit and exact gate of each rounding candidate up to the next one
      that passes.
    """
    solver: SolverConfig = field(default_factory=SolverConfig)
    time_budget: float | None = None

    def __post_init__(self):
        if self.time_budget is not None and not self.time_budget >= 0:
            raise ValueError("time_budget must be a non-negative number of seconds")


@dataclass(frozen=True)
class CertifyResult:
    ok: bool
    transcript: tuple[str, ...]
    failed_step: str | None = None
    detail: str = ""
    witness_centers: tuple[tuple[Fraction, Fraction], ...] = ()


@dataclass(frozen=True)
class RealizationResult:
    status: str                          # REALIZED | UNKNOWN | INVALID_INPUT
    certificate: RealizationCertificate | None = None
    diagnostics: tuple = ()
    # the exact rational assignment that passed the robustified system, when
    # REALIZED came out of the solve/round path (None for direct placements)
    exact_assignment: dict | None = None


def certify(G: PlaneTriangulation, f_star: Sequence[int],
            points: Sequence[tuple[int, int]],
            allow_reflection: bool = True) -> CertifyResult:
    """Exact verification that DT(points) is G with outer face f_star.

    ``points`` are integer pairs. Steps run in order; the first failure aborts with its step name.
    Witness discs come from the Delaunay faces by ``geometry.witness_centers``,
    re-derived here rather than taken from any solver output, and each is
    checked exactly before it is accepted.
    """
    transcript: list[str] = []
    if len(points) != G.n:
        return CertifyResult(False, tuple(transcript), "POINT_COUNT",
                             f"{len(points)} points for {G.n} vertices")

    # the oracle's predicates and the witness discs only multiply and compare,
    # so they run on the integers directly
    try:
        dt = oracle.delaunay([RatPoint(operator.index(x), operator.index(y))
                              for x, y in points])
    except oracle.NotGeneralPosition as e:
        return CertifyResult(False, tuple(transcript), "NOT_GENERAL_POSITION", str(e))
    transcript.append("general_position")

    got = {tuple(sorted((a + 1, b + 1))) for a, b in dt.edges}
    want = set(G.edge_pairs())
    if got != want:
        missing = sorted(want - got)
        extra = sorted(got - want)
        return CertifyResult(False, tuple(transcript), "EDGE_MISMATCH",
                             f"missing={missing} extra={extra}")
    transcript.append("edge_set")

    hull = [i + 1 for i in dt.hull]
    target = list(f_star)
    if _canon_cycle(hull) == _canon_cycle(target):
        transcript.append("hull_cycle")
    elif allow_reflection and _canon_cycle(hull) == _canon_cycle(list(reversed(target))):
        transcript.append("hull_cycle_reflected")
    else:
        return CertifyResult(False, tuple(transcript), "HULL_MISMATCH",
                             f"hull={hull} outer={target}")

    # Witness discs per edge, from the incident DT face circumcenters. Each
    # center is kept as integer numerators over one denominator, and every
    # squared distance from it is compared scaled by that denominator squared.
    pts = [(operator.index(x), operator.index(y)) for x, y in points]
    witnesses = witness_centers(pts, dt.faces)
    centers: list[tuple[Fraction, Fraction]] = []
    for i, j in G.edge_pairs():
        e = (i - 1, j - 1)
        cx, cy, d = witnesses[e]

        def dist2(k: int) -> int:
            return (cx - d * pts[k][0]) ** 2 + (cy - d * pts[k][1]) ** 2

        r2 = dist2(e[0])
        if dist2(e[1]) != r2:
            return CertifyResult(False, tuple(transcript), "WITNESS_FAIL",
                                 f"edge ({i},{j}): endpoints not equidistant")
        for k in range(G.n):
            if k in e:
                continue
            if dist2(k) <= r2:
                return CertifyResult(False, tuple(transcript), "WITNESS_FAIL",
                                     f"edge ({i},{j}): point {k + 1} inside witness disc")
        centers.append((Fraction(cx, d), Fraction(cy, d)))
    transcript.append("witness_discs")

    return CertifyResult(True, tuple(transcript), witness_centers=tuple(centers))


def _float_radius(G: PlaneTriangulation, pts: Sequence[tuple[float, float]]) -> float:
    """Floating analog of the certified perturbation radius of a placement.

    One third of the minimum over pairwise distances, circumcircle
    clearances of inner faces, and point-to-outer-edge-line distances.
    Nonpositive when the placement does not realize G.
    """
    n = G.n
    d_n = min(math.dist(pts[a], pts[b]) for a in range(n) for b in range(a + 1, n))
    d_c = math.inf
    for f in G.inner_faces():
        x, y, d = circumcenter_homogeneous(*(pts[v - 1] for v in f))
        if d == 0:
            return 0.0
        cc = (x / d, y / d)
        rad = math.dist(cc, pts[f[0] - 1])
        for k in range(1, n + 1):
            if k not in f:
                d_c = min(d_c, math.dist(cc, pts[k - 1]) - rad)
    d_a = math.inf
    outer = G.outer_face
    for t in range(len(outer)):
        i, j = outer[t], outer[(t + 1) % len(outer)]
        pi, pj = pts[i - 1], pts[j - 1]
        ex, ey = pj[0] - pi[0], pj[1] - pi[1]
        length = math.hypot(ex, ey)
        if length == 0:
            return 0.0
        for k in range(1, n + 1):
            if k not in (i, j):
                pk = pts[k - 1]
                d_a = min(d_a, abs(ex * (pk[1] - pi[1]) - ey * (pk[0] - pi[0])) / length)
    return min(d_n, d_c, d_a) / 3.0


def _rescale_warm(pts: list[tuple[float, float]], r: float) -> list[tuple[float, float]]:
    """Uniformly upscale a placement of float radius ``r`` past unit-stencil
    robustness; a placement with ``r <= 0`` realizes nothing and is kept as is."""
    if r <= 0:
        return pts
    s = max(1.0, 4.0 / r)
    return [(x * s, y * s) for x, y in pts]


def _angle_warm_start(H: PlaneTriangulation,
                      lp: angles.AngleLPResult) -> tuple[list[tuple[float, float]] | None, dict]:
    """Stage-1 placement from the angles: from the angle LP result ``lp`` of
    H's outer face, Rivin's volume maximisation, the face-by-face layout, then
    the upscale.

    Returns the placement, or None with the diagnostics of the stage that
    stopped: the LP optimum t* (units of pi) is not above
    ``angles.T_STAR_MIN``, or a decision stop bounded it there (``t_bound``),
    Newton did not converge, or the layout does not realize H in floats.
    """
    if lp.t_bound is not None:
        return None, {"solver_status": "ANGLE_LP", "t_bound": lp.t_bound}
    if not (lp.converged and lp.t_star > angles.T_STAR_MIN):
        return None, {"solver_status": "ANGLE_LP", "t_star": lp.t_star}
    cs = angles.corners(H.n, H.inner_faces())
    x = angles.maximise_volume(cs, lp.angles)
    if x is None:
        return None, {"solver_status": "NEWTON"}
    pts = angles.layout(H.n, cs, x)
    r = _float_radius(H, pts)
    if r <= 0:
        return None, {"solver_status": "LAYOUT"}
    return _rescale_warm(pts, r), {}


def _grid_candidates(system: StencilSystem, assignment: dict[VarId, float], n: int, seed: int
                     ) -> Iterator[tuple[dict[VarId, Fraction], list[tuple[int, int]]]]:
    """The integer points to certify, each with its exact assignment: per
    rounding of ``assignment`` that passes the radius fit and the exact gate,
    its points, then 3 seeded jitters of them, each drawn when taken."""
    for exact in round_candidates(assignment):
        exact = repair_radii(system, exact)
        if not satisfied_exact(system, exact):
            continue
        points = [RatPoint(exact["px", i], exact["py", i]) for i in range(1, n + 1)]
        yield exact, scale_to_integers(points)
        # the exact solution tolerates any half-box perturbation, so a failed
        # certification (typically an incidental collinearity or
        # cocircularity the system does not forbid) is retried under small
        # seeded rational jitters
        rng = random.Random(seed)
        for _ in range(3):
            yield exact, scale_to_integers([
                RatPoint(p.x + Fraction(rng.randrange(-499, 500), 1999),
                         p.y + Fraction(rng.randrange(-499, 500), 1999)) for p in points])


def _realize_small(G: PlaneTriangulation) -> RealizationResult:
    if G.n == 3 and sorted(G.outer_face) == [1, 2, 3]:
        # the corners of a clockwise triangle, in the order of the outer face
        corners = dict(zip(G.outer_face, [(0, 0), (2, 3), (4, 0)]))
        points = [corners[v] for v in range(1, 4)]
        cert = certify(G, G.outer_face, points)
        if cert.ok:
            return RealizationResult(
                "REALIZED",
                RealizationCertificate(tuple(points), tuple(G.outer_face),
                                       cert.witness_centers, cert.transcript))
    return RealizationResult("INVALID_INPUT",
                             diagnostics=(("TOO_SMALL", f"n = {G.n}"),))


def realize(G: PlaneTriangulation, config: RealizeConfig | None = None,
            warm_points: Sequence[tuple[float, float]] | None = None) -> RealizationResult:
    """Full pipeline over all candidate outer faces.

    A certificate keeps the clockwise orientation of its outer face (the
    outer turn constraints fix it), so it passes strict orientation.
    ``warm_points`` seeds the solver with a known placement (testing aid),
    one point per vertex."""
    if warm_points is not None and len(warm_points) != G.n:
        raise ValueError(f"{len(warm_points)} warm points for {G.n} vertices")
    config = config or RealizeConfig()
    budget = math.inf if config.time_budget is None else config.time_budget
    deadline = time.monotonic() + budget
    if G.n < 4:
        return _realize_small(G)
    report = validate_triangulation(G)
    if not report.ok:
        return RealizationResult(
            "INVALID_INPUT",
            diagnostics=tuple((v.rule, v.message) for v in report.violations))

    candidates = candidate_outer_faces(G)
    # every candidate face's angle LP is cut from one table
    if warm_points is None:
        table = angles.lp_table(G)
    # a tough set refutes every outer face of a maximal planar graph
    refuted, maximal = False, len(G.outer_face) == 3
    # the tough set read from the dual of the last decision stop asked
    stop_set: list[int] | None = None

    def enough(lp: angles.AngleLPResult) -> bool:
        """Whether a decision stop's iterate, whose dual bounds t* <=
        T_STAR_MIN, is enough: always on a disk; on a maximal planar graph,
        when a raw reading of that dual, with no greedy moves, is a tough set."""
        nonlocal stop_set
        if not maximal:
            return True
        stop_set = tough_set_near(G, angles.dual_readings(table, lp), moves=0)
        return stop_set is not None

    diagnostics = []
    for k, face in enumerate(candidates):
        now = time.monotonic()
        if refuted or now > deadline:
            # G is valid, so face 0 is its designated outer face, which keeps
            # its own rotation; re-embedding leaves every other face as it is
            diagnostics.append({"outer_face": list(G.outer_face) if k == 0 else list(face),
                                "solver_status": "REFUTED" if refuted else "DEADLINE"})
            continue
        H = reembed_with_outer_face(G, face)
        record = {"outer_face": list(H.outer_face)}
        if warm_points is None:
            lp = angles.solve_angle_lp(table, face, enough)
            warm, stopped = _angle_warm_start(H, lp)
            record.update(stopped)
            if maximal and stopped.get("solver_status") == "ANGLE_LP":
                tough_set = (stop_set if lp.t_bound is not None
                             else tough_set_near(G, angles.dual_readings(table, lp)))
                if tough_set is not None:
                    record["tough_set"], refuted = tough_set, True
        else:
            pts = [(float(x), float(y)) for x, y in warm_points]
            warm = _rescale_warm(pts, _float_radius(H, pts))
        if warm is not None:
            system = constsqu_stencil(H)
            outcome = solve(system, config.solver, G=H, initial_points=warm,
                            deadline=now + (deadline - now) / (len(candidates) - k))
            record.update(solver_status=outcome.status, min_margin=outcome.min_margin)
        if record["solver_status"] == "SATISFIED_FLOAT":
            note = "no rounded candidate satisfied the exact system"
            for exact, points in _grid_candidates(system, outcome.assignment, G.n,
                                                  config.solver.seed):
                if time.monotonic() > deadline:
                    note = "the deadline passed before a rounded candidate was certified"
                    break
                cert = certify(H, H.outer_face, points)
                if cert.ok:
                    certificate = RealizationCertificate(
                        tuple(points), tuple(H.outer_face), cert.witness_centers,
                        cert.transcript)
                    return RealizationResult("REALIZED", certificate, tuple(diagnostics),
                                             exact_assignment=exact)
                record["certify_fail"] = cert.failed_step
            if "certify_fail" not in record:  # no candidate reached certify
                record["note"] = note
        diagnostics.append(record)
    return RealizationResult("UNKNOWN", diagnostics=tuple(diagnostics))
