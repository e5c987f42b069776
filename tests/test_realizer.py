"""End-to-end realization and the exact certifier."""

import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from dtrealize import angles, constraints, oracle, plane_graph, realizer, solver
from dtrealize.constraints import (STENCIL, build_constsqu, constsqu_stencil, evaluate,
                                   repair_radii, satisfied_exact)
from dtrealize.geometry import dist_sq, pt
from dtrealize.instances import fan_triangulation, random_instance
from dtrealize.plane_graph import build_triangulation, candidate_outer_faces
from dtrealize.realizer import RealizeConfig, certify, realize, scale_to_integers
from reference_geometry import circumcenter

K4_ROT = {1: [2, 4, 3], 2: [3, 4, 1], 3: [1, 4, 2], 4: [1, 2, 3]}
K4_POINTS = [(0, 10), (-9, -5), (9, -5), (0, 0)]


def k4():
    return build_triangulation(4, K4_ROT, (1, 3, 2))


def test_scale_to_integers():
    points = [pt("1/3", "1/2"), pt(2, "5/6")]
    assert scale_to_integers(points) == [(2, 3), (12, 5)]
    assert scale_to_integers([pt(1, 2), pt(-3, 0)]) == [(1, 2), (-3, 0)]


def test_certify_accepts_k4():
    G = k4()
    res = certify(G, G.outer_face, K4_POINTS, allow_reflection=False)
    assert res.ok
    assert res.failed_step is None
    assert list(res.transcript) == ["general_position", "edge_set",
                                    "hull_cycle", "witness_discs"]
    assert len(res.witness_centers) == 6
    # each witness disc: endpoints equidistant, everyone else strictly outside
    pts = [pt(x, y) for x, y in K4_POINTS]
    for (i, j), (cx, cy) in zip(G.edge_pairs(), res.witness_centers):
        c = pt(cx, cy)
        r2 = dist_sq(c, pts[i - 1])
        assert dist_sq(c, pts[j - 1]) == r2
        for k in range(4):
            if k + 1 not in (i, j):
                assert dist_sq(c, pts[k]) > r2


def test_certify_checks_general_position_once(monkeypatch):
    calls = []
    check = oracle.general_position_check

    def counted(points):
        calls.append(len(points))
        return check(points)

    monkeypatch.setattr(oracle, "general_position_check", counted)
    G = k4()
    assert certify(G, G.outer_face, K4_POINTS).ok
    assert calls == [4]


def test_certify_reflection_policy():
    G = k4()
    mirrored = [(-x, y) for x, y in K4_POINTS]
    assert certify(G, G.outer_face, mirrored, allow_reflection=True).ok
    res = certify(G, G.outer_face, mirrored, allow_reflection=False)
    assert not res.ok
    assert res.failed_step == "HULL_MISMATCH"


def test_certify_point_count():
    G = k4()
    res = certify(G, G.outer_face, K4_POINTS[:3])
    assert not res.ok
    assert res.failed_step == "POINT_COUNT"


def test_certify_degenerate_points():
    G = k4()
    res = certify(G, G.outer_face, [(0, 0), (1, 1), (2, 2), (3, 3)])
    assert not res.ok
    assert res.failed_step == "NOT_GENERAL_POSITION"


def test_certify_edge_mismatch():
    G = k4()
    # convex-position points: DT has no K4 interior vertex
    res = certify(G, G.outer_face, [(0, 0), (10, 1), (11, 12), (1, 10)])
    assert not res.ok
    assert res.failed_step == "EDGE_MISMATCH"
    assert "missing" in res.detail


def test_realize_k4():
    res = realize(k4())
    assert res.status == "REALIZED"
    cert = res.certificate
    assert len(cert.points) == 4
    assert all(isinstance(c, int) for p in cert.points for c in p)
    recheck = certify(k4(), cert.outer_face, cert.points)
    assert recheck.ok
    assert res.exact_assignment is not None


def test_realize_fan():
    G = fan_triangulation(6)
    res = realize(G)
    assert res.status == "REALIZED"
    assert certify(G, res.certificate.outer_face, res.certificate.points).ok


def test_realize_exact_assignment_satisfies_system():
    G = fan_triangulation(5)
    res = realize(G)
    assert res.status == "REALIZED"
    assert evaluate(build_constsqu(G), res.exact_assignment).satisfied


def test_realize_builds_no_constsqu_rows(monkeypatch):
    """ConstSqu is evaluated from its stencil groups: realize() neither builds
    its rows nor compiles it into term arrays."""
    def refuse(G):
        raise AssertionError("realize() must not build ConstSqu rows")

    def base_only(fn):
        def checked(system, *args, **kwargs):
            assert system.flavor != "CONSTSQU", f"{fn.__name__} saw a ConstSqu system"
            return fn(system, *args, **kwargs)
        return checked

    monkeypatch.setattr(constraints, "build_constsqu", refuse)
    monkeypatch.setattr(realizer, "build_constsqu", refuse)
    monkeypatch.setattr(solver, "CompiledSystem", base_only(solver.CompiledSystem))
    G = fan_triangulation(6)
    res = realize(G)
    assert res.status == "REALIZED"
    assert certify(G, res.certificate.outer_face, res.certificate.points).ok


def test_realize_triangle_direct():
    for outer in ((1, 3, 2), (1, 2, 3)):
        G = build_triangulation(3, {1: [2, 3], 2: [3, 1], 3: [1, 2]}, outer)
        res = realize(G)
        assert res.status == "REALIZED"
        assert len(res.certificate.points) == 3
        assert res.certificate.transcript[2] == "hull_cycle"
        assert certify(G, G.outer_face, res.certificate.points, allow_reflection=False).ok


def test_realize_invalid_input():
    # inner quadrilateral face: not a triangulation
    rot = {1: [2, 4], 2: [3, 1], 3: [4, 2], 4: [1, 3]}
    G = build_triangulation(4, rot, (1, 2, 3, 4))
    res = realize(G)
    assert res.status == "INVALID_INPUT"
    assert any(rule == "NONTRIANGULAR_INNER_FACE" for rule, _ in res.diagnostics)


def test_realize_warm_start():
    pts, G = random_instance(8, 5)
    res = realize(G, warm_points=pts)
    assert res.status == "REALIZED"


def test_realize_rejects_a_wrong_number_of_warm_points():
    pts, G = random_instance(8, 5)
    for warm, count in ((pts[:-1], 7), (pts + [pt(0, 0)], 9)):
        with pytest.raises(ValueError, match=f"{count} warm points for 8 vertices"):
            realize(G, warm_points=warm)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_realize_rejects_non_finite_warm_points(bad):
    pts, G = random_instance(6, 3)
    warm = [(float(x), float(y)) for x, y in pts]
    warm[2] = (warm[2][0], bad)
    with pytest.raises(ValueError, match="finite"):
        realize(G, warm_points=warm)


def test_realize_rejects_coincident_warm_points():
    """Two coincident start points are refused, not scaled apart by 10^10
    into a search that runs out the budget."""
    pts, G = random_instance(6, 4000)
    pts[1] = pts[0]
    with pytest.raises(ValueError, match="distinct"):
        realize(G, RealizeConfig(time_budget=1), warm_points=pts)


class _CountingRandom(realizer.random.Random):
    draws = 0

    def randrange(self, *args):
        _CountingRandom.draws += 1
        return super().randrange(*args)


@pytest.mark.parametrize("n, draws", [(6, 0), (7, 14)])
def test_jitter_trials_are_drawn_only_after_a_failure(monkeypatch, n, draws):
    """Fan 6 certifies on its first trial and draws no jitter; fan 7's first
    trial is cocircular, so one jittered copy of its 7 points is drawn."""
    monkeypatch.setattr(realizer.random, "Random", _CountingRandom)
    monkeypatch.setattr(_CountingRandom, "draws", 0)
    res = realize(fan_triangulation(n))
    assert res.status == "REALIZED"
    assert _CountingRandom.draws == draws


def _record_search(monkeypatch):
    """Record realize()'s solve outcomes and, per rounding candidate, its
    denominator bound and whether it passed the exact gate."""
    outcomes, gates = [], []
    real_solve, real_round, real_gate = (realizer.solve, realizer.round_candidates,
                                         realizer.satisfied_exact)

    def recorded_solve(*args, **kwargs):
        outcomes.append(real_solve(*args, **kwargs))
        return outcomes[-1]

    def recorded_round(assignment):
        for bound, exact in zip(solver.DENOMINATORS, real_round(assignment)):
            gates.append([bound, None])
            yield exact

    def recorded_gate(system, values):
        ok = real_gate(system, values)
        gates[-1][1] = ok
        return ok

    monkeypatch.setattr(realizer, "solve", recorded_solve)
    monkeypatch.setattr(realizer, "round_candidates", recorded_round)
    monkeypatch.setattr(realizer, "satisfied_exact", recorded_gate)
    return outcomes, gates


@pytest.mark.parametrize("n, seed", [(6, 4005), (6, 4010)])
def test_warm_points_needing_a_restart(monkeypatch, n, seed):
    """Why solve() keeps its restarts: these warm starts are only satisfied
    from a jittered restart."""
    outcomes, _ = _record_search(monkeypatch)
    pts, G = random_instance(n, seed)
    res = realize(G, warm_points=pts)
    assert res.status == "REALIZED"
    assert outcomes[-1].status == "SATISFIED_FLOAT"
    assert outcomes[-1].restart_index >= 1


@pytest.mark.parametrize("n, seed", [(5, 1049), (6, 4020)])
def test_warm_points_needing_a_finer_rounding(monkeypatch, n, seed):
    """Why round_candidates keeps denominators above 1: these solves first
    pass the exact gate at bound 32."""
    _, gates = _record_search(monkeypatch)
    pts, G = random_instance(n, seed)
    res = realize(G, warm_points=pts)
    assert res.status == "REALIZED"
    passed = [bound for bound, ok in gates if ok]
    assert passed and passed[0] == 32


def _stencil_repair(G, values):
    """Reference radius fit: exact stencil distances in Fraction, edge by edge.

    With D the LCM of the point and center denominators, r = q / (m D) for
    the first power of two m such that q = ceil(sqrt(max_in) m D) has
    q^2 < min_out (m D)^2.
    """
    D = math.lcm(*(v.denominator for k, v in values.items() if k[0] != "r"))
    out = dict(values)
    for i, j in G.edge_pairs():
        center = pt(values[("cx", i, j)], values[("cy", i, j)])

        def d2(v):
            return [dist_sq(center, pt(values[("px", v)] + a, values[("py", v)] + b))
                    for a, b in STENCIL]

        max_in = max(d2(i) + d2(j))
        min_out = min(d for k in range(1, G.n + 1) if k not in (i, j) for d in d2(k))
        if max_in >= min_out:
            continue
        m = 1
        while True:
            q = math.isqrt(int(max_in * (m * D) ** 2) - 1) + 1
            if q * q < min_out * (m * D) ** 2:
                break
            m *= 2
        out[("r", i, j)] = Fraction(q, m * D)
    return out


def test_repair_radii_restores_disc_constraints():
    for G in (k4(), fan_triangulation(6)):
        system = build_constsqu(G)
        res = realize(G)
        values = dict(res.exact_assignment)
        # spoil every radius; repair must bring the system back
        for v in system.variables:
            if v[0] == "r":
                values[v] = Fraction(1, 7)
        assert not evaluate(system, values).satisfied
        repaired = repair_radii(constsqu_stencil(G), values)
        assert evaluate(system, repaired).satisfied
        assert satisfied_exact(constsqu_stencil(G), repaired)
        assert repaired == _stencil_repair(G, values)


def test_repair_radii_fits_beyond_float_precision():
    """Near 2^55 a float cannot resolve the feasible radii of edge (1, 2): with
    every center at the origin, (2^55 + 3)^2 + 1 <= r^2 < (2^55 + 4)^2, which
    the fit meets at m = 2 with r = (2^56 + 7) / 2."""
    pts = [pt(0, 0), pt(10, 0), pt(4, 9), pt(5, 3)]
    G = oracle.as_plane_triangulation(oracle.delaunay(pts), pts)
    a, b = 2**55 + 2, 2**55 + 5
    values = {v: Fraction(0) for v in constsqu_stencil(G).variables}
    for v, (x, y) in enumerate([(a, 0), (-a, 0), (0, b), (0, -b)], start=1):
        values["px", v], values["py", v] = Fraction(x), Fraction(y)
    repaired = repair_radii(constsqu_stencil(G), values)
    assert repaired["r", 1, 2] == Fraction(2**56 + 7, 2)
    assert repaired == _stencil_repair(G, values)


def test_realize_deterministic():
    G = fan_triangulation(5)
    r1 = realize(G)
    r2 = realize(G)
    assert r1.certificate.points == r2.certificate.points
    assert r1.certificate.witness_centers == r2.certificate.witness_centers


def test_realize_respects_time_budget():
    G = fan_triangulation(7)
    t0 = time.monotonic()
    res = realize(G, RealizeConfig(time_budget=120.0))
    assert time.monotonic() - t0 < 120.0
    assert res.status in ("REALIZED", "UNKNOWN")


def bipyramid_kleetope(levels=1):
    """The triangular bipyramid with a vertex stacked in each of its 6 faces,
    ``levels`` times over.

    One level gives n = 11 with 18 faces; removing the 5 bipyramid vertices
    leaves 6 components, so it is not 1-tough and (Dillencourt) not
    Delaunay-realizable. Two give n = 29 with 54 faces.
    """
    n, faces = 5, [(4, 1, 2), (4, 2, 3), (4, 3, 1), (5, 2, 1), (5, 3, 2), (5, 1, 3)]
    for _ in range(levels):
        n, faces = n + len(faces), [t for k, (x, y, z) in enumerate(faces, start=n + 1)
                                    for t in ((x, y, k), (y, z, k), (z, x, k))]
    # face (u, v, w) puts w right after u in the rotation at v
    succ = {}
    for u, v, w in faces:
        for a, b, c in ((u, v, w), (v, w, u), (w, u, v)):
            succ.setdefault(b, {})[a] = c
    rotation = {}
    for v, nxt in sorted(succ.items()):
        ring = [min(nxt)]
        while len(ring) < len(nxt):
            ring.append(nxt[ring[-1]])
        rotation[v] = ring
    return build_triangulation(n, rotation, faces[0])


def _timed_realize(G, budget):
    t0 = time.monotonic()
    res = realize(G, RealizeConfig(time_budget=budget))
    return res, time.monotonic() - t0


def test_time_budget_is_one_deadline():
    G = bipyramid_kleetope()
    res, elapsed = _timed_realize(G, 2.0)
    assert res.status == "UNKNOWN"
    assert elapsed < 3.5
    assert len(res.diagnostics) == len(candidate_outer_faces(G)) == 18


def test_tight_budget_on_a_large_input():
    """A 0.5 s budget at n = 25 ends within the documented slack."""
    G = random_instance(25, 1000)[1]
    res, elapsed = _timed_realize(G, 0.5)
    assert res.status in ("REALIZED", "UNKNOWN")
    assert elapsed < 0.5 + 1.0


def test_faces_after_the_deadline_are_listed_not_searched(monkeypatch):
    # every face of the Kleetope stops at its angle LP within milliseconds;
    # with its duals read as finding no tough set and at 10 ms per face, a
    # 0.05 s budget runs out part way through the 18
    solve_angle_lp = angles.solve_angle_lp

    def slow(table, face, enough=None):
        time.sleep(0.01)
        return solve_angle_lp(table, face, enough)

    monkeypatch.setattr(angles, "solve_angle_lp", slow)
    monkeypatch.setattr(angles, "dual_readings", lambda table, lp: [])
    G = bipyramid_kleetope()
    res, elapsed = _timed_realize(G, 0.05)
    assert res.status == "UNKNOWN"
    assert elapsed < 1.0
    assert len(res.diagnostics) == len(candidate_outer_faces(G)) == 18
    skipped = [d for d in res.diagnostics if d["solver_status"] == "DEADLINE"]
    assert skipped and all(d.keys() == {"outer_face", "solver_status"} for d in skipped)


@pytest.mark.parametrize("graph, reads_duals, searched", [
    (k4, True, 1), (bipyramid_kleetope, True, 1), (bipyramid_kleetope, False, 18),
], ids=["k4", "kleetope-refuted", "kleetope-every-face"])
def test_each_searched_face_is_solved_alone_once(monkeypatch, graph, reads_duals, searched):
    """realize() solves the angle LP of each face it searches when it
    searches it, alone, by one backend call: K4 succeeds on its first face,
    and the Kleetope is refuted there; with its duals read as finding no
    tough set, each of the Kleetope's 18 faces is solved once, all dense
    (53 rows)."""
    faces, backends = [], []
    solve_angle_lp, mehrotra = angles.solve_angle_lp, angles._mehrotra

    def recorded_face(table, face, enough=None):
        faces.append(tuple(face))
        return solve_angle_lp(table, face, enough)

    def recorded_backend(lp, b, tau, stop=None):
        backends.append(type(lp))
        return mehrotra(lp, b, tau, stop)

    monkeypatch.setattr(angles, "solve_angle_lp", recorded_face)
    monkeypatch.setattr(angles, "_mehrotra", recorded_backend)
    if not reads_duals:
        monkeypatch.setattr(angles, "dual_readings", lambda table, lp: [])
    G = graph()
    res = realize(G)
    assert res.status == ("REALIZED" if graph is k4 else "UNKNOWN")
    assert faces == [tuple(f) for f in candidate_outer_faces(G)[:searched]]
    assert backends == [angles._Dense] * searched


def test_a_call_that_succeeds_on_its_first_face_never_loads_lp_stacks():
    """``lp_stacks`` is loaded only for an LP of at least
    ``angles.ELIMINATED_MIN_ROWS`` rows, so a realize call that succeeds on
    its first small face, on a graph with one candidate face or on a maximal
    planar one, never imports it (run in a fresh interpreter, as the tests
    themselves load it)."""
    code = (
        "import sys\n"
        "from dtrealize.instances import random_instance\n"
        "from dtrealize.plane_graph import build_triangulation, candidate_outer_faces\n"
        "from dtrealize.realizer import realize\n"
        f"k4 = build_triangulation(4, {K4_ROT!r}, (1, 3, 2))\n"
        "for G in (random_instance(7, 1003)[1], k4):\n"
        "    print(realize(G).status, len(candidate_outer_faces(G)))\n"
        "print('dtrealize.lp_stacks' in sys.modules)\n")
    src = str(Path(realizer.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                         timeout=120, check=True).stdout.split()
    assert out == ["REALIZED", "1", "REALIZED", "4", "False"]


def test_no_certify_call_starts_after_the_deadline(monkeypatch):
    """A certify call that outlasts the budget is the last one: the jitters
    of its rounding candidate are not certified."""
    calls = []

    def slow_reject(G, f_star, points):
        calls.append(points)
        time.sleep(0.6)
        return realizer.CertifyResult(False, (), "EDGE_MISMATCH", "forced")

    monkeypatch.setattr(realizer, "certify", slow_reject)
    res = realize(fan_triangulation(6), RealizeConfig(time_budget=0.5))
    assert res.status == "UNKNOWN"
    assert len(calls) == 1
    (attempt,) = res.diagnostics
    assert attempt["certify_fail"] == "EDGE_MISMATCH"


def test_grid_candidates_come_per_rounding_then_its_jitters(monkeypatch):
    """With every certify call rejected, fan 6 certifies each of its 3
    roundings that pass the exact gate, then 3 jitters of it; the RNG is
    reseeded per rounding, so each rounding is jittered by the same offsets."""
    gated, scaled, certified = [], [], []
    real_gate, real_scale = realizer.satisfied_exact, realizer.scale_to_integers

    def gate(system, values):
        ok = real_gate(system, values)
        if ok:
            gated.append([(values["px", i], values["py", i]) for i in range(1, 7)])
        return ok

    def scale(points):
        scaled.append([(p.x, p.y) for p in points])
        return real_scale(points)

    def reject(G, f_star, points):
        certified.append(points)
        return realizer.CertifyResult(False, (), "EDGE_MISMATCH", "forced")

    monkeypatch.setattr(realizer, "satisfied_exact", gate)
    monkeypatch.setattr(realizer, "scale_to_integers", scale)
    monkeypatch.setattr(realizer, "certify", reject)
    res = realize(fan_triangulation(6))
    assert res.status == "UNKNOWN"
    assert len(gated) == 3 and len(scaled) == len(certified) == 12
    assert certified == [real_scale([pt(x, y) for x, y in points]) for points in scaled]
    offsets = [[[(x - gx, y - gy) for (x, y), (gx, gy) in zip(scaled[4 * g + t], gated[g])]
                for t in range(4)] for g in range(3)]
    for group in offsets:
        assert all(d == (0, 0) for d in group[0])
        for jitter in group[1:]:
            assert any(d != (0, 0) for d in jitter)
            assert all(max(map(abs, d)) < Fraction(1, 4) for d in jitter)
    assert offsets[0] == offsets[1] == offsets[2]


def test_certify_failure_is_not_reported_as_a_gate_failure(monkeypatch):
    def reject(G, f_star, points):
        return realizer.CertifyResult(False, (), "EDGE_MISMATCH", "forced")

    monkeypatch.setattr(realizer, "certify", reject)
    res = realize(fan_triangulation(6))
    assert res.status == "UNKNOWN"
    assert res.diagnostics
    for attempt in res.diagnostics:
        assert attempt["certify_fail"] == "EDGE_MISMATCH"
        assert "note" not in attempt


def test_exhausted_solve_is_reported_with_its_margin():
    """Warm points on one circle (float radius <= 0, so they are not scaled)
    leave ConstSqu unsatisfied, and no step may run."""
    hexagon = [(10 * math.sin(k * math.pi / 3), 10 * math.cos(k * math.pi / 3))
               for k in range(6)]
    config = RealizeConfig(solver=solver.SolverConfig(max_iterations=0, restarts=0))
    res = realize(fan_triangulation(6), config, warm_points=hexagon)
    assert res.status == "UNKNOWN" and res.certificate is None
    (attempt,) = res.diagnostics
    assert attempt.keys() == {"outer_face", "solver_status", "min_margin"}
    assert attempt["solver_status"] == "EXHAUSTED"
    assert attempt["min_margin"] == pytest.approx(-69.32, abs=0.01)


def test_newton_failure_is_reported(monkeypatch):
    monkeypatch.setattr(angles, "maximise_volume", lambda *args: None)
    res = realize(fan_triangulation(6))
    assert res.status == "UNKNOWN" and res.certificate is None
    assert res.diagnostics == ({"outer_face": [1, 2, 3, 4, 5, 6], "solver_status": "NEWTON"},)


def test_layout_failure_is_reported(monkeypatch):
    """A layout that puts every vertex at one point realizes nothing."""
    monkeypatch.setattr(angles, "layout", lambda n, cs, x: [(0.0, 0.0)] * n)
    res = realize(fan_triangulation(6))
    assert res.status == "UNKNOWN" and res.certificate is None
    assert res.diagnostics == ({"outer_face": [1, 2, 3, 4, 5, 6], "solver_status": "LAYOUT"},)


def test_exact_gate_failure_is_noted(monkeypatch):
    """A float solution whose rounded candidates all fail the exact ConstSqu
    check is reported with the note, and nothing reaches certify."""
    monkeypatch.setattr(realizer, "satisfied_exact", lambda system, values: False)
    monkeypatch.setattr(realizer, "certify", None)
    res = realize(fan_triangulation(6))
    assert res.status == "UNKNOWN"
    (attempt,) = res.diagnostics
    assert attempt["solver_status"] == "SATISFIED_FLOAT" and attempt["min_margin"] > 0
    assert attempt["note"] == "no rounded candidate satisfied the exact system"
    assert "certify_fail" not in attempt


def test_a_deadline_among_the_candidates_is_noted(monkeypatch):
    """A deadline that passes while a rounded candidate goes through the
    exact gate stops the face before certify, and the note says so: the
    gate passed."""
    gate = realizer.satisfied_exact

    def slow_gate(system, values):
        time.sleep(0.3)
        return gate(system, values)

    monkeypatch.setattr(realizer, "satisfied_exact", slow_gate)
    res = realize(fan_triangulation(6), RealizeConfig(time_budget=0.2))
    assert res.status == "UNKNOWN"
    (attempt,) = res.diagnostics
    assert attempt["solver_status"] == "SATISFIED_FLOAT"
    assert attempt["note"] == "the deadline passed before a rounded candidate was certified"
    assert "certify_fail" not in attempt


@pytest.mark.parametrize("n, seed", [(7, 4007), (7, 4013), (8, 4021), (9, 4007), (9, 4021),
                                     (10, 4007)])
def test_single_face_graphs_once_lost_by_the_search_are_realized(n, seed):
    """Realizable graphs with one candidate face that the earlier warm start,
    a penalty solve of the base system, left UNKNOWN."""
    G = random_instance(n, seed)[1]
    res = realize(G, RealizeConfig(time_budget=3))
    assert res.status == "REALIZED"
    assert certify(G, res.certificate.outer_face, res.certificate.points).ok


def test_kleetope_stops_at_the_angle_lp_on_every_face():
    """The Kleetope stops at face 0's angle LP, at an iterate whose dual
    bounds t* (-1/12, ``tests/test_angles.py``) and gives the tough set of
    the 5 bipyramid vertices; the other 17 faces are listed as refuted, not
    searched."""
    G = bipyramid_kleetope()
    res, elapsed = _timed_realize(G, 2.0)
    assert res.status == "UNKNOWN"
    assert elapsed < 1.0
    assert len(res.diagnostics) == 18
    first, *rest = res.diagnostics
    assert first["solver_status"] == "ANGLE_LP"
    assert -1 / 12 - 1e-9 <= first["t_bound"] <= angles.T_STAR_MIN
    assert first["tough_set"] == [1, 2, 3, 4, 5]
    for d in rest:
        assert d.keys() == {"outer_face", "solver_status"}
        assert d["solver_status"] == "REFUTED"


def test_kleetope_faces_are_derived_once_per_call(monkeypatch):
    """The 18 re-embeddings take the graph's face orbits; none walks them again."""
    G = bipyramid_kleetope()
    walks = []
    real = plane_graph.faces_from_rotation

    def counted(rotation):
        walks.append(1)
        return real(rotation)

    monkeypatch.setattr(plane_graph, "faces_from_rotation", counted)
    res = realize(G, RealizeConfig(time_budget=2))
    assert res.status == "UNKNOWN" and len(res.diagnostics) == 18
    assert len(walks) == 1


@pytest.mark.parametrize("budget, status", [(0, "DEADLINE"), (None, "REFUTED")])
def test_faces_not_searched_are_not_re_embedded(monkeypatch, budget, status):
    """A face listed as DEADLINE or REFUTED is not re-embedded, and its
    entry's ``outer_face`` is the list re-embedding gives: face 0 keeps the
    designated outer face of G as given, (4, 1, 6), started at another
    vertex than G's face cycle (1, 6, 4)."""
    G = bipyramid_kleetope()
    faces = candidate_outer_faces(G)
    want = [list(plane_graph.reembed_with_outer_face(G, f).outer_face) for f in faces]
    assert want[0] == list(G.outer_face) != faces[0]
    reembed, reembedded = realizer.reembed_with_outer_face, []

    def counted(G, face):
        reembedded.append(face)
        return reembed(G, face)

    monkeypatch.setattr(realizer, "reembed_with_outer_face", counted)
    res = realize(G, RealizeConfig(time_budget=budget))
    assert [d["outer_face"] for d in res.diagnostics] == want
    skipped = [d["solver_status"] for d in res.diagnostics[len(reembedded):]]
    assert len(reembedded) == (budget is None) and skipped == [status] * len(skipped)


def test_realize_runs_no_base_system(monkeypatch):
    """The warm start comes from the angles: realize() neither builds the
    base system nor compiles any row system."""
    def refuse(*args, **kwargs):
        raise AssertionError("realize() must not build or compile a row system")

    for module in (constraints, realizer):
        monkeypatch.setattr(module, "build_const", refuse)
    monkeypatch.setattr(solver, "CompiledSystem", refuse)
    for G in (k4(), fan_triangulation(7), random_instance(9, 1005)[1]):
        res = realize(G)
        assert res.status == "REALIZED"


def _fraction_witness_centers(G, points):
    """Reference witness centers in Fraction arithmetic, in edge order."""
    dt = oracle.delaunay([pt(x, y) for x, y in points])
    pts = [pt(x, y) for x, y in points]
    faces_of_edge = {}
    for f in dt.faces:
        for a in range(3):
            faces_of_edge.setdefault(tuple(sorted((f[a], f[(a + 1) % 3]))), []).append(f)
    centers = []
    for i, j in G.edge_pairs():
        e = (i - 1, j - 1)
        tris = sorted(faces_of_edge[e])
        ccs = [circumcenter(*(pts[v] for v in t)) for t in tris]
        if len(ccs) >= 2:
            c = ((ccs[0].x + ccs[1].x) / 2, (ccs[0].y + ccs[1].y) / 2)
        else:
            pi, pj = pts[e[0]], pts[e[1]]
            a = pts[next(v for v in tris[0] if v not in e)]
            nx, ny = -(pj.y - pi.y), pj.x - pi.x
            if nx * (a.x - (pi.x + pj.x) / 2) + ny * (a.y - (pi.y + pj.y) / 2) > 0:
                nx, ny = -nx, -ny
            c = (ccs[0].x + nx, ccs[0].y + ny)
        r2 = dist_sq(pt(*c), pts[e[0]])
        assert dist_sq(pt(*c), pts[e[1]]) == r2
        assert all(dist_sq(pt(*c), pts[k]) > r2 for k in range(G.n) if k not in e)
        centers.append(c)
    return tuple(centers)


def test_certify_witness_centers_match_the_fraction_reference():
    cases = [(k4(), K4_POINTS)]
    cases += [random_instance(n, seed)[::-1] for n, seed in ((6, 11), (9, 12), (13, 14))]
    for n in (5, 8):
        G = fan_triangulation(n)
        cases.append((G, realize(G).certificate.points))
    for G, points in cases:
        res = certify(G, G.outer_face, points)
        assert res.ok
        assert res.witness_centers == _fraction_witness_centers(G, points)
