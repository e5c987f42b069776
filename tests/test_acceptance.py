"""Acceptance suite: ten end-to-end criteria, one test per criterion.

Several criteria share a corpus of 50 seed-fixed random round-trip
instances (criterion 1); it is realized once per session and reused.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from dtrealize import formats, oracle
from dtrealize.constraints import (build_const, build_constsqu, evaluate,
                                   system_to_json, system_to_smtlib2)
from dtrealize.geometry import RatPoint, convex_hull, dist_sq, pt
from dtrealize.instances import (fan_triangulation, perturb_within_halfbox,
                                 perturb_within_radius, radius_bounds,
                                 random_instance)
from dtrealize.plane_graph import _canon_cycle, reembed_with_outer_face
from dtrealize.realizer import certify, realize
from dtrealize.solver import CompiledSystem
from reference_geometry import in_circle_sign

TIME_LIMIT = 60.0
CASES = [(4 + k % 12, 1000 + k) for k in range(50)]   # (n, seed), n in 4..15


@pytest.fixture(scope="module")
def corpus():
    out = []
    for n, seed in CASES:
        points, G = random_instance(n, seed)
        t0 = time.monotonic()
        result = realize(G)
        elapsed = time.monotonic() - t0
        out.append({"n": n, "seed": seed, "points": points, "G": G,
                    "result": result, "elapsed": elapsed})
    return out


def _realized(corpus):
    return [c for c in corpus if c["result"].status == "REALIZED"]


def _scaled_int_points(rat_points):
    """Clear denominators; DT is scale invariant and ints keep checks fast."""
    beta = 1
    for p in rat_points:
        beta = math.lcm(beta, p.x.denominator, p.y.denominator)
    return [RatPoint(int(p.x * beta), int(p.y * beta)) for p in rat_points]


def _is_dt_of(H, rat_points) -> bool:
    """Exact check that DT(points) = H: inner faces strictly empty, hull = outer.

    Two triangles with strictly empty circumcircles never overlap, so if all
    inner faces of H pass the strict empty-circle test and the hull cycle is
    the outer face, the faces tile the hull and H is the (unique) Delaunay
    triangulation - no brute-force enumeration needed.
    """
    pts = _scaled_int_points(rat_points)
    n = len(pts)
    try:
        for f in H.inner_faces():
            a, b, c = (pts[v - 1] for v in f)
            for q in range(1, n + 1):
                if q not in f and in_circle_sign(a, b, c, pts[q - 1]) >= 0:
                    return False
        hull_res = convex_hull(pts)
        if hull_res.collinear_dropped:
            return False
        hull = [i + 1 for i in hull_res.hull]
    except Exception:
        return False
    target = list(H.outer_face)
    return (_canon_cycle(hull) == _canon_cycle(target)
            or _canon_cycle(hull) == _canon_cycle(list(reversed(target))))


def _hull_is_outer(H, rat_points) -> bool:
    res = convex_hull(rat_points)
    if res.collinear_dropped:
        return False
    hull = [i + 1 for i in res.hull]
    target = list(H.outer_face)
    return (_canon_cycle(hull) == _canon_cycle(target)
            or _canon_cycle(hull) == _canon_cycle(list(reversed(target))))


def _edges_preserved(H, assignment, moved) -> bool:
    """Exact check that DT(moved) has exactly the edges of H.

    Each edge's witness disc still contains its endpoints and strictly
    excludes everyone else, which forces the edge into every Delaunay
    triangulation of the moved points. The hull matching the outer face
    fixes the total edge count at 3n-3-h, so forced edges are all of them.
    Both checks are scale invariant, so they run on integers: the moved
    points, centers and radii times one common denominator.
    """
    n = H.n
    beta = 1
    for q in [*assignment.values(), *(c for p in moved for c in p)]:
        beta = math.lcm(beta, q.denominator)
    pts = [RatPoint(int(p.x * beta), int(p.y * beta)) for p in moved]
    for i, j in H.edge_pairs():
        c = RatPoint(int(assignment[("cx", i, j)] * beta), int(assignment[("cy", i, j)] * beta))
        r2 = int(assignment[("r", i, j)] * beta) ** 2
        if dist_sq(c, pts[i - 1]) > r2 or dist_sq(c, pts[j - 1]) > r2:
            return False
        for k in range(1, n + 1):
            if k not in (i, j) and dist_sq(c, pts[k - 1]) <= r2:
                return False
    return _hull_is_outer(H, pts)


def _assignment_from_certificate(H, cert):
    """Exact base-system assignment (points + witness centers), or None when
    the certificate's points do not realize H in its orientation."""
    res = certify(H, H.outer_face, cert.points, allow_reflection=False)
    if not res.ok:
        return None
    values = {}
    for i, (x, y) in enumerate(cert.points, start=1):
        values[("px", i)] = Fraction(x)
        values[("py", i)] = Fraction(y)
    for (i, j), (cx, cy) in zip(H.edge_pairs(), res.witness_centers):
        values[("cx", i, j)] = cx
        values[("cy", i, j)] = cy
    return values


# --- criterion 1: round-trip realization --------------------------------

def test_c1_round_trip_realization(corpus):
    for case in corpus:
        assert case["elapsed"] <= TIME_LIMIT, \
            f"n={case['n']} seed={case['seed']} took {case['elapsed']:.1f}s"
        status = case["result"].status
        assert status in ("REALIZED", "UNKNOWN"), status
        if status == "REALIZED":
            cert = case["result"].certificate
            H = reembed_with_outer_face(case["G"], cert.outer_face)
            assert certify(H, cert.outer_face, cert.points, allow_reflection=False).ok
    rate = len(_realized(corpus)) / len(corpus)
    assert rate >= 0.8, f"success rate {rate:.0%}"

    # warm-start mode: seeding with the generating points must always work
    for case in corpus:
        t0 = time.monotonic()
        res = realize(case["G"], warm_points=case["points"])
        assert time.monotonic() - t0 <= TIME_LIMIT
        assert res.status == "REALIZED", \
            f"warm n={case['n']} seed={case['seed']}: {res.status}"


# --- criterion 2: constraint metadata ------------------------------------

def test_c2_constraint_metadata():
    graphs = [random_instance(4 + k % 6, 300 + k)[1] for k in range(20)]
    for G in graphs:
        e = len(G.edge_pairs())
        const = build_const(G)
        assert len(const.variables) == 2 * G.n + 2 * e
        for c in const.constraints:
            for mono, coeff in c.poly:
                assert len(mono) <= 2
                assert -2 <= coeff <= 2
        squ = build_constsqu(G)
        assert len(squ.variables) == 2 * G.n + 3 * e
        for c in squ.constraints:
            for mono, coeff in c.poly:
                assert len(mono) <= 2
                assert -10 <= coeff <= 10

    pts = [pt(0, 0), pt(10, 0), pt(4, 9), pt(5, 3)]
    k4 = oracle.as_plane_triangulation(oracle.delaunay(pts), pts)
    assert len(build_const(k4).variables) == 20
    assert len(build_const(k4).constraints) == 27
    assert len(build_constsqu(k4).variables) == 26
    assert len(build_constsqu(k4).constraints) == 6777


# --- criterion 3: scale invariance ----------------------------------------

def test_c3_scale_invariance(corpus):
    picked = _realized(corpus)[:10]
    assert len(picked) == 10
    for case in picked:
        cert = case["result"].certificate
        H = reembed_with_outer_face(case["G"], cert.outer_face)
        values = _assignment_from_certificate(H, cert)
        assert values is not None
        system = build_const(H)
        base = evaluate(system, values)
        assert base.satisfied
        def sign(x):
            return (x > 0) - (x < 0)
        base_signs = [sign(r.residual) for r in base.results]
        for alpha in (Fraction(1, 3), Fraction(2), Fraction(7)):
            scaled = {v: alpha * x for v, x in values.items()}
            rep = evaluate(system, scaled)
            assert rep.satisfied
            assert [sign(r.residual) for r in rep.results] == base_signs


# --- criterion 4: disc robustness ------------------------------------------

def test_c4_disc_robustness(corpus):
    picked = [c for c in _realized(corpus) if c["n"] <= 12][:10]
    assert len(picked) == 10
    for case in picked:
        cert = case["result"].certificate
        H = reembed_with_outer_face(case["G"], cert.outer_face)
        points = [pt(x, y) for x, y in cert.points]
        rb = radius_bounds(H, points, cert.witness_centers)
        r = rb.r
        assert r > 0
        # floor to a modest denominator: still a certified lower bound,
        # and it keeps the perturbed coordinates small for exact checks
        r = Fraction(int(r * 10**6), 10**6) or r
        for moved in perturb_within_radius(points, r, seed=case["seed"], trials=100):
            assert _is_dt_of(H, moved), f"n={case['n']} seed={case['seed']}"


# --- criterion 5: half-box robustness ---------------------------------------

def test_c5_halfbox_robustness(corpus):
    checked = 0
    for case in _realized(corpus):
        assignment = case["result"].exact_assignment
        if assignment is None:
            continue
        cert = case["result"].certificate
        H = reembed_with_outer_face(case["G"], cert.outer_face)
        points = [RatPoint(assignment[("px", i)], assignment[("py", i)])
                  for i in range(1, case["n"] + 1)]
        for moved in perturb_within_halfbox(points, seed=case["seed"], trials=50):
            assert _edges_preserved(H, assignment, moved), \
                f"n={case['n']} seed={case['seed']}"
        checked += 1
    assert checked >= len(_realized(corpus)) * 0.9


# --- criterion 6: oracle identities ------------------------------------------

def test_c6_oracle_identities():
    rng = np.random.default_rng(77)
    done = 0
    while done < 200:
        n = int(rng.integers(4, 13))
        pts = [RatPoint(int(x), int(y)) for x, y in rng.integers(0, 700, size=(n, 2))]
        if not oracle.general_position_check(pts).ok:
            continue
        dt = oracle.delaunay(pts)
        hull_res = convex_hull(pts)
        h = len(hull_res.hull) + len(hull_res.collinear_dropped)
        assert len(dt.edges) == 3 * n - 3 - h
        for i, j, k in dt.faces:
            for q in range(n):
                if q not in (i, j, k):
                    assert in_circle_sign(pts[i], pts[j], pts[k], pts[q]) == -1
        m = len(dt.hull)
        for t in range(m):
            e = tuple(sorted((dt.hull[t], dt.hull[(t + 1) % m])))
            assert e in dt.edges
        done += 1


# --- criterion 7: fan family -------------------------------------------------

def test_c7_fan_family():
    for n in range(4, 13):
        G = fan_triangulation(n)
        t0 = time.monotonic()
        res = realize(G)
        elapsed = time.monotonic() - t0
        assert elapsed <= TIME_LIMIT, f"fan {n} took {elapsed:.1f}s"
        assert res.status == "REALIZED", f"fan {n}: {res.status}"
        assert certify(G, res.certificate.outer_face, res.certificate.points).ok


# --- criterion 8: certifier adversarial suite ---------------------------------

def _expected_step(H, f_star, points):
    """Independent prediction of the first certification step to fail."""
    if len(points) != H.n:
        return "POINT_COUNT"
    pts = [pt(x, y) for x, y in points]
    if not oracle.general_position_check(pts).ok:
        return "NOT_GENERAL_POSITION"
    dt = oracle.delaunay(pts)
    got = {tuple(sorted((a + 1, b + 1))) for a, b in dt.edges}
    if got != set(H.edge_pairs()):
        return "EDGE_MISMATCH"
    hull = [i + 1 for i in dt.hull]
    target = list(f_star)
    if _canon_cycle(hull) != _canon_cycle(target) and \
            _canon_cycle(hull) != _canon_cycle(list(reversed(target))):
        return "HULL_MISMATCH"
    return None


def test_c8_certifier_mutations(corpus):
    rejected = 0
    for case in _realized(corpus):
        if rejected >= 30:
            break
        cert = case["result"].certificate
        H = reembed_with_outer_face(case["G"], cert.outer_face)
        base = list(cert.points)
        span = max(abs(c) for p in base for c in p)
        mutations = [
            base[:-1],                                     # dropped point
            [base[1]] + base[1:],                          # duplicated point
            [base[1], base[0]] + base[2:],                 # label swap
            [(span * 3, span * 3)] + base[1:],             # point moved far away
            [(x // 2, y // 2) for x, y in base],           # truncated coordinates
        ]
        for mutated in mutations:
            expected = _expected_step(H, cert.outer_face, mutated)
            if expected is None:
                continue   # mutation happened to land on another realization
            res = certify(H, cert.outer_face, mutated)
            assert not res.ok
            assert res.failed_step == expected, \
                f"{res.failed_step} != {expected} (n={case['n']})"
            rejected += 1
    assert rejected >= 30, f"only {rejected} informative mutations"


# --- criterion 9: gradient check ----------------------------------------------

def test_c9_gradient_finite_differences():
    pts = [pt(0, 0), pt(10, 0), pt(4, 9), pt(5, 3)]
    k4 = oracle.as_plane_triangulation(oracle.delaunay(pts), pts)
    rng = np.random.default_rng(5)
    for system in (build_const(k4), build_constsqu(k4)):
        comp = CompiledSystem(system)
        for _ in range(50):
            vec = rng.uniform(-7, 7, comp.nv)
            _, grad = comp.loss_grad(vec, margin=1.0)
            h = 1e-4
            for idx in rng.choice(comp.nv, size=4, replace=False):
                up = vec.copy(); up[idx] += h
                dn = vec.copy(); dn[idx] -= h
                fd = (comp.loss(up, 1.0) - comp.loss(dn, 1.0)) / (2 * h)
                denom = max(1.0, abs(grad[idx]), abs(fd))
                assert abs(grad[idx] - fd) / denom < 1e-6


# --- criterion 10: determinism --------------------------------------------------

def test_c10_determinism(corpus):
    for case in _realized(corpus)[:3]:
        res2 = realize(case["G"])
        assert res2.status == "REALIZED"
        a = formats.certificate_to_json(case["result"].certificate).encode()
        b = formats.certificate_to_json(res2.certificate).encode()
        assert a == b
    G = fan_triangulation(6)
    assert system_to_json(build_const(G)) == system_to_json(build_const(G))
    assert system_to_smtlib2(build_constsqu(G)) == system_to_smtlib2(build_constsqu(G))
    p1, G1 = random_instance(7, 123)
    p2, G2 = random_instance(7, 123)
    assert p1 == p2 and formats.graph_to_json(G1) == formats.graph_to_json(G2)
