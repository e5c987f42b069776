"""Instance generators, certified square roots, and perturbation bounds."""

from fractions import Fraction

import numpy as np
import pytest

from dtrealize import oracle
from dtrealize.geometry import convex_hull, pt
from dtrealize.instances import (BoundTooSmall, UnsatisfiedInput, fan_triangulation,
                                 perturb_within_halfbox, perturb_within_radius,
                                 radius_bounds, random_instance, sqrt_lower,
                                 sqrt_upper, stacked_triangulation)
from dtrealize.plane_graph import validate_triangulation
from dtrealize.realizer import certify, realize


def test_sqrt_bounds_bracket():
    for q in (Fraction(2), Fraction(49), Fraction(1, 3), Fraction(10**12),
              Fraction(17, 23)):
        lo, hi = sqrt_lower(q), sqrt_upper(q)
        assert lo * lo <= q <= hi * hi
        assert hi - lo < Fraction(1, 10**15)
    assert sqrt_lower(Fraction(0)) == 0
    with pytest.raises(ValueError):
        sqrt_lower(Fraction(-1))
    with pytest.raises(ValueError):
        sqrt_upper(Fraction(-1))


def test_sqrt_bounds_exact_squares():
    assert sqrt_lower(Fraction(49)) == 7
    assert sqrt_upper(Fraction(49)) > 7


def test_fan_structure():
    for n in (4, 7, 10):
        G = fan_triangulation(n)
        assert validate_triangulation(G).ok
        assert len(G.edge_pairs()) == 2 * n - 3
        assert len(G.inner_faces()) == n - 2
        assert G.outer_face == tuple(range(1, n + 1))
        # apex 1 touches everyone
        assert sorted(G.rotation[1]) == list(range(2, n + 1))
    with pytest.raises(ValueError):
        fan_triangulation(3)


def test_stacked_triangulation_structure():
    """A valid maximal planar graph, 3n - 6 edges, the same for one seed."""
    for n in (4, 5, 10, 30):
        for seed in range(5):
            G = stacked_triangulation(n, seed)
            assert validate_triangulation(G).ok
            assert len(G.outer_face) == 3
            assert len(G.edge_pairs()) == 3 * n - 6
            again = stacked_triangulation(n, seed)
            assert (again.rotation, again.outer_face) == (G.rotation, G.outer_face)
    assert len({tuple(stacked_triangulation(12, s).edge_pairs()) for s in range(5)}) > 1
    with pytest.raises(ValueError):
        stacked_triangulation(3, 0)


def test_random_instance_round_trip():
    points, G = random_instance(9, seed=2)
    assert len(points) == 9
    assert all(0 <= x <= 1000 and 0 <= y <= 1000 for x, y in points)
    assert validate_triangulation(G).ok
    # the generating points certify their own triangulation
    assert certify(G, G.outer_face, points).ok


def test_random_instance_deterministic():
    assert random_instance(6, seed=4)[0] == random_instance(6, seed=4)[0]


def _random_instance_on_fractions(n, seed, bound):
    """random_instance's sampling with every predicate run on Fraction points;
    also counts the samples rejected for general position and for collinear
    hull triples."""
    rng = np.random.default_rng(seed)
    rejected = [0, 0]
    while True:
        points = [(int(x), int(y)) for x, y in rng.integers(0, bound + 1, size=(n, 2))]
        pts = [pt(x, y) for x, y in points]
        if not oracle.general_position_check(pts).ok:
            rejected[0] += 1
        elif convex_hull(pts).collinear_dropped:
            rejected[1] += 1
        else:
            return points, oracle.as_plane_triangulation(oracle.delaunay(pts), pts), rejected


def test_random_instance_same_as_on_fractions():
    rejected = [0, 0]
    for n, seed, bound in ((6, 1002, 1000), (9, 1005, 1000), (12, 1008, 1000),
                           (7, 2, 6)):
        points, G = random_instance(n, seed, bound)
        ref_points, ref, ref_rejected = _random_instance_on_fractions(n, seed, bound)
        assert points == ref_points
        assert G.rotation == ref.rotation and G.outer_face == ref.outer_face
        rejected = [a + b for a, b in zip(rejected, ref_rejected)]
    assert all(rejected), rejected    # both rejection paths were taken


def test_random_instance_bound_too_small():
    with pytest.raises(BoundTooSmall):
        random_instance(10, seed=0, bound=2, max_attempts=5)
    with pytest.raises(BoundTooSmall):
        random_instance(8, seed=0, bound=-1)
    with pytest.raises(ValueError):
        random_instance(3, seed=0)


def _certified(n, seed):
    points, G = random_instance(n, seed)
    res = realize(G, warm_points=points)
    assert res.status == "REALIZED"
    cert = res.certificate
    pts = [pt(x, y) for x, y in cert.points]
    return G, pts, cert.witness_centers


def test_radius_bounds_positive_and_safe():
    G, pts, centers = _certified(6, 1)
    rb = radius_bounds(G, pts, centers)
    assert rb.d_n > 0 and rb.d_c > 0 and rb.d_a > 0
    assert rb.r == min(rb.d_n, rb.d_c, rb.d_a) / 3
    # lower bound property: r is below every exact quantity it bounds
    from dtrealize.geometry import dist_sq
    min_pair = min(dist_sq(pts[i], pts[j])
                   for i in range(len(pts)) for j in range(i + 1, len(pts)))
    assert (3 * rb.r) ** 2 <= min_pair


def test_radius_bounds_rejects_unsatisfying_input():
    G, pts, centers = _certified(5, 3)
    bad = [(Fraction(0), Fraction(0))] * len(centers)
    with pytest.raises(UnsatisfiedInput):
        radius_bounds(G, pts, bad)


def test_perturb_within_radius_respects_bound():
    G, pts, centers = _certified(5, 7)
    r = radius_bounds(G, pts, centers).r
    for moved in perturb_within_radius(pts, r, seed=0, trials=5):
        for p, q in zip(pts, moved):
            assert (p.x - q.x) ** 2 + (p.y - q.y) ** 2 <= r * r


def test_perturb_within_radius_preserves_dt():
    G, pts, centers = _certified(6, 9)
    r = radius_bounds(G, pts, centers).r
    want = {tuple(sorted((a + 1, b + 1)))
            for a, b in oracle.delaunay(pts).edges}
    for moved in perturb_within_radius(pts, r, seed=1, trials=3):
        got = {tuple(sorted((a + 1, b + 1)))
               for a, b in oracle.delaunay(moved).edges}
        assert got == want


def test_perturb_within_halfbox_bounds_and_boundary():
    pts = [pt(0, 0), pt(10, 0), pt(0, 10)]
    half = Fraction(1, 2)
    trials = perturb_within_halfbox(pts, seed=0, trials=4)
    assert len(trials) == 4
    for moved in trials:
        for p, q in zip(pts, moved):
            assert abs(p.x - q.x) <= half and abs(p.y - q.y) <= half
    # the first two trials sit exactly on the box boundary
    assert abs(trials[0][0].x - pts[0].x) == half
    assert abs(trials[1][0].y - pts[0].y) == half


def test_perturbations_deterministic():
    pts = [pt(0, 0), pt(8, 1)]
    a = perturb_within_halfbox(pts, seed=5, trials=3)
    b = perturb_within_halfbox(pts, seed=5, trials=3)
    assert a == b
    c = perturb_within_radius(pts, Fraction(1, 4), seed=5, trials=3)
    d = perturb_within_radius(pts, Fraction(1, 4), seed=5, trials=3)
    assert c == d
