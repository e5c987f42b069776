"""Brute-force Delaunay oracle: the ground truth of the whole package."""

import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from dtrealize import geometry, oracle
from dtrealize.geometry import RatPoint, con_poly, convex_hull, pt
from dtrealize.plane_graph import _same_cycle, validate_triangulation
from reference_geometry import CollinearTriple, in_circle_sign


def test_general_position_duplicates():
    report = oracle.general_position_check([pt(0, 0), pt(1, 1), pt(0, 0), pt(2, 1)])
    assert not report.ok
    assert report.duplicate_points == ((0, 2),)


def test_general_position_all_collinear():
    report = oracle.general_position_check([pt(0, 0), pt(1, 1), pt(2, 2), pt(3, 3)])
    assert not report.ok
    assert report.all_collinear


def test_general_position_cocircular_square():
    report = oracle.general_position_check([pt(0, 0), pt(2, 0), pt(2, 2), pt(0, 2)])
    assert not report.ok
    assert report.cocircular_quads == ((0, 1, 2, 3),)


def test_general_position_ok():
    assert oracle.general_position_check([pt(0, 0), pt(4, 0), pt(1, 3), pt(2, 1)]).ok


def test_delaunay_quad_with_inner_point():
    # irregular convex quadrilateral (corners not cocircular) + inner point
    pts = [pt(0, 0), pt(10, 0), pt(11, 9), pt(1, 10), pt(5, 4)]
    dt = oracle.delaunay(pts)
    assert dt.edges == frozenset({(0, 1), (1, 2), (2, 3), (0, 3),
                                  (0, 4), (1, 4), (2, 4), (3, 4)})
    assert len(dt.faces) == 4
    assert set(dt.hull) == {0, 1, 2, 3}


def test_delaunay_rejects_degenerate():
    with pytest.raises(oracle.NotGeneralPosition):
        oracle.delaunay([pt(0, 0), pt(2, 0), pt(2, 2), pt(0, 2)])


def _random_general_position(rng, n):
    while True:
        pts = [pt(int(x), int(y)) for x, y in rng.integers(0, 500, size=(n, 2))]
        if oracle.general_position_check(pts).ok:
            return pts


def test_delaunay_euler_edge_count():
    rng = np.random.default_rng(7)
    for _ in range(10):
        n = int(rng.integers(4, 11))
        pts = _random_general_position(rng, n)
        dt = oracle.delaunay(pts)
        hull_result = convex_hull(pts)
        h = len(hull_result.hull) + len(hull_result.collinear_dropped)
        assert len(dt.edges) == 3 * n - 3 - h


def test_delaunay_faces_have_empty_circumcircles():
    rng = np.random.default_rng(11)
    pts = _random_general_position(rng, 9)
    dt = oracle.delaunay(pts)
    for i, j, k in dt.faces:
        for q in range(len(pts)):
            if q not in (i, j, k):
                assert in_circle_sign(pts[i], pts[j], pts[k], pts[q]) == -1


def test_as_plane_triangulation_valid_and_consistent():
    rng = np.random.default_rng(3)
    for _ in range(5):
        pts = _random_general_position(rng, 8)
        dt = oracle.delaunay(pts)
        G = oracle.as_plane_triangulation(dt, pts)
        assert validate_triangulation(G).ok
        assert {tuple(sorted((a + 1, b + 1))) for a, b in dt.edges} == set(G.edge_pairs())
        assert _same_cycle(G.outer_face, [i + 1 for i in dt.hull])
        # every DT face appears as an inner face
        inner = {tuple(sorted(f)) for f in G.inner_faces()}
        assert inner == {tuple(sorted((i + 1, j + 1, k + 1))) for i, j, k in dt.faces}


def _delaunay_or_report(points):
    try:
        return oracle.delaunay(points)
    except oracle.NotGeneralPosition as e:
        return e.args[0]


def test_delaunay_same_on_int_and_fraction_coordinates():
    rng = np.random.default_rng(19)
    # a wide range for general position, a tiny grid for duplicate points
    # and cocircular quadruples
    for bound, n in ((1 << 20, 9), (1 << 20, 12), (4, 6), (4, 7), (2, 5)):
        for _ in range(3):
            raw = [(int(x), int(y)) for x, y in rng.integers(0, bound + 1, size=(n, 2))]
            ints = [RatPoint(x, y) for x, y in raw]
            fracs = [pt(x, y) for x, y in raw]
            assert _delaunay_or_report(ints) == _delaunay_or_report(fracs)


def _reference_report(points):
    """The brute check over all quadruples, with the lifted determinant."""
    dup = tuple((i, j) for i, j in combinations(range(len(points)), 2)
                if points[i] == points[j])
    if dup:
        return oracle.PositionReport(False, duplicate_points=dup)
    if all(con_poly(points[0], points[1], p) == 0 for p in points[2:]):
        return oracle.PositionReport(False, all_collinear=True)
    cocirc = []
    for i, j, k, l in combinations(range(len(points)), 4):
        try:
            if in_circle_sign(points[i], points[j], points[k], points[l]) == 0:
                cocirc.append((i, j, k, l))
        except CollinearTriple:
            continue
    return oracle.PositionReport(not cocirc, cocircular_quads=tuple(cocirc))


def _reference_delaunay(points, report):
    """The brute Delaunay faces of points whose reference report is ``report``."""
    if not report.ok:
        return report
    n = len(points)
    faces = tuple(f for f in combinations(range(n), 3)
                  if con_poly(*(points[v] for v in f)) != 0
                  and all(in_circle_sign(*(points[v] for v in f), points[q]) < 0
                          for q in range(n) if q not in f))
    edges = frozenset(e for f in faces for e in combinations(f, 2))
    return oracle.DelaunayResult(edges, faces, tuple(convex_hull(points).hull))


# the lattice points of the circles x^2 + y^2 = 25 and x^2 + y^2 = 65
_CIRCLES = tuple([(x, y) for x in range(-8, 9) for y in range(-8, 9) if x * x + y * y == r2]
                 for r2 in (25, 65))


def _as_points(rng, raw):
    """Int points, or, one time in four, Fractions: raw over a random denominator."""
    if rng.integers(0, 4):
        return [RatPoint(x, y) for x, y in raw]
    den = int(rng.integers(1, 8))
    return [pt(Fraction(x, den), Fraction(y, den)) for x, y in raw]


def _random_sets(rng):
    """Seeded point sets for the cross-check: ints and Fractions, on grids
    small enough for duplicates and cocircular quadruples, with collinear
    runs and duplicated points planted, and subsets of lattice circles."""
    for _ in range(300):
        n = int(rng.integers(3, 13))
        bound = int(rng.choice([3, 6, 20, 1 << 20]))
        raw = [[int(x), int(y)] for x, y in rng.integers(-bound, bound + 1, size=(n, 2))]
        kind = int(rng.integers(0, 3))
        if kind == 1 and n >= 4:        # a collinear run of 3..n points
            run = int(rng.integers(3, n + 1))
            (x0, y0), (dx, dy) = raw[0], [int(v) for v in rng.integers(-3, 4, size=2)]
            raw[:run] = [[x0 + t * dx, y0 + t * dy] for t in range(run)]
        elif kind == 2:                 # a duplicated point
            raw[int(rng.integers(0, n))] = list(raw[int(rng.integers(0, n))])
        yield _as_points(rng, [raw[i] for i in rng.permutation(n)])
    assert [len(circle) for circle in _CIRCLES] == [12, 16]
    for circle in _CIRCLES:
        for _ in range(40):
            m = int(rng.integers(4, 9))
            on = [circle[i] for i in rng.choice(len(circle), size=m, replace=False)]
            noise = [(int(x), int(y)) for x, y in
                     rng.integers(-9, 10, size=(int(rng.integers(0, 5)), 2))]
            cx, cy = (int(v) for v in rng.integers(-50, 51, size=2))
            raw = [(x + cx, y + cy) for x, y in on + noise]
            yield _as_points(rng, [raw[i] for i in rng.permutation(len(raw))])


def test_circle_test_agrees_with_the_lifted_determinant():
    rng = np.random.default_rng(23)
    reports = set()
    for points in _random_sets(rng):
        want = _reference_report(points)
        assert oracle.general_position_check(points) == want
        assert _delaunay_or_report(points) == _reference_delaunay(points, want)
        reports.add((want.ok, bool(want.duplicate_points), want.all_collinear,
                     len(want.cocircular_quads) > 1))
    # every kind of report was reached, several cocircular quadruples included
    assert reports >= {(True, False, False, False), (False, True, False, False),
                       (False, False, True, False), (False, False, False, True)}


def test_general_position_is_one_circle_test_per_triple(monkeypatch):
    calls = {"circumcenter": 0, "con_poly": 0}

    def counting(name, f):
        def counted(*args):
            calls[name] += 1
            return f(*args)
        return counted

    # both modules' names, so that a predicate of either module is counted
    for module in (oracle, geometry):
        monkeypatch.setattr(module, "con_poly", counting("con_poly", geometry.con_poly))
        monkeypatch.setattr(module, "circumcenter_homogeneous",
                            counting("circumcenter", geometry.circumcenter_homogeneous),
                            raising=False)
    n = 9
    points = _random_general_position(np.random.default_rng(5), n)
    calls.update(circumcenter=0, con_poly=0)
    assert oracle.general_position_check(points).ok
    # C(n, 3) centers, and orientations only for the all-collinear test
    assert calls["circumcenter"] == math.comb(n, 3) and calls["con_poly"] <= n - 2
