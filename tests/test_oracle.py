"""Brute-force Delaunay oracle: the ground truth of the whole package."""

import numpy as np
import pytest

from dtrealize import oracle
from dtrealize.geometry import RatPoint, convex_hull, in_circle_sign, pt
from dtrealize.plane_graph import _same_cycle, validate_triangulation


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
