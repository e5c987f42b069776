"""Exact predicate tests: everything else in the package trusts these.

The in-circle and circumcenter tests check the reference predicates of
``reference_geometry``, which the oracle is cross-checked against.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtrealize.geometry import (AllCollinear, NonFinite, RatPoint, con_poly, convex_hull,
                                dist_sq, pt, rationalize, witness_centers)
from reference_geometry import CollinearTriple, circumcenter, in_circle_sign

coords = st.integers(min_value=-50, max_value=50)
points = st.builds(pt, coords, coords)


def test_con_poly_known_turns():
    # (0,0) -> (1,0) -> (1,1) bends left: negative
    assert con_poly(pt(0, 0), pt(1, 0), pt(1, 1)) == -1
    assert con_poly(pt(0, 0), pt(0, 1), pt(1, 1)) == 1
    assert con_poly(pt(0, 0), pt(1, 1), pt(2, 2)) == 0


def test_con_poly_rational_inputs():
    a = RatPoint(Fraction(1, 3), Fraction(2, 7))
    b = RatPoint(Fraction(-5, 2), Fraction(0))
    c = RatPoint(Fraction(4), Fraction(-1, 6))
    assert con_poly(a, b, c) == -con_poly(c, b, a)


@given(points, points, points)
def test_con_poly_reversal_antisymmetry(a, b, c):
    assert con_poly(a, b, c) == -con_poly(c, b, a)


@given(points, points, points, coords, coords)
def test_con_poly_translation_invariant(a, b, c, dx, dy):
    sa = RatPoint(a.x + dx, a.y + dy)
    sb = RatPoint(b.x + dx, b.y + dy)
    sc = RatPoint(c.x + dx, c.y + dy)
    assert con_poly(sa, sb, sc) == con_poly(a, b, c)


@given(points, points, points, st.integers(min_value=1, max_value=9))
def test_con_poly_scaling_covariant(a, b, c, s):
    sa = RatPoint(a.x * s, a.y * s)
    sb = RatPoint(b.x * s, b.y * s)
    sc = RatPoint(c.x * s, c.y * s)
    assert con_poly(sa, sb, sc) == s * s * con_poly(a, b, c)


def test_in_circle_unit_square_cases():
    a, b, c = pt(0, 0), pt(2, 0), pt(0, 2)
    assert in_circle_sign(a, b, c, pt(1, 1)) == 1       # center of circle
    assert in_circle_sign(a, b, c, pt(2, 2)) == 0       # fourth corner, cocircular
    assert in_circle_sign(a, b, c, pt(3, 3)) == -1


def test_in_circle_orientation_independent():
    a, b, c, q = pt(0, 0), pt(4, 0), pt(1, 3), pt(2, 1)
    base = in_circle_sign(a, b, c, q)
    assert base == 1
    for tri in [(a, c, b), (b, a, c), (b, c, a), (c, a, b), (c, b, a)]:
        assert in_circle_sign(*tri, q) == base


def test_in_circle_collinear_raises():
    with pytest.raises(CollinearTriple):
        in_circle_sign(pt(0, 0), pt(1, 1), pt(2, 2), pt(5, 0))


def test_circumcenter_exact():
    c = circumcenter(pt(0, 0), pt(4, 0), pt(2, 2))
    assert c == pt(2, 0)
    assert dist_sq(c, pt(0, 0)) == dist_sq(c, pt(4, 0)) == dist_sq(c, pt(2, 2)) == 4


@given(points, points, points)
def test_circumcenter_equidistant(a, b, c):
    if con_poly(a, b, c) == 0:
        with pytest.raises(CollinearTriple):
            circumcenter(a, b, c)
        return
    cc = circumcenter(a, b, c)
    assert dist_sq(cc, a) == dist_sq(cc, b) == dist_sq(cc, c)


def test_rationalize():
    assert rationalize(0.5, 10) == Fraction(1, 2)
    assert rationalize(1 / 3, 10) == Fraction(1, 3)
    assert rationalize(-2.0, 1) == -2
    with pytest.raises(NonFinite):
        rationalize(float("nan"), 10)
    with pytest.raises(NonFinite):
        rationalize(float("inf"), 10)


def test_rationalize_to_integers_matches_limit_denominator():
    """Denominator 1 rounds to the nearest integer, ties down, without
    limit_denominator, and gives the same Fractions."""
    assert rationalize(2.5, 1) == 2 and rationalize(-2.5, 1) == -3
    rng = random.Random(7)
    xs = [k + 0.5 for k in range(-6, 6)] + [float(2**52 + 1), -float(2**52 + 1)]
    xs += [rng.uniform(-1e6, 1e6) for _ in range(500)] + [rng.uniform(-3, 3) for _ in range(500)]
    for x in xs:
        got = rationalize(x, 1)
        assert type(got) is Fraction
        assert got == Fraction(x).limit_denominator(1), x
    with pytest.raises(NonFinite):
        rationalize(float("-inf"), 1)


def test_witness_centers_in_ints_and_floats():
    # a square split by its diagonal 0-2: the diagonal's center is the
    # midpoint of the two (coinciding) circumcenters, each hull edge's center
    # is pushed one edge length outward from the square's center
    square = [(0, 0), (0, 2), (2, 2), (2, 0)]
    faces = [(0, 1, 2), (0, 2, 3)]
    expected = {(0, 2): (1, 1), (0, 1): (-1, 1), (1, 2): (1, 3), (2, 3): (3, 1),
                (0, 3): (1, -1)}
    exact = witness_centers(square, faces)
    assert {e: (Fraction(x, d), Fraction(y, d)) for e, (x, y, d) in exact.items()} == expected
    assert all(isinstance(c, int) for center in exact.values() for c in center)
    floats = witness_centers([(float(x), float(y)) for x, y in square], faces)
    assert {e: (x / d, y / d) for e, (x, y, d) in floats.items()} == expected
    # a collinear face has d = 0
    assert witness_centers([(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)], [(0, 1, 2)])[0, 1][2] == 0


@given(st.integers(-10**6, 10**6), st.integers(1, 10**4))
def test_rationalize_exact_when_denominator_fits(num, den):
    q = Fraction(num, den)
    assert rationalize(num / den, 10**9) == rationalize(float(q), 10**9)
    # q itself is representable under the bound, and the float is within
    # half an ulp, so the best approximation recovers q
    assert Fraction(float(q)).limit_denominator(10**9) == q


def test_convex_hull_square_clockwise():
    pts = [pt(0, 0), pt(2, 0), pt(2, 2), pt(0, 2), pt(1, 1)]
    res = convex_hull(pts)
    assert len(res.hull) == 4
    assert res.collinear_dropped == []
    # clockwise: consecutive triples turn right (positive con form)
    m = len(res.hull)
    for k in range(m):
        a, b, c = (pts[res.hull[(k + d) % m]] for d in range(3))
        assert con_poly(a, b, c) > 0


def test_convex_hull_reports_boundary_collinear():
    pts = [pt(0, 0), pt(4, 0), pt(2, 0), pt(2, 3)]
    res = convex_hull(pts)
    assert set(res.hull) == {0, 1, 3}
    assert res.collinear_dropped == [2]


def test_convex_hull_all_collinear_raises():
    with pytest.raises(AllCollinear):
        convex_hull([pt(0, 0), pt(1, 1), pt(2, 2), pt(3, 3)])
    with pytest.raises(AllCollinear):
        convex_hull([pt(0, 0), pt(1, 1)])


@settings(max_examples=60)
@given(st.lists(points, min_size=3, max_size=12, unique=True))
def test_convex_hull_contains_all_points(pts):
    try:
        res = convex_hull(pts)
    except AllCollinear:
        return
    m = len(res.hull)
    for i, p in enumerate(pts):
        if i in res.hull:
            continue
        # inside or on boundary of every clockwise hull edge
        for k in range(m):
            a, b = pts[res.hull[k]], pts[res.hull[(k + 1) % m]]
            assert con_poly(a, p, b) <= 0
