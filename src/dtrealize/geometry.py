"""Exact rational plane geometry: the predicates every other module trusts.

Every predicate is exact over int or ``fractions.Fraction`` coordinates,
never float; callers bridge floats in via :func:`rationalize`. The
predicates only add, multiply and compare, so they run on Python ints as
they are, which is far faster: ``con_poly`` (orientation), ``dist_sq``,
``convex_hull``, ``circumcenter_homogeneous`` and ``witness_centers``. The
homogeneous circumcenter is the one circle test: the oracle and ``certify``
compare squared distances from it, scaled by d^2. The untrusted search also
runs the multiply-only helpers on floats (``con_poly``, as the stencil
evaluator's orientation form on numpy arrays, and ``circumcenter_homogeneous``
and ``witness_centers``, for its start and its float radius); nothing float
is trusted.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

Rat = Fraction


class GeometryError(ValueError):
    pass


class NonFinite(GeometryError):
    """Raised when a float to be rationalized is NaN or infinite."""


class AllCollinear(GeometryError):
    """Raised by convex_hull when no triangle exists in the input."""


class RatPoint(NamedTuple):
    x: Rat
    y: Rat


def pt(x, y) -> RatPoint:
    """Build a RatPoint from anything Fraction accepts (int, str "a/b", Fraction)."""
    return RatPoint(Fraction(x), Fraction(y))


def con_poly(p0: RatPoint, p1: RatPoint, p2: RatPoint) -> Rat:
    """Orientation form deciding the turn at p1 along p0 -> p1 -> p2.

    Positive means a right (clockwise) turn, negative a left turn,
    zero collinear.
    """
    x0, y0 = p0
    x1, y1 = p1
    x2, y2 = p2
    return x2 * y1 - x2 * y0 - x0 * y1 - x1 * y2 + x1 * y0 + x0 * y2


def dist_sq(p: RatPoint, q: RatPoint) -> Rat:
    return (p.x - q.x) ** 2 + (p.y - q.y) ** 2


def circumcenter_homogeneous(a: RatPoint, b: RatPoint, c: RatPoint) -> tuple[Rat, Rat, Rat]:
    """The point equidistant from a, b and c as (x, y, d), the point being
    (x/d, y/d). It only multiplies, so on ints it stays in ints; d is zero
    for a collinear triple."""
    (ax, ay), (bx, by), (cx, cy) = a, b, c
    d = 2 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    a2, b2, c2 = ax * ax + ay * ay, bx * bx + by * by, cx * cx + cy * cy
    return (a2 * (by - cy) + b2 * (cy - ay) + c2 * (ay - by),
            a2 * (cx - bx) + b2 * (ax - cx) + c2 * (bx - ax), d)


def witness_centers(points: Sequence[tuple], faces: Iterable[tuple[int, int, int]]
                    ) -> dict[tuple[int, int], tuple[Rat, Rat, Rat]]:
    """Center of a witness disc for every edge of the triangles ``faces``
    (0-based indices into ``points``), as (x, y, d) keyed by the sorted index
    pair, the center being (x/d, y/d).

    A face circumcircle touches the face's third vertex, so the center is
    moved into the open part of the edge's bisector: the midpoint of the two
    incident circumcenters for an edge of two faces, or, for an edge of one
    face, its circumcenter pushed away from the third vertex by the edge's
    length. Like :func:`circumcenter_homogeneous` it only multiplies and
    adds; d is zero when an incident face is collinear.
    """
    faces_of_edge: dict[tuple[int, int], list[tuple[int, int, int]]] = {}
    for f in faces:
        for a in range(3):
            e = tuple(sorted((f[a], f[(a + 1) % 3])))
            faces_of_edge.setdefault(e, []).append(f)
    centers = {}
    for e, tris in faces_of_edge.items():
        ccs = [circumcenter_homogeneous(*(points[v] for v in t)) for t in tris]
        if len(ccs) >= 2:
            (x0, y0, d0), (x1, y1, d1) = ccs[:2]
            centers[e] = (x0 * d1 + x1 * d0, y0 * d1 + y1 * d0, 2 * d0 * d1)
            continue
        (x0, y0, d), = ccs
        (ix, iy), (jx, jy) = points[e[0]], points[e[1]]
        ax, ay = points[next(v for v in tris[0] if v not in e)]
        # the edge turned by a right angle, as long as the edge, pointing
        # away from the third vertex
        nx, ny = iy - jy, jx - ix
        if nx * (2 * ax - ix - jx) + ny * (2 * ay - iy - jy) > 0:
            nx, ny = -nx, -ny
        centers[e] = (x0 + nx * d, y0 + ny * d, d)
    return centers


def scale_to_integers(points: Sequence[RatPoint]) -> list[tuple[int, int]]:
    """Clear denominators with the LCM of all coordinate denominators.

    Uniform positive scaling preserves constraint satisfaction, every circle
    relation and so the Delaunay edge set: the integer set realizes whatever
    the rational one did.
    """
    beta = math.lcm(*(c.denominator for p in points for c in p))
    return [(int(x * beta), int(y * beta)) for x, y in points]


def rationalize(x: float, max_denominator: int) -> Rat:
    """Best rational approximation to x with denominator <= max_denominator."""
    if isinstance(x, float) and not math.isfinite(x):
        raise NonFinite(f"cannot rationalize {x!r}")
    if max_denominator == 1:
        # the nearest integer, ties rounded down, as limit_denominator(1)
        # gives; x - n is exact
        n = math.floor(x)
        return Fraction(n + (x - n > 0.5))
    return Fraction(x).limit_denominator(max_denominator)


class HullResult(NamedTuple):
    hull: list[int]          # input indices, clockwise, strictly convex
    collinear_dropped: list[int]  # indices on the hull boundary but not corners


def convex_hull(points: Sequence[RatPoint]) -> HullResult:
    """Exact convex hull; clockwise corner indices.

    Collinear boundary points are excluded from the cycle and reported in
    ``collinear_dropped`` (a general-position warning for callers).
    """
    if len(points) < 3:
        raise AllCollinear("need at least 3 points")
    order = sorted(range(len(points)), key=lambda i: points[i])
    # Monotone chain; con_poly <= 0 drops left turns and collinear runs.
    def chain(idx: Iterable[int]) -> list[int]:
        out: list[int] = []
        for i in idx:
            while len(out) >= 2 and con_poly(points[out[-2]], points[out[-1]], points[i]) <= 0:
                out.pop()
            out.append(i)
        return out

    upper = chain(order)          # left-to-right, right turns: upper chain
    lower = chain(reversed(order))
    hull = upper[:-1] + lower[:-1]
    if len(hull) < 3:
        raise AllCollinear("all points collinear")
    hull_set = set(hull)
    dropped = []
    m = len(hull)
    for i, p in enumerate(points):
        if i in hull_set:
            continue
        for k in range(m):
            a, b = points[hull[k]], points[hull[(k + 1) % m]]
            if con_poly(a, p, b) == 0 and min(a.x, b.x) <= p.x <= max(a.x, b.x) \
                    and min(a.y, b.y) <= p.y <= max(a.y, b.y):
                dropped.append(i)
                break
    return HullResult(hull, sorted(dropped))
