"""Exact Delaunay triangulation of a rational point set, by brute force.

One circle test, ``geometry.circumcenter_homogeneous``, on the points scaled
to integers (circle relations survive uniform scaling): q is outside the
circle through a, b, c when it is farther from its center than a is.
``general_position_check`` runs in O(n^3) time and O(n) extra memory;
``delaunay`` keeps the triples with every other point outside, O(n^4) at
worst. Exact over int or Fraction coordinates, never float.

``certify``'s witness step makes the same comparison, so the oracle's
independence now comes from the lifted in-circle determinant the tests
cross-check it against (``tests/reference_geometry.py``) and from the judge
in ``perfbench/exact.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cmp_to_key
from itertools import combinations
from typing import Sequence

from .geometry import (RatPoint, circumcenter_homogeneous, con_poly, convex_hull,
                       scale_to_integers)
from .plane_graph import PlaneTriangulation, build_triangulation


class NotGeneralPosition(ValueError):
    pass


@dataclass(frozen=True)
class PositionReport:
    ok: bool
    duplicate_points: tuple[tuple[int, int], ...] = ()
    all_collinear: bool = False
    cocircular_quads: tuple[tuple[int, int, int, int], ...] = ()


def general_position_check(points: Sequence[RatPoint]) -> PositionReport:
    """Exact check for duplicates, global collinearity and cocircular quadruples.

    Two non-collinear triples that share the pair i < j lie on one circle
    exactly when their circumcenters are equal, compared reduced to lowest
    terms with d > 0. So each cocircular quadruple is found once, from its
    two smallest indices; a collinear triple (d = 0) has no circle.
    """
    dup = tuple((i, j) for i, j in combinations(range(len(points)), 2)
                if points[i] == points[j])
    if dup:
        return PositionReport(False, duplicate_points=dup)
    if all(con_poly(points[0], points[1], p) == 0 for p in points[2:]):
        return PositionReport(False, all_collinear=True)
    pts = scale_to_integers(points)
    n = len(pts)
    cocirc = []
    for i, j in combinations(range(n), 2):
        groups: dict[tuple[int, int, int], list[int]] = {}
        for k in range(j + 1, n):
            x, y, d = circumcenter_homogeneous(pts[i], pts[j], pts[k])
            if d:
                g = math.gcd(x, y, d) if d > 0 else -math.gcd(x, y, d)
                groups.setdefault((x // g, y // g, d // g), []).append(k)
        cocirc += [(i, j, k, l) for ks in groups.values() for k, l in combinations(ks, 2)]
    return PositionReport(not cocirc, cocircular_quads=tuple(sorted(cocirc)))


@dataclass(frozen=True)
class DelaunayResult:
    edges: frozenset[tuple[int, int]]       # 0-based sorted index pairs
    faces: tuple[tuple[int, int, int], ...]  # bounded faces, sorted triples
    hull: tuple[int, ...]                    # clockwise index cycle


def delaunay(points: Sequence[RatPoint]) -> DelaunayResult:
    """All triples with strictly empty circumcircle, plus their edges.

    In general position those triangles tile the convex hull, so they are
    exactly the bounded Delaunay faces.
    """
    report = general_position_check(points)
    if not report.ok:
        raise NotGeneralPosition(report)
    pts = scale_to_integers(points)
    n = len(pts)
    faces = []
    for f in combinations(range(n), 3):
        x, y, d = circumcenter_homogeneous(*(pts[v] for v in f))
        if d == 0:
            continue
        ax, ay = pts[f[0]]
        r2 = (x - d * ax) ** 2 + (y - d * ay) ** 2
        if all((x - d * px) ** 2 + (y - d * py) ** 2 > r2
               for q, (px, py) in enumerate(pts) if q not in f):
            faces.append(f)
    edges = frozenset(e for f in faces for e in combinations(f, 2))
    hull = convex_hull(points).hull
    return DelaunayResult(edges, tuple(faces), tuple(hull))


def _ccw_sort(points: Sequence[RatPoint], center: int, nbrs: list[int]) -> list[int]:
    """Sort neighbor indices counterclockwise around points[center], exactly."""
    p = points[center]

    def half(i: int) -> int:
        d = points[i]
        if d.y > p.y or (d.y == p.y and d.x > p.x):
            return 0
        return 1

    def cmp(i: int, j: int) -> int:
        hi, hj = half(i), half(j)
        if hi != hj:
            return hi - hj
        # con_poly(p, pi, pj) < 0 means a left turn p->pi->pj, i.e. pj is
        # counterclockwise of pi around p.
        c = con_poly(p, points[i], points[j])
        return -1 if c < 0 else (1 if c > 0 else 0)

    return sorted(nbrs, key=cmp_to_key(cmp))


def as_plane_triangulation(result: DelaunayResult,
                           points: Sequence[RatPoint]) -> PlaneTriangulation:
    """Rebuild the combinatorial triangulation, 1-based identity labeling."""
    n = len(points)
    adj: dict[int, list[int]] = {i: [] for i in range(n)}
    for i, j in result.edges:
        adj[i].append(j)
        adj[j].append(i)
    rotation = {i + 1: [j + 1 for j in _ccw_sort(points, i, adj[i])] for i in range(n)}
    outer = tuple(i + 1 for i in result.hull)
    return build_triangulation(n, rotation, outer)
