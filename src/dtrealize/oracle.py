"""Exact Delaunay triangulation of a rational point set, by brute force.

This is the independent ground truth the certifier compares against: all
triples are tested with the exact empty-circumcircle predicate, O(n^4) but
completely trustworthy at desk scale. Exact over int or Fraction
coordinates, never float; integer points (as certify() passes them) are
many times faster. No incremental or flip-based shortcuts, so nothing here
shares code paths with the structures being certified.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cmp_to_key
from itertools import combinations
from typing import Sequence

from .geometry import RatPoint, CollinearTriple, con_poly, convex_hull, in_circle_sign
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
    """Exact check for duplicates, global collinearity and cocircular quadruples."""
    dup = tuple((i, j) for i, j in combinations(range(len(points)), 2)
                if points[i] == points[j])
    if dup:
        return PositionReport(False, duplicate_points=dup)
    collinear = all(con_poly(points[0], points[1], p) == 0 for p in points[2:])
    if collinear:
        return PositionReport(False, all_collinear=True)
    cocirc = []
    for i, j, k, l in combinations(range(len(points)), 4):
        a, b, c, q = points[i], points[j], points[k], points[l]
        try:
            if in_circle_sign(a, b, c, q) == 0:
                cocirc.append((i, j, k, l))
        except CollinearTriple:
            # a collinear triple cannot witness cocircularity of this quad
            continue
    return PositionReport(not cocirc, cocircular_quads=tuple(cocirc))


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
    n = len(points)
    faces = []
    for i, j, k in combinations(range(n), 3):
        a, b, c = points[i], points[j], points[k]
        if con_poly(a, b, c) == 0:
            continue
        if all(in_circle_sign(a, b, c, points[q]) < 0
               for q in range(n) if q not in (i, j, k)):
            faces.append((i, j, k))
    edges = frozenset(e for f in faces for e in combinations(f, 2))
    hull = convex_hull(points).hull
    return DelaunayResult(edges, tuple(sorted(faces)), tuple(hull))


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
