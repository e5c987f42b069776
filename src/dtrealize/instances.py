"""Instance generators and robustness radii for perturbation testing.

The radius computations mix exact squared quantities with certified
outward-rounded square roots (integer isqrt at a fixed binary scale), so
the returned perturbation radius is always a safe under-approximation.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import oracle
from .constraints import build_const, evaluate
from .geometry import RatPoint, con_poly, convex_hull, dist_sq
from .plane_graph import PlaneTriangulation, build_triangulation


class BoundTooSmall(ValueError):
    pass


class UnsatisfiedInput(ValueError):
    pass


_SQRT_SCALE = 1 << 64


def sqrt_lower(q: Fraction) -> Fraction:
    """Certified rational lower bound on sqrt(q), q >= 0."""
    if q < 0:
        raise ValueError("negative square")
    s2 = _SQRT_SCALE * _SQRT_SCALE
    return Fraction(math.isqrt(q.numerator * s2 // q.denominator), _SQRT_SCALE)


def sqrt_upper(q: Fraction) -> Fraction:
    """Certified rational upper bound on sqrt(q), q >= 0."""
    if q < 0:
        raise ValueError("negative square")
    s2 = _SQRT_SCALE * _SQRT_SCALE
    num = -((-q.numerator * s2) // q.denominator)   # ceil division
    return Fraction(math.isqrt(num) + 1, _SQRT_SCALE)


def random_instance(n: int, seed: int, bound: int = 1000,
                    max_attempts: int = 1000) -> tuple[list[tuple[int, int]], PlaneTriangulation]:
    """Integer points in [0, bound]^2 in general position, plus their DT.

    The returned triangulation is realizable by construction, which makes
    the pair a ground-truth instance for the pipeline.
    """
    if n < 4:
        raise ValueError("n must be at least 4")
    if bound < 0:
        raise BoundTooSmall(f"bound must not be negative, got {bound}")
    rng = np.random.default_rng(seed)
    for _ in range(max_attempts):
        raw = rng.integers(0, bound + 1, size=(n, 2))
        points = [(int(x), int(y)) for x, y in raw]
        # the oracle's predicates only multiply and compare: exact on ints
        pts = [RatPoint(x, y) for x, y in points]
        try:
            dt = oracle.delaunay(pts)
        except oracle.NotGeneralPosition:
            continue
        # collinear hull triples leave the middle point off the hull cycle
        # but on the outer boundary of the triangulation; reject those too
        if convex_hull(pts).collinear_dropped:
            continue
        G = oracle.as_plane_triangulation(dt, pts)
        return points, G
    raise BoundTooSmall(f"no general-position sample of {n} points in [0,{bound}]^2 "
                        f"after {max_attempts} attempts")


def fan_triangulation(n: int) -> PlaneTriangulation:
    """Apex vertex 1 joined to the path 2..n; outer face is the full cycle.

    Outerplanar, hence known realizable; used as a deterministic family.
    """
    if n < 4:
        raise ValueError("n must be at least 4")
    rotation: dict[int, list[int]] = {1: list(range(n, 1, -1))}
    rotation[2] = [3, 1]
    for k in range(3, n):
        rotation[k] = [k + 1, k - 1, 1]
    rotation[n] = [n - 1, 1]
    return build_triangulation(n, rotation, tuple(range(1, n + 1)))


def stacked_triangulation(n: int, seed: int) -> PlaneTriangulation:
    """A random stacked triangulation: starting from K4, vertices 5..n are
    each placed in a face drawn uniformly by ``random.Random(seed)`` and
    joined to its three corners. Maximal planar; many are not Delaunay
    realizable."""
    if n < 4:
        raise ValueError("n must be at least 4")
    rng = random.Random(seed)
    # counterclockwise faces, each directed edge on exactly one
    faces = [(1, 2, 3), (1, 3, 4), (1, 4, 2), (2, 4, 3)]
    for v in range(5, n + 1):
        i = rng.randrange(len(faces))
        a, b, c = faces[i]
        faces[i] = (a, b, v)
        faces += [(b, c, v), (c, a, v)]
    # face (u, v, w) puts w right after u in the rotation at v
    succ: dict[int, dict[int, int]] = {}
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


@dataclass(frozen=True)
class RadiusBounds:
    d_n: Fraction    # certified lower bounds
    d_c: Fraction
    d_a: Fraction

    @property
    def r(self) -> Fraction:
        return min(self.d_n, self.d_c, self.d_a) / 3


def radius_bounds(G: PlaneTriangulation, points: Sequence[RatPoint],
                  witness_centers: Sequence[tuple[Fraction, Fraction]]) -> RadiusBounds:
    """Perturbation bounds for an exactly-verified realization.

    ``witness_centers`` align with G.edge_pairs(). The input must satisfy
    the base constraint system exactly (witness radii are then well defined
    as the common endpoint distance).
    """
    edges = G.edge_pairs()
    values = {}
    for i, p in enumerate(points, start=1):
        values[("px", i)] = p.x
        values[("py", i)] = p.y
    for (i, j), (cx, cy) in zip(edges, witness_centers):
        values[("cx", i, j)] = cx
        values[("cy", i, j)] = cy
    if not evaluate(build_const(G), values).satisfied:
        raise UnsatisfiedInput("assignment does not satisfy the base system exactly")

    n = G.n
    d_n = sqrt_lower(min(dist_sq(points[i], points[j])
                         for i in range(n) for j in range(i + 1, n)))

    d_c = None
    for (i, j), (cx, cy) in zip(edges, witness_centers):
        c = RatPoint(cx, cy)
        radius_ub = sqrt_upper(dist_sq(c, points[i - 1]))
        for k in range(1, n + 1):
            if k in (i, j):
                continue
            gap = sqrt_lower(dist_sq(c, points[k - 1])) - radius_ub
            if d_c is None or gap < d_c:
                d_c = gap

    d_a = None
    outer = list(G.outer_face)
    for t in range(len(outer)):
        i, j = outer[t], outer[(t + 1) % len(outer)]
        length_ub = sqrt_upper(dist_sq(points[i - 1], points[j - 1]))
        for k in range(1, n + 1):
            if k in (i, j):
                continue
            area2 = abs(con_poly(points[i - 1], points[k - 1], points[j - 1]))
            d = area2 / length_ub
            if d_a is None or d < d_a:
                d_a = d

    assert d_c is not None and d_a is not None
    return RadiusBounds(d_n, d_c, d_a)


def _rational_unit_offset(rng: np.random.Generator) -> tuple[Fraction, Fraction]:
    """Rational direction strictly inside the unit disc."""
    while True:
        dx, dy = rng.uniform(-1, 1, size=2)
        if dx * dx + dy * dy <= 0.98:
            break
    denom = 1 << 20
    return (Fraction(round(dx * denom), denom), Fraction(round(dy * denom), denom))


def perturb_within_radius(points: Sequence[RatPoint], r: Fraction, seed: int,
                          trials: int) -> list[list[RatPoint]]:
    """Seeded point sets with every point moved by a certified offset <= r."""
    rng = np.random.default_rng(seed)
    out = []
    r2 = r * r
    for _ in range(trials):
        moved = []
        for p in points:
            ox, oy = _rational_unit_offset(rng)
            ox, oy = ox * r, oy * r
            while ox * ox + oy * oy > r2:
                ox, oy = ox * Fraction(9, 10), oy * Fraction(9, 10)
            moved.append(RatPoint(p.x + ox, p.y + oy))
        out.append(moved)
    return out


def perturb_within_halfbox(points: Sequence[RatPoint], seed: int,
                           trials: int) -> list[list[RatPoint]]:
    """Seeded per-coordinate offsets in [-1/2, 1/2].

    The first two trials pin every offset at exactly +1/2 and -1/2, the
    boundary of the allowed box.
    """
    rng = np.random.default_rng(seed)
    half = Fraction(1, 2)
    out = []
    for t in range(trials):
        if t == 0:
            out.append([RatPoint(p.x + half, p.y + half) if i % 2 == 0
                        else RatPoint(p.x - half, p.y - half)
                        for i, p in enumerate(points)])
            continue
        if t == 1:
            out.append([RatPoint(p.x + half, p.y - half) if i % 2 == 0
                        else RatPoint(p.x - half, p.y + half)
                        for i, p in enumerate(points)])
            continue
        moved = []
        for p in points:
            denom = 1 << 20
            ox = Fraction(round(rng.uniform(-0.5, 0.5) * denom), denom)
            oy = Fraction(round(rng.uniform(-0.5, 0.5) * denom), denom)
            ox = max(-half, min(half, ox))
            oy = max(-half, min(half, oy))
            moved.append(RatPoint(p.x + ox, p.y + oy))
        out.append(moved)
    return out
