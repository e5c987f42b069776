"""Exact integer geometry that the benchmark generates inputs and checks outputs with.

Nothing here imports dtrealize: points are tuples of Python ints (witness
centers are Fractions), so every verdict below is independent of the code
being measured. The brute-force Delaunay triangulation and the failed-step
prediction follow the certifier's definitions (no four cocircular points
anywhere, collinear hull points are not corners) but share no code with it.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Sequence

Point = tuple[int, int]


def orient(a: Point, b: Point, c: Point) -> int:
    """Twice the signed area of (a, b, c): > 0 counterclockwise, 0 collinear."""
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _det3(r0, r1, r2) -> int:
    return (r0[0] * (r1[1] * r2[2] - r1[2] * r2[1])
            - r0[1] * (r1[0] * r2[2] - r1[2] * r2[0])
            + r0[2] * (r1[0] * r2[1] - r1[1] * r2[0]))


def circle_form(a: Point, b: Point, c: Point) -> tuple[int, int, int, int]:
    """Integer coefficients (m, d, e, f) of the circle through a, b, c.

    The power of q with respect to the circle is (m |q|^2 + d qx + e qy + f) / m
    with m = |orient(a, b, c)|, so q is strictly inside exactly when
    m |q|^2 + d qx + e qy + f < 0. m == 0 means the points are collinear and
    there is no circle.
    """
    la, lb, lc = (p[0] * p[0] + p[1] * p[1] for p in (a, b, c))
    m = orient(a, b, c)
    d = -_det3((la, a[1], 1), (lb, b[1], 1), (lc, c[1], 1))
    e = -_det3((a[0], la, 1), (b[0], lb, 1), (c[0], lc, 1))
    f = -_det3((a[0], a[1], la), (b[0], b[1], lb), (c[0], c[1], lc))
    if m < 0:
        return -m, -d, -e, -f
    return m, d, e, f


def in_circle(a: Point, b: Point, c: Point, q: Point) -> int:
    """+1 if q is strictly inside the circle through a, b, c; 0 on it; -1 outside."""
    m, d, e, f = circle_form(a, b, c)
    if m == 0:
        raise ValueError("collinear triple has no circumcircle")
    power = m * (q[0] * q[0] + q[1] * q[1]) + d * q[0] + e * q[1] + f
    return (power < 0) - (power > 0)


def general_position(points: Sequence[Point]) -> bool:
    """No duplicates, not all collinear, no four points on one circle."""
    n = len(points)
    if len(set(points)) != n:
        return False
    if all(orient(points[0], points[1], p) == 0 for p in points[2:]):
        return False
    lifted = [(x, y, x * x + y * y) for x, y in points]
    for i, j, k in combinations(range(n), 3):
        m, d, e, f = circle_form(points[i], points[j], points[k])
        if m == 0:
            continue        # three collinear points never share a circle with a fourth
        for x, y, s in lifted[k + 1:]:
            if m * s + d * x + e * y + f == 0:
                return False
    return True


def convex_hull(points: Sequence[Point]) -> tuple[list[int], list[int]]:
    """Clockwise hull corner indices and the indices lying on hull edges.

    Monotone chain from the lexicographically smallest point, upper chain
    first, so the cycle starts where a left-to-right sweep starts.
    """
    order = sorted(range(len(points)), key=lambda i: points[i])

    def chain(idx) -> list[int]:
        out: list[int] = []
        for i in idx:
            while len(out) >= 2 and orient(points[out[-2]], points[out[-1]], points[i]) >= 0:
                out.pop()
            out.append(i)
        return out

    upper = chain(order)
    lower = chain(reversed(order))
    hull = upper[:-1] + lower[:-1]
    corners = set(hull)
    on_edge = []
    for i, p in enumerate(points):
        if i in corners:
            continue
        for t in range(len(hull)):
            a, b = points[hull[t]], points[hull[(t + 1) % len(hull)]]
            if orient(a, p, b) == 0 and min(a[0], b[0]) <= p[0] <= max(a[0], b[0]) \
                    and min(a[1], b[1]) <= p[1] <= max(a[1], b[1]):
                on_edge.append(i)
                break
    return hull, on_edge


def delaunay_faces(points: Sequence[Point]) -> list[tuple[int, int, int]]:
    """All index triples whose circumcircle is strictly empty (brute force)."""
    n = len(points)
    lifted = [(x, y, x * x + y * y) for x, y in points]
    faces = []
    for i, j, k in combinations(range(n), 3):
        m, d, e, f = circle_form(points[i], points[j], points[k])
        if m == 0:
            continue
        if all(m * s + d * x + e * y + f > 0
               for q, (x, y, s) in enumerate(lifted) if q not in (i, j, k)):
            faces.append((i, j, k))
    return faces


def canon_cycle(cycle: Sequence[int]) -> tuple[int, ...]:
    k = list(cycle).index(min(cycle))
    return tuple(cycle[k:]) + tuple(cycle[:k])


def same_cycle(a: Sequence[int], b: Sequence[int], reflect: bool) -> bool:
    if len(a) != len(b):
        return False
    if canon_cycle(a) == canon_cycle(b):
        return True
    return reflect and canon_cycle(a) == canon_cycle(list(reversed(b)))


def edge_pairs(rotation: dict[int, list[int]]) -> list[tuple[int, int]]:
    return sorted({(min(u, v), max(u, v)) for u in rotation for v in rotation[u]})


def face_cycles(rotation: dict[int, list[int]]) -> list[list[int]]:
    """Face orbits of a rotation system: dart (u, v) is followed by (v, w),
    w being the successor of u in the rotation at v."""
    succ = {v: {nb[t]: nb[(t + 1) % len(nb)] for t in range(len(nb))}
            for v, nb in rotation.items()}
    seen: set[tuple[int, int]] = set()
    faces = []
    for u in sorted(rotation):
        for v in rotation[u]:
            face = []
            a, b = u, v
            while (a, b) not in seen:
                seen.add((a, b))
                face.append(a)
                a, b = b, succ[b][a]
            if face:
                faces.append(face)
    return faces


def predict_failed_step(n: int, rotation: dict[int, list[int]], outer_face: Sequence[int],
                        points: Sequence[Point], reflect: bool = True) -> str | None:
    """First certification step that must fail for these points, or None.

    Steps in the certifier's order: point count, general position, Delaunay
    edge set, hull cycle. None means the points realize the graph.
    """
    if len(points) != n:
        return "POINT_COUNT"
    if not general_position(points):
        return "NOT_GENERAL_POSITION"
    got = {(min(a, b) + 1, max(a, b) + 1)
           for f in delaunay_faces(points) for a, b in combinations(f, 2)}
    if got != set(edge_pairs(rotation)):
        return "EDGE_MISMATCH"
    hull = [i + 1 for i in convex_hull(points)[0]]
    if not same_cycle(hull, list(outer_face), reflect):
        return "HULL_MISMATCH"
    return None


def check_realization(rotation: dict[int, list[int]], outer_face: Sequence[int],
                      points: Sequence[Point], reflect: bool = True) -> str | None:
    """Exact check that DT(points) is the triangulation with this outer face.

    Uses the Delaunay lemma instead of enumerating all triples: the points
    are in general position, every inner face has a strictly empty
    circumcircle, and the hull corners are the outer face with no point on a
    hull edge. Strictly empty triangles never overlap and there are as many
    inner faces as Delaunay triangles, so the faces are the triangulation.
    Returns None when the check passes, else the reason.
    """
    n = len(rotation)
    if len(points) != n:
        return f"{len(points)} points for {n} vertices"
    if not general_position(points):
        return "points not in general position"
    faces = face_cycles(rotation)
    inner = [f for f in faces if not same_cycle(f, list(outer_face), True)]
    if len(inner) != len(faces) - 1:
        return "outer face is not a face of the graph"
    for f in inner:
        if len(f) != 3:
            return f"inner face {f} is not a triangle"
        a, b, c = (points[v - 1] for v in f)
        if orient(a, b, c) == 0:
            return f"inner face {f} is degenerate"
        for q in range(1, n + 1):
            if q not in f and in_circle(a, b, c, points[q - 1]) >= 0:
                return f"point {q} is not strictly outside the circle of face {f}"
    hull, on_edge = convex_hull(points)
    if on_edge:
        return f"points {on_edge} lie on hull edges"
    if not same_cycle([i + 1 for i in hull], list(outer_face), reflect):
        return "hull is not the outer face"
    return None


def check_witness_centers(rotation: dict[int, list[int]], points: Sequence[Point],
                          centers: Sequence[tuple[Fraction, Fraction]]) -> str | None:
    """Each stored center is equidistant from its edge's endpoints and
    strictly farther from every other point (edges in sorted order)."""
    edges = edge_pairs(rotation)
    if len(centers) != len(edges):
        return f"{len(centers)} centers for {len(edges)} edges"
    for (i, j), (cx, cy) in zip(edges, centers):
        d2 = [(cx - x) ** 2 + (cy - y) ** 2 for x, y in points]
        if d2[i - 1] != d2[j - 1]:
            return f"edge ({i},{j}): center not equidistant from its endpoints"
        r2 = d2[i - 1]
        for k, dk in enumerate(d2, start=1):
            if k not in (i, j) and dk <= r2:
                return f"edge ({i},{j}): point {k} not strictly outside the witness disc"
    return None


def coord_bits(points: Sequence[Point]) -> int:
    return max(abs(c).bit_length() for p in points for c in p)
