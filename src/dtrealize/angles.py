"""Angle-space warm start: the angle LP, Rivin's volume maximisation and a
face-by-face layout.

Every Delaunay realization of a triangulation H with outer face ``H.outer_face``
has triangle angles that satisfy, in units of pi and with some t > 0:

- every angle is at least t;
- the three angles of each inner face sum to 1;
- the angles at each interior vertex sum to 2;
- the angles at each hull vertex, plus t, sum to at most 1 (a strictly
  convex hull corner);
- for each interior edge, the two angles opposite it, plus t, sum to at most
  1 (the edge is locally Delaunay).

``solve_angle_lp`` maximises t (capped at 1/4) over these constraints with a
dense primal-dual interior-point method. From a point with t > 0,
``maximise_volume`` holds each edge's opposite-angle sum fixed and maximises
Rivin's volume, the sum of Lobachevsky functions of the angles (Rivin, Ann.
Math. 139, 1994); at the maximum, the law-of-sines edge lengths agree across
faces, so ``layout`` can place the triangles one by one. Like the rest of the
search, nothing here is trusted: the placement only seeds the ConstSqu solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .plane_graph import PlaneTriangulation

# the LP's cap on t, in units of pi
T_CAP = 0.25
# interior-point stopping tolerance on the scaled residuals and the duality gap
LP_TOL = 1e-9
# diagonal shift of the normal equations, relative to their largest entry: at
# a degenerate optimum (t is attained by many rows at once) they go singular
LP_REGULARIZATION = 1e-14
LP_MAX_ITERATIONS = 200
# Newton stops once no angle moves by more than this many radians
NEWTON_TOL = 1e-10
NEWTON_MAX_ITERATIONS = 100
# directional-derivative evaluations per line search
LINE_SEARCH_STEPS = 30


@dataclass(frozen=True)
class Corners:
    """The corners of the inner faces of a triangulation.

    Corner ``3 * f + k`` is the corner of face ``faces[f]`` at vertex
    ``faces[f][k]``; every face is listed counterclockwise.
    ``opposite[e]`` lists the corners opposite edge ``e`` (a sorted vertex
    pair): two for an interior edge, one for a hull edge.
    """
    faces: tuple[tuple[int, int, int], ...]
    at_vertex: dict[int, list[int]]
    opposite: dict[tuple[int, int], list[int]]


def corners(H: PlaneTriangulation) -> Corners:
    faces = tuple(tuple(f) for f in H.inner_faces())
    at_vertex: dict[int, list[int]] = {v: [] for v in range(1, H.n + 1)}
    opposite: dict[tuple[int, int], list[int]] = {}
    for fi, f in enumerate(faces):
        for k in range(3):
            at_vertex[f[k]].append(3 * fi + k)
            u, w = f[(k + 1) % 3], f[(k + 2) % 3]
            opposite.setdefault((min(u, w), max(u, w)), []).append(3 * fi + k)
    return Corners(faces, at_vertex, opposite)


@dataclass(frozen=True)
class AngleLP:
    """The angle LP in standard form: minimise ``c @ x`` subject to
    ``A @ x == b`` and ``x >= 0``.

    The columns are, in order: one per corner, ``angle - t``; then
    ``t + 1`` at column ``tau`` (t >= -1 holds at the optimum, since a
    planar straight-line embedding has every angle in (0, 1) and so meets
    every inequality at t = -1); then one slack per inequality row.
    """
    A: np.ndarray
    b: np.ndarray
    c: np.ndarray
    tau: int


def angle_lp(H: PlaneTriangulation, cs: Corners) -> AngleLP:
    """The LP of the module docstring for H and its outer face.

    A row ``sum(angles) + k t (<=|==) r`` over corners becomes
    ``sum(angle - t) + (m + k) (t + 1) (+ slack) == r + m + k``, where m is
    the number of corners in the row.
    """
    n_corners = 3 * len(cs.faces)
    tau = n_corners
    hull = set(H.outer_face)
    rows: list[tuple[list[int], int, float, bool]] = []   # corners, k, r, has slack
    for f in range(len(cs.faces)):
        rows.append(([3 * f, 3 * f + 1, 3 * f + 2], 0, 1.0, False))
    for v in range(1, H.n + 1):
        if v in hull:
            rows.append((cs.at_vertex[v], 1, 1.0, True))
        else:
            rows.append((cs.at_vertex[v], 0, 2.0, False))
    for e in sorted(cs.opposite):
        if len(cs.opposite[e]) == 2:
            rows.append((cs.opposite[e], 1, 1.0, True))
    rows.append(([], 1, T_CAP, True))
    n_slack = sum(r[3] for r in rows)
    A = np.zeros((len(rows), n_corners + 1 + n_slack))
    b = np.empty(len(rows))
    slack = n_corners + 1
    for i, (cols, k, r, has_slack) in enumerate(rows):
        A[i, cols] = 1.0
        A[i, tau] = len(cols) + k
        b[i] = r + len(cols) + k
        if has_slack:
            A[i, slack] = 1.0
            slack += 1
    c = np.zeros(A.shape[1])
    c[tau] = -1.0
    return AngleLP(A, b, c, tau)


def interior_point(A: np.ndarray, b: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, bool]:
    """Mehrotra's predictor-corrector method for min c x, A x = b, x >= 0.

    A must have full row rank. Returns the last primal iterate and whether
    it met ``LP_TOL`` (Nocedal and Wright, Numerical Optimization, 14.2).
    """
    m, n = A.shape
    AAT = A @ A.T
    x = A.T @ np.linalg.solve(AAT, b)
    y = np.linalg.solve(AAT, A @ c)
    s = c - A.T @ y
    x += max(-1.5 * x.min(), 0.0)
    s += max(-1.5 * s.min(), 0.0)
    xs = x @ s
    x += 0.5 * xs / s.sum()
    s += 0.5 * xs / x.sum()
    b_scale = 1.0 + np.abs(b).max()
    c_scale = 1.0 + np.abs(c).max()

    def step_length(v: np.ndarray, dv: np.ndarray) -> float:
        shrinking = dv < 0
        return min(1.0, float(np.min(-v[shrinking] / dv[shrinking]))) if shrinking.any() else 1.0

    for _ in range(LP_MAX_ITERATIONS):
        rb = A @ x - b
        rc = A.T @ y + s - c
        mu = x @ s / n
        if (np.abs(rb).max() <= LP_TOL * b_scale and np.abs(rc).max() <= LP_TOL * c_scale
                and mu <= LP_TOL):
            return x, True
        d = x / s
        M = (A * d) @ A.T
        M[np.diag_indices(m)] += LP_REGULARIZATION * M.diagonal().max()

        def direction(rxs: np.ndarray):
            dy = np.linalg.solve(M, -rb - A @ (rxs / s + d * rc))
            ds = -rc - A.T @ dy
            return (rxs - x * ds) / s, dy, ds

        try:
            dx, dy, ds = direction(-x * s)
            ap, ad = step_length(x, dx), step_length(s, ds)
            mu_aff = (x + ap * dx) @ (s + ad * ds) / n
            sigma = (mu_aff / mu) ** 3
            dx, dy, ds = direction(-x * s - dx * ds + sigma * mu)
        except np.linalg.LinAlgError:
            break
        eta = 0.995
        ap, ad = min(1.0, eta * step_length(x, dx)), min(1.0, eta * step_length(s, ds))
        x = x + ap * dx
        y = y + ad * dy
        s = s + ad * ds
    return x, False


@dataclass(frozen=True)
class AngleLPResult:
    t_star: float             # the LP optimum, in units of pi
    angles: np.ndarray        # per corner, in units of pi
    converged: bool


def solve_angle_lp(H: PlaneTriangulation, cs: Corners) -> AngleLPResult:
    lp = angle_lp(H, cs)
    x, converged = interior_point(lp.A, lp.b, lp.c)
    t = float(x[lp.tau]) - 1.0
    return AngleLPResult(t, x[:lp.tau] + t, converged)


def _volume_constraints(cs: Corners) -> np.ndarray:
    """Rows of the Newton step's equality constraints: face sums, then edge
    sums in sorted edge order. Face 0's row is left out: the face rows and
    the edge rows both sum to the sum of all angles, so keeping all of them
    would make the KKT matrix singular."""
    edges = sorted(cs.opposite)
    B = np.zeros((len(cs.faces) - 1 + len(edges), 3 * len(cs.faces)))
    for f in range(1, len(cs.faces)):
        B[f - 1, 3 * f:3 * f + 3] = 1.0
    for i, e in enumerate(edges, start=len(cs.faces) - 1):
        B[i, cs.opposite[e]] = 1.0
    return B


def maximise_volume(cs: Corners, angles: np.ndarray) -> np.ndarray | None:
    """Rivin's volume maximisation, in radians, from LP angles in units of pi.

    Each face is first scaled to sum to exactly pi. The opposite-angle sum
    of every edge is then held at its value there, and sum(Lobachevsky(x))
    is maximised by Newton's method on the equality-constrained problem:
    gradient -log(2 sin x), Hessian diag(-cot x), concave on each face's
    plane of constant sum. The line search keeps every angle positive and
    stops on the sign of the directional derivative, so the volume itself is
    never evaluated. Returns None when Newton does not converge.
    """
    x = math.pi * angles.reshape(-1, 3)
    x = (x * (math.pi / x.sum(axis=1, keepdims=True))).ravel()
    if not np.all(x > 0):
        return None
    B = _volume_constraints(cs)
    n = len(x)
    K = np.zeros((n + len(B), n + len(B)))
    K[:n, n:] = B.T
    K[n:, :n] = B
    rhs = np.zeros(n + len(B))
    diag = np.diag_indices(n)
    for _ in range(NEWTON_MAX_ITERATIONS):
        hess = -1.0 / np.tan(x)
        grad = -np.log(2.0 * np.sin(x))
        K[diag] = hess
        rhs[:n] = -grad
        try:
            dx = np.linalg.solve(K, rhs)[:n]
        except np.linalg.LinAlgError:
            return None
        if not np.all(np.isfinite(dx)):
            return None
        if np.abs(dx).max() <= NEWTON_TOL:
            return x
        # the volume's slope along dx: -dx H dx at 0, plus the change of the
        # gradient, so that rounding in the KKT solve does not swamp it
        # near the optimum
        decrement = -float(dx @ (hess * dx))
        if not decrement > 0:
            return None

        def slope(step: float) -> float:
            return decrement + float((-np.log(2.0 * np.sin(x + step * dx)) - grad) @ dx)

        shrinking = dx < 0
        step = min(1.0, 0.99 * float(np.min(-x[shrinking] / dx[shrinking]))) \
            if shrinking.any() else 1.0
        # the volume is concave along dx, so its slope falls from
        # `decrement` > 0 at step 0. Illinois regula falsi on the slope, over
        # [0, step], stops at the first step where the slope is still
        # non-negative: the volume has risen all the way there
        f_step, f_zero = slope(step), decrement
        for _ in range(LINE_SEARCH_STEPS):
            if f_step >= 0:
                break
            step *= f_zero / (f_zero - f_step)
            f_step = slope(step)
            f_zero /= 2
        else:
            return None
        x = x + step * dx
    return None


def layout(n: int, cs: Corners, x: np.ndarray) -> list[tuple[float, float]]:
    """Place the faces one by one, breadth first from face 0.

    A face reached across an edge whose endpoints are placed gets its third
    vertex from the angles at those endpoints and the law of sines; a vertex
    keeps the position it got first. Face 0's first edge has unit length.
    """
    across: dict[tuple[int, int], int] = {}
    for fi, f in enumerate(cs.faces):
        for k in range(3):
            across[(f[k], f[(k + 1) % 3])] = fi
    pos: dict[int, complex] = {}
    a, b, _ = cs.faces[0]
    pos[a], pos[b] = 0j, 1 + 0j
    seen = {0}
    queue = [0]
    for fi in queue:
        f = cs.faces[fi]
        for k in range(3):
            p, q, r = f[k], f[(k + 1) % 3], f[(k + 2) % 3]
            if p in pos and q in pos and r not in pos:
                ap, aq, ar = x[3 * fi + k], x[3 * fi + (k + 1) % 3], x[3 * fi + (k + 2) % 3]
                # counterclockwise p -> q -> r: r lies left of p -> q
                pos[r] = pos[p] + (pos[q] - pos[p]) * complex(math.cos(ap), math.sin(ap)) \
                    * (math.sin(aq) / math.sin(ar))
        for k in range(3):
            g = across.get((f[(k + 1) % 3], f[k]))
            if g is not None and g not in seen:
                seen.add(g)
                queue.append(g)
    return [(pos[v].real, pos[v].imag) for v in range(1, n + 1)]
