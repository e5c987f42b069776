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

``lp_table`` holds the LP rows of all of a graph's triangular faces by their
structure, each column's row in each block of rows, and ``_cut`` turns
candidate outer faces into their LPs in that sparse form. ``_mehrotra``
maximises t (capped at 1/4) by Mehrotra's method on k >= 1 LPs of one layout
at once, one set of numpy calls per iteration, through a backend that holds
the LPs and solves their normal equations. ``face_lps`` yields the results
for all candidate outer faces of a graph: the first face's LP is solved
alone by ``solve_angle_lp`` with the dense backend ``_Dense`` (an LU of
A D A^T), the LPs of the faces after it (a maximal planar graph has 2n - 4
faces, all with LPs of one layout) in runs by ``lp_stacks.solve_angle_lps``
with a backend that eliminates the edge rows first: an LU of size 30 instead
of 53 on the 11-vertex Kleetope, but slower than the dense one on the small
LPs most calls solve. ``LP_STACK_BYTES`` bounds a run's arrays. Each result
carries the LP's dual with its angles, and ``dual_readings`` reads candidate
tough sets from it (README, "Refutation"). From a point with t > 0,
``maximise_volume`` holds each edge's opposite-angle sum fixed and maximises
Rivin's volume, the sum of Lobachevsky functions of the angles (Rivin, Ann.
Math. 139, 1994); at the maximum, the law-of-sines edge lengths agree across
faces, so ``layout`` can place the triangles one by one. Like the rest of the
search, nothing here is trusted: the placement only seeds the ConstSqu solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .plane_graph import PlaneTriangulation, _canon_cycle

# the LP's cap on t, in units of pi
T_CAP = 0.25
# interior-point stopping tolerance on the scaled residuals and the duality gap
LP_TOL = 1e-9
# diagonal shift of the normal equations, relative to their largest entry: at
# a degenerate optimum (t is attained by many rows at once) they go singular
LP_REGULARIZATION = 1e-14
LP_MAX_ITERATIONS = 200
# the most bytes one stacked run's arrays take (face_lps), counted per face by
# lp_stacks.lane_bytes: 54 KB a face on the 11-vertex Kleetope, whose 17 faces
# after the first fit one run (its realize call peaks at 0.91 MB, tracemalloc),
# 0.34 MB at n = 29 (three a run) and 2.6 MB at n = 83 (one a run)
LP_STACK_BYTES = 2 ** 20
# dual_readings reads a face's dual at each of these thresholds on |y|
DUAL_THRESHOLDS = (1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3)
# Newton stops once no angle moves by more than this many radians
NEWTON_TOL = 1e-10
NEWTON_MAX_ITERATIONS = 100
# directional-derivative evaluations per line search
LINE_SEARCH_STEPS = 30


@dataclass(frozen=True)
class Corners:
    """The corners of a list of triangular faces.

    Corner ``3 * f + k`` is the corner of face ``faces[f]`` at vertex
    ``faces[f][k]``; every face is listed counterclockwise.
    ``opposite[e]`` lists the corners opposite edge ``e`` (a sorted vertex
    pair): two for an edge of two of the faces, one for an edge of one.
    """
    faces: tuple[tuple[int, int, int], ...]
    at_vertex: dict[int, list[int]]
    opposite: dict[tuple[int, int], list[int]]


def corners(n: int, faces: Iterable[Sequence[int]]) -> Corners:
    """The corners of ``faces``, triangles over the vertices 1..n."""
    faces = tuple(tuple(f) for f in faces)
    at_vertex: dict[int, list[int]] = {v: [] for v in range(1, n + 1)}
    opposite: dict[tuple[int, int], list[int]] = {}
    for fi, f in enumerate(faces):
        for k in range(3):
            at_vertex[f[k]].append(3 * fi + k)
            u, w = f[(k + 1) % 3], f[(k + 2) % 3]
            opposite.setdefault((min(u, w), max(u, w)), []).append(3 * fi + k)
    return Corners(faces, at_vertex, opposite)


@dataclass(frozen=True)
class LPTable:
    """One graph's angle LP rows, over the corners ``cs`` of all its
    triangular faces, as if every vertex were interior and every edge of two
    faces interior: the face rows, the vertex rows, the cap on t, then the
    edge rows (sorted), with right-hand sides ``r``.

    The LP is in standard form, minimise -t subject to A x = b and x >= 0: a
    row ``sum(angles) + k t (<=|==) r`` over m corners becomes
    ``sum(angle - t) + (m + k) (t + 1) (+ slack) == r + m + k``. Its columns
    are each corner's ``angle - t``, then ``t + 1`` (t >= -1 holds at the
    optimum, since a planar straight-line embedding has every angle in (0, 1)
    and so meets every inequality at t = -1), then one slack for each row
    after the face rows; every nonzero but in column ``t + 1`` is 1, and a
    column has at most one in each block of rows (faces; vertices and the
    cap; edges). ``blocks[i, col]`` is that row in block i, or -1 (always for
    ``t + 1``).
    """
    cs: Corners
    blocks: np.ndarray
    r: np.ndarray
    face_row: dict[tuple[int, ...], int]
    edge_row: dict[tuple[int, int], int]


def lp_table(G: PlaneTriangulation) -> LPTable:
    cs = corners(G.n, [f for f in G.faces if len(f) == 3])
    edges = [e for e in sorted(cs.opposite) if len(cs.opposite[e]) == 2]
    nf, split = len(cs.faces), len(cs.faces) + G.n + 1
    m = split + len(edges)
    blocks = np.full((3, 2 * nf + 1 + m), -1)
    blocks[0, :3 * nf] = np.arange(3 * nf) // 3
    blocks[1, :3 * nf] = np.ravel(cs.faces) + nf - 1
    for i, e in enumerate(edges, start=split):
        blocks[2, cs.opposite[e]] = i
    # the slack of row i is column i + 2 nf + 1; block 1 ends with the cap
    block_1, edge_rows = np.arange(nf, split), np.arange(split, m)
    blocks[1, block_1 + 2 * nf + 1] = block_1
    blocks[2, edge_rows + 2 * nf + 1] = edge_rows
    r = np.array([1.0] * nf + [2.0] * G.n + [T_CAP] + [1.0] * len(edges))
    return LPTable(cs, blocks, r, {_canon_cycle(f): i for i, f in enumerate(cs.faces)},
                   {e: i for i, e in enumerate(edges, start=split)})


def _layout(table: LPTable, face: Sequence[int]) -> tuple[int, int, int, int]:
    """The shape of the LP of outer face ``face``: its rows m, its columns n,
    column tau and its first edge row. It is the table's LP without the
    face's own row, if any, and its three corners, and without the rows of
    the face's interior edges and their slacks; each face vertex has a slack."""
    own = _canon_cycle(face) in table.face_row
    inner = sum((min(u, w), max(u, w)) in table.edge_row for u, w in zip(face, face[1:] + face[:1]))
    faces, edges = len(table.cs.faces) - own, len(table.edge_row) - inner
    split = faces + len(table.cs.at_vertex) + 1
    return split + edges, 3 * faces + 2 + len(face) + edges, 3 * faces, split


def _cut(table: LPTable, faces: Sequence[Sequence[int]]) -> tuple:
    """The LPs of the outer faces ``faces``, held sparse: for each column but
    tau and each block of rows (faces; vertices and the cap; edges), the LP
    row of its nonzero, which is 1, and whether it has one, both (k, 3, n),
    where a block without one gives an arbitrary row; then column tau and b,
    both (k, m), tau, the first edge row and the table row of each LP row
    (k, m). Raises ``ValueError`` unless the LPs have one layout
    (``_layout``)."""
    nf, n = len(table.cs.faces), len(table.cs.at_vertex)
    slack = 2 * nf + 1   # the column of row i's slack is i + slack
    k = len(faces)
    # per face: its hull vertex rows, its edge rows and its own row, if any
    of_hull, hull, of_edge, edge, of_own, own = [], [], [], [], [], []
    for f, face in enumerate(faces):
        for u, w in zip(face, face[1:] + face[:1]):
            of_hull.append(f)
            hull.append(u + nf - 1)
            i = table.edge_row.get((u, w) if u < w else (w, u))
            if i is not None:
                of_edge.append(f)
                edge.append(i)
        j = table.face_row.get(_canon_cycle(face))
        if j is not None:
            of_own.append(f)
            own.append(j)
    of_hull, hull, of_edge, edge, of_own, own = (
        np.array(v, dtype=int) for v in (of_hull, hull, of_edge, edge, of_own, own))
    rows, cols = np.ones((k, len(table.r)), bool), np.ones((k, table.blocks.shape[1]), bool)
    cols[:, nf + slack:nf + n + slack] = False
    cols[of_hull, hull + slack] = True
    rows[of_edge, edge], cols[of_edge, edge + slack] = False, False
    rows[of_own, own] = False
    cols[of_own[:, None], 3 * own[:, None] + np.arange(3)] = False
    r = np.tile(table.r, (k, 1))
    r[of_hull, hull] = 1.0
    m, n, tau, split = _layout(table, faces[0])
    if any(_layout(table, face) != (m, n, tau, split) for face in faces[1:]):
        raise ValueError("the faces' LPs differ in layout")
    lane = np.arange(k)[:, None, None]
    # each column's table row per block, then that row's place in the LP
    t = table.blocks[:, np.nonzero(cols)[1].reshape(k, n)].transpose(1, 0, 2)
    lp_rows = (np.cumsum(rows, axis=1) - 1)[lane, t]
    kept = (t >= 0) & rows[lane, t]
    # the m + k of each row: its corners, and k = 1 exactly where it has a slack
    a = np.bincount((lane * m + lp_rows)[kept], minlength=k * m).reshape(k, m).astype(float)
    table_rows = np.nonzero(rows)[1].reshape(k, m)
    return lp_rows, kept, a, r[rows].reshape(k, m) + a, tau, split, table_rows


class _Dense:
    """One LP held dense, A (m, n), for ``_mehrotra``: its normal matrix
    A D A^T is formed as (A d) A^T and solved by LU. As a run of one lane
    ends when its lane does, it never drops a lane."""

    def __init__(self, rows: np.ndarray, kept: np.ndarray, a: np.ndarray, tau: int):
        self.n = rows.shape[2]
        self.A = np.zeros((a.shape[1], self.n))
        self.A[rows[kept], np.nonzero(kept)[2]] = 1.0
        self.A[:, tau] = a[0]
        self.AT = self.A.T

    def A_dot(self, v: np.ndarray) -> np.ndarray:
        return v @ self.AT

    def AT_dot(self, v: np.ndarray) -> np.ndarray:
        return v @ self.A

    def form(self, d: np.ndarray, shift: bool) -> np.ndarray:
        M = (self.A * d) @ self.AT
        if shift:
            diagonal = M.ravel()[::len(M) + 1]
            diagonal += LP_REGULARIZATION * diagonal.max()
        return M

    def solve(self, M: np.ndarray, r: np.ndarray) -> np.ndarray:
        return np.linalg.solve(M, r[0])[None]


def _mehrotra(lps, b: np.ndarray, tau: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mehrotra's predictor-corrector method (Nocedal and Wright, Numerical
    Optimization, 14.2) on k LPs of one layout: minimise c x subject to
    A x = b and x >= 0, where c is -1 at column ``tau`` and 0 elsewhere, b is
    (k, m) and each A has full row rank.

    The backend ``lps`` holds the A's, n columns each, and their normal
    equations A D A^T y = r, D = diag(d), with arrays stacked by lane:
    ``A_dot(v)`` and ``AT_dot(v)``; ``form(d, shift)``, the system for d,
    with ``shift`` adding ``LP_REGULARIZATION`` times each lane's largest
    diagonal entry to its diagonal (at a degenerate optimum, where t is
    attained by many rows at once, the equations go singular); ``solve(system,
    r)``; and ``drop(keep)``, which keeps the lanes where ``keep`` holds.
    Each iteration makes one set of numpy calls for all lanes still running,
    and a lane leaves once it meets ``LP_TOL`` on its scaled residuals and
    gap. Returns the last primal iterates x (k, n), the dual iterates y
    (k, m) of the same step and per lane whether it met ``LP_TOL``. A
    ``LinAlgError`` in an iteration ends a one-lane run with its last
    iterates, not converged, and is raised from a run of several.
    """
    k, n = len(b), lps.n
    # x and s as one stack (k, 2, n), so that each step rule runs once for both
    v = np.empty((k, 2, n))
    x, s = v[:, 0], v[:, 1]
    c = np.zeros((k, n))
    c[:, tau] = -1.0
    system = lps.form(np.ones((k, n)), False)
    x[:] = lps.AT_dot(lps.solve(system, b))
    y = lps.solve(system, lps.A_dot(c))
    del system
    np.subtract(c, lps.AT_dot(y), out=s)
    v -= 1.5 * v.min(axis=2, keepdims=True, initial=0.0)
    xs = np.vecdot(x, s)[:, None]
    x += 0.5 * xs / s.sum(axis=1, keepdims=True)
    s += 0.5 * xs / x.sum(axis=1, keepdims=True)
    b_tol = LP_TOL * (1.0 + np.abs(b).max(axis=1))
    c_tol = LP_TOL * 2.0   # 1 + max |c|
    out, out_y, converged = np.empty((k, n)), np.empty_like(b), np.zeros(k, dtype=bool)
    lanes = np.arange(k)
    dv = np.empty_like(v)
    dx, ds = dv[:, 0], dv[:, 1]
    for _ in range(LP_MAX_ITERATIONS):
        x, s = v[:, 0], v[:, 1]
        # the dual residual A^T y + s - c, negated
        rd = c - (lps.AT_dot(y) + s)
        mu = np.vecdot(x, s) / n
        # the residual tests only matter once a lane's gap is small
        if mu.min() <= LP_TOL:
            done = ((mu <= LP_TOL) & (np.abs(lps.A_dot(x) - b).max(axis=1) <= b_tol)
                    & (np.abs(rd).max(axis=1) <= c_tol))
            if done.any():
                out[lanes[done]], out_y[lanes[done]] = x[done], y[done]
                converged[lanes[done]] = True
                if done.all():
                    return out, out_y, converged
                keep = ~done
                lps.drop(keep)
                lanes, b, c, v, dv, y, rd, mu, b_tol = (
                    w[keep] for w in (lanes, b, c, v, dv, y, rd, mu, b_tol))
                x, s, dx, ds = v[:, 0], v[:, 1], dv[:, 0], dv[:, 1]
        d = x / s
        minus_x = -x
        try:
            system = lps.form(d, True)
            # with r_b = A x - b and r_xs = -x s, the predictor's right-hand
            # side -r_b - A (r_xs / s - d rd) is b + A (d rd); the
            # corrector's adds A w, and its dx is the predictor's minus w
            rhs = b + lps.A_dot(d * rd)
            np.subtract(rd, lps.AT_dot(lps.solve(system, rhs)), out=ds)
            np.subtract(minus_x, d * ds, out=dx)
            after = v + _step_lengths(v, dv) * dv
            mu_aff = np.vecdot(after[:, 0], after[:, 1]) / n
            w = (dx * ds - ((mu_aff / mu) ** 3 * mu)[:, None]) / s
            dy = lps.solve(system, rhs + lps.A_dot(w))
        except np.linalg.LinAlgError:
            if k > 1:
                raise
            break
        # freed before the next iteration forms its own
        del system
        np.subtract(rd, lps.AT_dot(dy), out=ds)
        np.subtract(minus_x - w, d * ds, out=dx)
        step = 0.995 * _step_lengths(v, dv)
        v = v + step * dv
        y = y + step[:, 1] * dy
    out[lanes], out_y[lanes] = v[:, 0], y
    return out, out_y, converged


def _step_lengths(v: np.ndarray, dv: np.ndarray) -> np.ndarray:
    """Per lane and row of stacks (k, 2, n) with v > 0, the step to the
    boundary v + a dv = 0, -1 / min(dv / v) when that is negative, clipped
    to at most 1: shape (k, 2, 1)."""
    return -1.0 / (dv / v).min(axis=2, keepdims=True, initial=-1.0)


@dataclass(frozen=True)
class AngleLPResult:
    t_star: float             # the LP optimum, in units of pi
    angles: np.ndarray        # per corner, in units of pi
    converged: bool
    # the dual iterate per row of the graph's LPTable; 0 on the rows the
    # face's LP leaves out
    dual: np.ndarray


def _lp_results(table: LPTable, x: np.ndarray, y: np.ndarray, tau: int,
                converged: Sequence[bool], table_rows: np.ndarray) -> list[AngleLPResult]:
    """The results of LPs with column tau from their last iterates x (k, n)
    and y (k, m), whose LP rows are the ``table_rows`` of ``table``."""
    t = x[:, tau] - 1.0
    dual = np.zeros((len(y), len(table.r)))
    dual[np.arange(len(y))[:, None], table_rows] = y
    return [AngleLPResult(float(ti), angles, bool(ok), yi)
            for ti, angles, ok, yi in zip(t, x[:, :tau] + t[:, None], converged, dual)]


def solve_angle_lp(table: LPTable, face: Sequence[int]) -> AngleLPResult:
    """The angle LP of outer face ``face``, solved alone by ``_mehrotra``
    with the dense backend."""
    rows, kept, a, b, tau, _, table_rows = _cut(table, [face])
    x, y, converged = _mehrotra(_Dense(rows, kept, a, tau), b, tau)
    return _lp_results(table, x, y, tau, converged, table_rows)[0]


def dual_readings(table: LPTable, lp: AngleLPResult) -> list[frozenset[int]]:
    """Vertex sets read from the dual of a face's angle LP, the candidates for
    a tough set (``plane_graph.tough_set_near``). At each threshold of
    ``DUAL_THRESHOLDS``, D is the set of vertices whose rows have |y| above
    it, and T the set of endpoints of the edges whose rows do; the readings
    are V - D, T and T - D, in that order, each listed once."""
    nf, n = len(table.cs.faces), len(table.cs.at_vertex)
    y = np.abs(lp.dual)
    # the edge rows are the table's last rows, in edge_row's order
    edges = np.array(list(table.edge_row), dtype=int).reshape(-1, 2)
    everything = frozenset(range(1, n + 1))
    readings: list[frozenset[int]] = []
    for theta in DUAL_THRESHOLDS:
        D = frozenset((np.flatnonzero(y[nf:nf + n] > theta) + 1).tolist())
        T = frozenset(edges[y[nf + n + 1:] > theta].ravel().tolist())
        for S in (everything - D, T, T - D):
            if S not in readings:
                readings.append(S)
    return readings


def face_lps(table: LPTable, faces: Sequence[Sequence[int]]) -> Iterator[AngleLPResult]:
    """The angle LP results of one graph's candidate outer faces ``faces``
    (``candidate_outer_faces`` order), in that order, each solved when drawn.

    The first face is solved alone by ``solve_angle_lp``, as a call that
    succeeds on it needs nothing more. The faces after it, which only a
    maximal planar graph has, all give LPs of one layout; they go to
    ``lp_stacks.solve_angle_lps`` in runs of balanced size, each of at most
    ``LP_STACK_BYTES`` of the structured run's arrays (``lp_stacks.lane_bytes``
    per face), and a run is solved whole when its first face is drawn. A run
    of several faces whose solve fails is solved again face by face by
    ``solve_angle_lp``; a one-face run whose iteration fails ends its face
    with its last iterate, not converged (``_mehrotra``).
    """
    yield solve_angle_lp(table, faces[0])
    rest = len(faces) - 1
    if not rest:
        return
    # loaded by the first face after the first: a call that succeeds on its
    # first face never needs it
    from . import lp_stacks
    per_run = LP_STACK_BYTES // lp_stacks.lane_bytes(table, faces[1])
    runs = -(-rest // max(1, per_run))
    for i in range(runs):
        # the sizes differ by at most one
        run = faces[1 + rest * i // runs:1 + rest * (i + 1) // runs]
        try:
            results = lp_stacks.solve_angle_lps(table, run)
        except np.linalg.LinAlgError:
            results = [solve_angle_lp(table, face) for face in run]
        yield from results


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
