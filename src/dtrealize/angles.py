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
structure, each column's row in each block of rows, and ``_cut`` turns a
candidate outer face into its LP in that sparse form. ``solve_angle_lp``
maximises t (capped at 1/4) by Mehrotra's method, ``_mehrotra``, through a
backend that holds the LP and solves its normal equations, chosen by the
LP's number of rows: below ``ELIMINATED_MIN_ROWS``, ``_Dense``, an LU of
A D A^T; from there on, ``_Eliminated``, which eliminates the edge rows
first (an LU of size 30 instead of 53 on the 11-vertex Kleetope) and is
faster on large LPs but slower on the small ones most calls solve. Each result
carries the LP's dual with its angles, and ``dual_readings`` reads candidate
tough sets from it (README, "Refutation").

A caller that only asks whether t* > T_STAR_MIN can stop the solve early.
For the LP min c x, A x = b, x >= 0, and any y, every feasible x has
c x = b y + (c - A^T y) x >= b y - sum_j max(0, -(c - A^T y)_j) u_j for any
bounds x_j <= u_j on the feasible set. Here A >= 0 and b >= 0, so a row i
with A_ij > 0 gives A_ij x_j <= (A x)_i = b_i, and u_j = min_i b_i / A_ij
over the column's nonzeros is such a bound; every column has a nonzero. As
t* = -min c x - 1, any dual iterate y bounds t* <= -b y - 1 + sum_j max(0,
-(c - A^T y)_j) u_j, where c - A^T y is the loop's rd + s. ``_mehrotra``
computes this bound once the primal iterate has t <= T_STAR_MIN, and the
first time it is at most T_STAR_MIN it asks the caller, through
``solve_angle_lp``'s ``enough``, whether that iterate is enough; on the
11-vertex Kleetope that is after 3 of the 6 iterations.

From a point with t > 0, ``maximise_volume`` holds each edge's
opposite-angle sum fixed and maximises Rivin's volume, the sum of
Lobachevsky functions of the angles (Rivin, Ann. Math. 139, 1994); at the
maximum, the law-of-sines edge lengths agree across faces, so ``layout``
can place the triangles one by one. Like the rest of the search, nothing
here is trusted: the placement only seeds the ConstSqu solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Sequence

import numpy as np

from .plane_graph import PlaneTriangulation, _canon_cycle

# the LP's cap on t, in units of pi
T_CAP = 0.25
# a face whose angle LP optimum is not above this is not searched
T_STAR_MIN = 1e-6
# interior-point stopping tolerance on the scaled residuals and the duality gap
LP_TOL = 1e-9
# diagonal shift of the normal equations, relative to their largest entry: at
# a degenerate optimum (t is attained by many rows at once) they go singular
LP_REGULARIZATION = 1e-14
LP_MAX_ITERATIONS = 200
# an LP of at least this many rows is solved by _Eliminated, a smaller one
# by _Dense: the smallest size from which the eliminated backend is faster on
# every face-0 LP of tools/lp_backends.py's corpus (one BLAS thread), as that
# tool prints it; rerun it when either backend changes, as 56 went stale
# within two changes. Eliminated / dense there: 1.14-1.24 at m = 35-38,
# 1.01-1.13 at m = 41-44, 0.95-1.08 at m = 47, 0.90-0.99 at m = 50 and
# 0.75-0.84 at m = 53, the 11-vertex Kleetope's. A face LP has 6n - 3h - 4
# rows for h hull vertices: the realize-mix benchmark's LPs (m <= 35) stay
# dense, and the unrealizable benchmark's Kleetope is eliminated, so each
# backend serves one workload
ELIMINATED_MIN_ROWS = 47
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
    opposite: dict[tuple[int, int], list[int]]


def corners(faces: Iterable[Sequence[int]]) -> Corners:
    """The corners of ``faces``, triangles."""
    faces = tuple(tuple(f) for f in faces)
    opposite: dict[tuple[int, int], list[int]] = {}
    for fi, f in enumerate(faces):
        for k in range(3):
            u, w = f[(k + 1) % 3], f[(k + 2) % 3]
            opposite.setdefault((min(u, w), max(u, w)), []).append(3 * fi + k)
    return Corners(faces, opposite)


@dataclass(frozen=True)
class LPTable:
    """One graph's angle LP rows, over the corners of its ``nf`` triangular
    faces, corner ``3 * f + k`` at the k-th vertex of the f-th of them in
    ``G.faces``, and its ``n`` vertices, as if every vertex were interior and
    every edge of two faces interior: the face rows, the vertex rows (vertex
    v at row nf + v - 1), the cap on t, then the edge rows (in sorted edge
    order), with right-hand sides ``r``. ``face_row`` gives the row of each
    face, by its canonical cycle, in row order, and ``edges`` (e, 2) the
    sorted vertex pair of each edge of two faces, in row order: the edge of
    row ``nf + n + 1 + i`` is ``edges[i]``.

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
    nf: int
    n: int
    blocks: np.ndarray
    r: np.ndarray
    face_row: dict[tuple[int, ...], int]
    edges: np.ndarray


def lp_table(G: PlaneTriangulation) -> LPTable:
    faces = [f for f in G.faces if len(f) == 3]
    nf, n = len(faces), G.n
    split = nf + n + 1
    corner_vertex = np.array(faces)
    # corner k of a face is opposite its vertices k + 1 and k + 2 (mod 3),
    # each edge keyed min (n + 1) + max: sorted stably, the two corners of an
    # edge of two faces are adjacent, and the edges come in sorted order
    twice = np.concatenate([corner_vertex, corner_vertex], axis=1)
    u, w = twice[:, 1:4], twice[:, 2:5]
    key = (np.minimum(u, w) * (n + 1) + np.maximum(u, w)).ravel()
    order = np.argsort(key, kind="stable")
    key = key[order]
    pair = np.flatnonzero(key[1:] == key[:-1])
    m = split + len(pair)
    edge_rows = np.arange(split, m)
    blocks = np.full((3, 2 * nf + 1 + m), -1)
    blocks[0, :3 * nf] = np.arange(3 * nf) // 3
    blocks[1, :3 * nf] = corner_vertex.ravel() + nf - 1
    blocks[2, order[pair]] = blocks[2, order[pair + 1]] = edge_rows
    # the slack of row i is column i + 2 nf + 1; block 1 ends with the cap
    block_1 = np.arange(nf, split)
    blocks[1, block_1 + 2 * nf + 1] = block_1
    blocks[2, edge_rows + 2 * nf + 1] = edge_rows
    r = np.ones(m)
    r[nf:split - 1] = 2.0
    r[split - 1] = T_CAP
    return LPTable(nf, n, blocks, r, {_canon_cycle(f): i for i, f in enumerate(faces)},
                   np.stack(np.divmod(key[pair], n + 1), axis=1))


def _cut(table: LPTable, face: Sequence[int]) -> tuple:
    """The LP of outer face ``face``, held sparse: for each column but tau and
    each block of rows (faces; vertices and the cap; edges), the LP row of its
    nonzero, which is 1, and whether it has one, both (3, n), where a block
    without one gives an arbitrary row; then column tau and b, both (m,), tau,
    the first edge row and the table row of each LP row. The LP is the
    table's without the face's own row, if any, and its three corners, and
    without the rows of the face's interior edges (its corners' edge rows)
    and their slacks; each face vertex has a slack. A face that is no table
    face, the outer cycle of a disk, has no interior edge."""
    nf, n = table.nf, table.n
    slack = 2 * nf + 1   # the column of row i's slack is i + slack
    hull = np.array(face, dtype=int) + nf - 1
    own = table.face_row.get(_canon_cycle(face))
    rows, cols = np.ones(len(table.r), bool), np.ones(table.blocks.shape[1], bool)
    cols[nf + slack:nf + n + slack] = False
    cols[hull + slack] = True
    faces = nf
    if own is not None:
        edge = table.blocks[2, 3 * own:3 * own + 3]
        edge = edge[edge >= 0]
        rows[edge] = cols[edge + slack] = False
        rows[own] = cols[3 * own:3 * own + 3] = False
        faces -= 1
    r = table.r.copy()
    r[hull] = 1.0
    # each column's table row per block, then that row's place in the LP
    t = table.blocks[:, cols]
    lp_rows = (np.cumsum(rows) - 1)[t]
    kept = (t >= 0) & rows[t]
    # the m + k of each row: its corners, and k = 1 exactly where it has a slack
    a = np.bincount(lp_rows[kept], minlength=np.count_nonzero(rows)).astype(float)
    return lp_rows, kept, a, r[rows] + a, 3 * faces, faces + n + 1, np.flatnonzero(rows)


class _Dense:
    """An LP held dense, A (m, n), for ``_mehrotra``: its normal matrix
    A D A^T is formed as (A d) A^T and solved by LU."""

    def __init__(self, rows: np.ndarray, kept: np.ndarray, a: np.ndarray, tau: int):
        self.n = rows.shape[1]
        self.A = np.zeros((len(a), self.n))
        self.A[rows[kept], np.nonzero(kept)[1]] = 1.0
        self.A[:, tau] = a
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
        return np.linalg.solve(M, r)


class _Eliminated:
    """An LP held sparse, as ``_cut`` gives it, for ``_mehrotra``: its
    normal equations are solved through its structure, every column but tau
    having at most one nonzero, which is 1, in each block of rows (faces,
    vertices and the cap; then the edges, from row ``split`` on).

    A D A^T y = r is solved as a bordered system with one more unknown,
    z = d_tau a^T y: the part of A D A^T without column tau is diagonal (h)
    on the edge rows (E), which are eliminated, leaving the rows before
    split (K) and z. Every pivot there is large, as each edge row has a
    basic variable; the cap row, whose slack goes to 0 where t* = 1/4, stays
    in K. With KK and KE the blocks of the bordered system on K + z and on
    K + z and E, and F = KE h^-1/2, a solve is one LU of S = KK - F F^T. A
    column but tau meets a face row and a vertex row at its corner, and a row
    and an edge row at the one corner of that row opposite the edge, so every
    entry of KK off its diagonal and of F is one column's d (times h^-1/2 in
    F), written in place into buffers kept for the solve; KK's border, column
    tau's a on K, is written once. S is written into one more buffer, kept
    for the LP, so that an iteration allocates no matrix of that size.
    """

    def __init__(self, rows: np.ndarray, kept: np.ndarray, a: np.ndarray, tau: int, split: int):
        m, n = len(a), rows.shape[1]
        s1, e = split + 1, m - split
        self.m, self.n, self.tau, self.split = m, n, tau, split
        # each nonzero of A but in column tau, by its row and its column
        self.nz_rows, self.nz_cols = rows[kept], np.nonzero(kept)[1]
        face_vertex = kept[0] & kept[1]
        p, q = rows[0][face_vertex], rows[1][face_vertex]
        # positions in the flat KK, then in the flat F (s1, e) and its
        # transpose, and on the diagonal of E, each with the column of its d
        self.kk_pos = np.concatenate([p * s1 + q, q * s1 + p])
        self.kk_src = np.tile(np.flatnonzero(face_vertex), 2)
        ke_pos, ke_src, ke_edge = [], [], []
        for block in (0, 1):
            with_edge = kept[block] & kept[2]
            ke_pos.append(rows[block][with_edge])
            ke_edge.append(rows[2][with_edge] - split)
            ke_src.append(np.flatnonzero(with_edge))
        ke_pos, self.ke_edge = np.concatenate(ke_pos), np.concatenate(ke_edge)
        self.ke_src = np.concatenate(ke_src)
        self.ke_pos = ke_pos * e + self.ke_edge
        self.ke_pos_t = self.ke_edge * s1 + ke_pos
        self.KK, self.F, self.Ft = np.zeros((s1, s1)), np.zeros((s1, e)), np.zeros((e, s1))
        self.S = np.empty((s1, s1))
        self.KK[:split, split] = self.KK[split, :split] = a[:split]
        self.a, self.a_squared = a, a * a

    def A_dot(self, v: np.ndarray) -> np.ndarray:
        return np.bincount(self.nz_rows, v[self.nz_cols], self.m) + self.a * v[self.tau]

    def AT_dot(self, v: np.ndarray) -> np.ndarray:
        entries = v[self.nz_rows]
        out = np.bincount(self.nz_cols, entries, self.n)
        # column tau's a counts each row's other nonzeros, so a^T v sums the entries
        out[self.tau] = entries.sum()
        return out

    def form(self, d: np.ndarray, shift: bool) -> tuple[np.ndarray, np.ndarray]:
        """S and h^-1/2 (e,) for d; S, F and F^T are written in place, over
        the last call's."""
        split, tau = self.split, self.tau
        diagonal = np.bincount(self.nz_rows, d[self.nz_cols], self.m)
        if shift:
            # relative to the largest diagonal entry of A D A^T
            diagonal += LP_REGULARIZATION * (diagonal + d[tau] * self.a_squared).max()
        root = 1.0 / np.sqrt(diagonal[split:])
        flat = self.KK.ravel()
        s1 = split + 1   # KK's size, the rows K and z
        flat[:split * (s1 + 1):s1 + 1] = diagonal[:split]
        flat[-1] = -1.0 / d[tau]
        flat[self.kk_pos] = d[self.kk_src]
        values = d[self.ke_src] * root[self.ke_edge]
        self.F.ravel()[self.ke_pos] = self.Ft.ravel()[self.ke_pos_t] = values
        self.F[split] = self.Ft[:, split] = self.a[split:] * root
        S = np.matmul(self.F, self.Ft, out=self.S)
        return np.subtract(self.KK, S, out=S), root

    def solve(self, system: tuple[np.ndarray, np.ndarray], r: np.ndarray) -> np.ndarray:
        S, root = system
        split = self.split
        r_E = r[split:] * root
        rhs = -(self.F @ r_E)
        rhs[:split] += r[:split]
        yz = np.linalg.solve(S, rhs)
        return np.concatenate([yz[:split], root * (r_E - self.Ft @ yz)])


# an iterate that overflows ends the loop at its check, not with a warning
@np.errstate(over="ignore", invalid="ignore")
def _mehrotra(lp, b: np.ndarray, tau: int, stop: "_Stop | None" = None
              ) -> tuple[np.ndarray, np.ndarray, bool, float | None]:
    """Mehrotra's predictor-corrector method (Nocedal and Wright, Numerical
    Optimization, 14.2) on one LP: minimise c x subject to A x = b and
    x >= 0, where c is -1 at column ``tau`` and 0 elsewhere and A has full
    row rank.

    The backend ``lp`` holds A, with n columns, and its normal equations
    A D A^T y = r, D = diag(d): ``A_dot(v)`` and ``AT_dot(v)``; ``form(d,
    shift)``, the system for d, with ``shift`` adding ``LP_REGULARIZATION``
    times its largest diagonal entry to its diagonal (at a degenerate
    optimum, where t is attained by many rows at once, the equations go
    singular); and ``solve(system, r)``. The loop stops once the iterate
    meets ``LP_TOL`` on its scaled residuals and gap. Returns the last
    primal iterate x, the dual iterate y of the same step, whether it met
    ``LP_TOL`` and None. A ``LinAlgError`` in an iteration, or a step to an
    iterate that is not finite, ends the loop with the last iterates before
    it, not converged.

    With a decision stop ``stop``, an iterate with x[tau] - 1 <= T_STAR_MIN
    that has not converged bounds t* by weak duality (module docstring).
    The first time that bound is at most ``T_STAR_MIN``, the loop asks
    ``stop.enough(x, y, bound)`` whether the iterate is enough: on yes it
    returns x, y, not converged, and the bound; on no it runs on as without
    a stop, and never asks again.
    """
    n = lp.n
    # x and s as one stack (2, n), so that each step rule runs once for both
    v = np.empty((2, n))
    x, s = v
    c = np.zeros(n)
    c[tau] = -1.0
    system = lp.form(np.ones(n), False)
    x[:] = lp.AT_dot(lp.solve(system, b))
    y = lp.solve(system, lp.A_dot(c))
    del system
    np.subtract(c, lp.AT_dot(y), out=s)
    v -= 1.5 * v.min(axis=1, keepdims=True, initial=0.0)
    xs = np.vecdot(x, s)
    x += 0.5 * xs / s.sum()
    s += 0.5 * xs / x.sum()
    b_tol = LP_TOL * (1.0 + np.abs(b).max())
    c_tol = LP_TOL * 2.0   # 1 + max |c|
    dv = np.empty_like(v)
    dx, ds = dv
    for _ in range(LP_MAX_ITERATIONS):
        x, s = v
        # the dual residual A^T y + s - c, negated
        rd = c - (lp.AT_dot(y) + s)
        mu = np.vecdot(x, s) / n
        # the residual tests only matter once the gap is small
        if (mu <= LP_TOL and np.abs(lp.A_dot(x) - b).max() <= b_tol
                and np.abs(rd).max() <= c_tol):
            return x, y, True, None
        if stop is not None and x[tau] - 1.0 <= T_STAR_MIN:
            # rd + s is c - A^T y
            bound = stop.bound(y, rd + s)
            if bound <= T_STAR_MIN:
                if stop.enough(x, y, bound):
                    return x, y, False, bound
                stop = None
        d = x / s
        minus_x = -x
        try:
            system = lp.form(d, True)
            # with r_b = A x - b and r_xs = -x s, the predictor's right-hand
            # side -r_b - A (r_xs / s - d rd) is b + A (d rd); the
            # corrector's adds A w, and its dx is the predictor's minus w
            rhs = b + lp.A_dot(d * rd)
            np.subtract(rd, lp.AT_dot(lp.solve(system, rhs)), out=ds)
            np.subtract(minus_x, d * ds, out=dx)
            after = v + _step_lengths(v, dv) * dv
            mu_aff = np.vecdot(after[0], after[1]) / n
            # np.power cubes by numpy's array loop; a float64's ** calls the C
            # library's pow, whose last bit can differ
            w = (dx * ds - np.power(mu_aff / mu, 3) * mu) / s
            dy = lp.solve(system, rhs + lp.A_dot(w))
        except np.linalg.LinAlgError:
            break
        # freed before the next iteration forms its own
        del system
        np.subtract(rd, lp.AT_dot(dy), out=ds)
        np.subtract(minus_x - w, d * ds, out=dx)
        step = 0.995 * _step_lengths(v, dv)
        v_next, y_next = v + step * dv, y + step[1] * dy
        if not (np.isfinite(v_next).all() and np.isfinite(y_next).all()):
            break
        v, y = v_next, y_next
    return v[0], y, False, None


def _step_lengths(v: np.ndarray, dv: np.ndarray) -> np.ndarray:
    """Per row of stacks (2, n) with v > 0, the step to the boundary
    v + a dv = 0, -1 / min(dv / v) when that is negative, clipped to at most
    1: shape (2, 1)."""
    return -1.0 / (dv / v).min(axis=1, keepdims=True, initial=-1.0)


class _Stop:
    """A decision stop for ``_mehrotra`` on the LP ``cut``, ``_cut``'s first
    five values: ``bound(y, reduced)``, the weak-duality bound on t* of a
    dual iterate y with reduced costs c - A^T y (module docstring), and
    ``enough(x, y, bound)``, the caller's answer on an iterate that proves
    t* <= bound <= T_STAR_MIN."""

    def __init__(self, cut: tuple, enough: Callable[[np.ndarray, np.ndarray, float], bool]):
        self._cut, self.enough = cut, enough

    @cached_property
    def upper(self) -> np.ndarray:
        """Each column's bound u_j = min_i b_i / A_ij over its nonzeros,
        built when the first bound is asked for."""
        rows, kept, a, b, tau = self._cut
        # every nonzero but column tau's is 1
        u = np.where(kept, b[rows], np.inf).min(axis=0)
        u[tau] = (b / a).min()
        return u

    def bound(self, y: np.ndarray, reduced: np.ndarray) -> float:
        b = self._cut[3]
        return float(np.vecdot(np.maximum(-reduced, 0.0), self.upper) - np.vecdot(b, y) - 1.0)


@dataclass(frozen=True)
class AngleLPResult:
    # the LP optimum, in units of pi; the last iterate's t where the solve did
    # not converge
    t_star: float
    angles: np.ndarray        # per corner, in units of pi
    converged: bool
    # the dual iterate per row of the graph's LPTable; 0 on the rows the
    # face's LP leaves out
    dual: np.ndarray
    # where a decision stop ended the solve, the weak-duality bound t* <=
    # t_bound <= T_STAR_MIN its dual proves; otherwise None
    t_bound: float | None = None


def solve_angle_lp(table: LPTable, face: Sequence[int],
                   enough: Callable[[AngleLPResult], bool] | None = None) -> AngleLPResult:
    """The angle LP of outer face ``face``, solved by ``_mehrotra`` with the
    backend for its number of rows: ``_Dense`` below
    ``ELIMINATED_MIN_ROWS``, ``_Eliminated`` from there on.

    Without ``enough`` the LP is solved to ``LP_TOL``. With it, the first
    iterate whose dual proves t* <= T_STAR_MIN is handed to ``enough`` as a
    result with ``t_bound`` set, not converged; the solve ends there if it
    answers yes and runs to ``LP_TOL`` otherwise."""
    rows, kept, a, b, tau, split, table_rows = cut = _cut(table, face)
    if len(b) < ELIMINATED_MIN_ROWS:
        lp = _Dense(rows, kept, a, tau)
    else:
        lp = _Eliminated(rows, kept, a, tau, split)

    def result(x, y, converged, t_bound):
        t = x[tau] - 1.0
        dual = np.zeros(len(table.r))
        dual[table_rows] = y
        return AngleLPResult(float(t), x[:tau] + t, converged, dual, t_bound)

    stop = None if enough is None else _Stop(
        cut[:5], lambda x, y, bound: enough(result(x, y, False, bound)))
    return result(*_mehrotra(lp, b, tau, stop))


def dual_readings(table: LPTable, lp: AngleLPResult) -> list[frozenset[int]]:
    """Vertex sets read from the dual of a face's angle LP, the candidates for
    a tough set (``plane_graph.tough_set_near``). At each threshold of
    ``DUAL_THRESHOLDS``, D is the set of vertices whose rows have |y| above
    it, and T the set of endpoints of the edges whose rows do; the readings
    are V - D, T and T - D, in that order, each listed once."""
    nf, n = table.nf, table.n
    # per threshold, which rows after the face rows have |y| above it
    above = np.abs(lp.dual[nf:]) > np.array(DUAL_THRESHOLDS)[:, None]
    everything = frozenset(range(1, n + 1))
    readings: list[frozenset[int]] = []
    for row in above:
        D = frozenset((np.flatnonzero(row[:n]) + 1).tolist())
        T = frozenset(table.edges[row[n + 1:]].ravel().tolist())
        for S in (everything - D, T, T - D):
            if S not in readings:
                readings.append(S)
    return readings


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
