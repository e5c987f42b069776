"""The angle LPs of many candidate outer faces of one graph, solved stacked.

``solve_angle_lps`` runs ``angles._mehrotra`` on the LPs of several faces at
once, as ``angles._cut`` holds them, sparse, with the backend ``_Eliminated``,
which solves their normal equations through the LPs' sparsity.
``angles.face_lps`` sends it every face after the first of a maximal planar
graph, in runs of at most ``angles.LP_STACK_BYTES`` of the arrays
``lane_bytes`` counts, and loads this module only then.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .angles import LP_REGULARIZATION, AngleLPResult, LPTable, _cut, _layout, _lp_results, _mehrotra


def lane_bytes(table: LPTable, face: Sequence[int]) -> int:
    """About the bytes one lane of the LP of ``face`` takes in a run of
    ``solve_angle_lps``: three matrices over the rows K + z (``KK``, ``S``
    and a temporary; see ``_Eliminated``), ``F`` and ``F^T``, and twenty
    vectors over its rows and columns for its index arrays, iterates and
    temporaries. On the Kleetope that is 54 KB, where a run's tracemalloc
    peak grows by about 50 KB a lane."""
    m, n, _, split = _layout(table, face)
    s1, e = split + 1, m - split
    return 8 * (3 * s1 * s1 + 2 * s1 * e + 20 * (m + n))


class _Eliminated:
    """The LPs of one layout held sparse, as ``angles._cut`` gives them, for
    ``angles._mehrotra``: their normal equations are solved through their
    structure, every column but tau having at most one nonzero, which is 1,
    in each block of rows (faces, vertices and the cap; then the edges, from
    row ``split`` on).

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
    F), written in place into buffers kept for the run; KK's border, column
    tau's a on K, is written once.
    """

    def __init__(self, rows: np.ndarray, kept: np.ndarray, a: np.ndarray, tau: int, split: int):
        k, m = a.shape
        n = self.n = rows.shape[2]
        s1, e = split + 1, m - split
        self.m, self.tau, self.split = m, tau, split
        lane = np.arange(k)[:, None]
        column = np.broadcast_to(np.arange(n), kept.shape)
        # each nonzero of A but in column tau, lane by lane, as flat indices into
        # the stacks (k, m) and (k, n); LPs of one layout have as many of each
        # kind (a corner with a face and a vertex row, or with an edge row) per lane
        self.nz_rows = rows[kept].reshape(k, -1) + m * lane
        self.nz_cols = column[kept].reshape(k, -1) + n * lane
        face_vertex = kept[:, 0] & kept[:, 1]
        p, q = rows[:, 0][face_vertex].reshape(k, -1), rows[:, 1][face_vertex].reshape(k, -1)
        self.kk_pos = np.hstack([p * s1 + q, q * s1 + p]) + s1 * s1 * lane
        self.kk_src = np.tile(column[:, 0][face_vertex].reshape(k, -1), 2) + n * lane
        ke_pos, ke_src, ke_edge = [], [], []
        for block in (0, 1):
            with_edge = kept[:, block] & kept[:, 2]
            ke_pos.append(rows[:, block][with_edge].reshape(k, -1))
            ke_edge.append(rows[:, 2][with_edge].reshape(k, -1) - split)
            ke_src.append(column[:, 0][with_edge].reshape(k, -1))
        ke_pos, ke_edge = np.hstack(ke_pos), np.hstack(ke_edge)
        self.ke_src = np.hstack(ke_src) + n * lane
        # positions in the stacks of F (k, s1, e) and of its transpose, then of
        # the diagonal on E
        self.ke_pos = ke_pos * e + ke_edge + s1 * e * lane
        self.ke_pos_t = ke_edge * s1 + ke_pos + s1 * e * lane
        self.ke_edge = ke_edge + e * lane
        self.KK, self.F, self.Ft = np.zeros((k, s1, s1)), np.zeros((k, s1, e)), np.zeros((k, e, s1))
        self.KK[:, :split, split] = self.KK[:, split, :split] = a[:, :split]
        self.a, self.a_squared = a, a * a

    def A_dot(self, v: np.ndarray) -> np.ndarray:
        m, tau = self.m, self.tau
        return (np.bincount(self.nz_rows.ravel(), v.ravel()[self.nz_cols.ravel()], len(v) * m)
                .reshape(-1, m) + self.a * v[:, tau:tau + 1])

    def AT_dot(self, v: np.ndarray) -> np.ndarray:
        entries = v.ravel()[self.nz_rows.ravel()]
        out = np.bincount(self.nz_cols.ravel(), entries, len(v) * self.n).reshape(-1, self.n)
        # column tau's a counts each row's other nonzeros, so a^T v sums the entries
        out[:, self.tau] = entries.reshape(len(v), -1).sum(axis=1)
        return out

    def form(self, d: np.ndarray, shift: bool) -> tuple[np.ndarray, np.ndarray]:
        """S and h^-1/2 (k, e) for d; F and F^T are written in place."""
        split, tau = self.split, self.tau
        diagonal = np.bincount(self.nz_rows.ravel(), d.ravel()[self.nz_cols.ravel()],
                               len(d) * self.m).reshape(-1, self.m)
        if shift:
            # relative to the largest diagonal entry of A D A^T
            largest = (diagonal + d[:, tau:tau + 1] * self.a_squared).max(axis=1, keepdims=True)
            diagonal += LP_REGULARIZATION * largest
        root = 1.0 / np.sqrt(diagonal[:, split:])
        flat = self.KK.reshape(len(d), -1)
        s1 = split + 1   # KK's size, the rows K and z
        flat[:, :split * (s1 + 1):s1 + 1] = diagonal[:, :split]
        flat[:, -1] = -1.0 / d[:, tau]
        flat.ravel()[self.kk_pos.ravel()] = d.ravel()[self.kk_src.ravel()]
        values = d.ravel()[self.ke_src.ravel()] * root.ravel()[self.ke_edge.ravel()]
        self.F.ravel()[self.ke_pos.ravel()] = self.Ft.ravel()[self.ke_pos_t.ravel()] = values
        self.F[:, split] = self.Ft[:, :, split] = self.a[:, split:] * root
        S = self.F @ self.Ft
        return np.subtract(self.KK, S, out=S), root

    def solve(self, system: tuple[np.ndarray, np.ndarray], r: np.ndarray) -> np.ndarray:
        S, root = system
        split = self.split
        r_E = r[:, split:] * root
        rhs = -(self.F @ r_E[:, :, None])
        rhs[:, :split, 0] += r[:, :split]
        yz = np.linalg.solve(S, rhs)
        return np.concatenate([yz[:, :split, 0], root * (r_E - (self.Ft @ yz)[:, :, 0])], axis=1)

    def drop(self, keep: np.ndarray) -> None:
        m, n, s1, e = self.m, self.n, self.split + 1, self.m - self.split
        # a kept lane's flat indices move down one lane's stride per lane dropped before it
        lanes = np.flatnonzero(keep)
        moved = (np.arange(len(lanes)) - lanes)[:, None]
        self.a, self.a_squared, self.KK, self.F, self.Ft = (
            w[keep] for w in (self.a, self.a_squared, self.KK, self.F, self.Ft))
        (self.nz_rows, self.nz_cols, self.kk_pos, self.kk_src, self.ke_pos, self.ke_pos_t,
         self.ke_src, self.ke_edge) = (
            w[keep] + stride * moved for w, stride in (
                (self.nz_rows, m), (self.nz_cols, n), (self.kk_pos, s1 * s1), (self.kk_src, n),
                (self.ke_pos, s1 * e), (self.ke_pos_t, s1 * e), (self.ke_src, n),
                (self.ke_edge, e)))


def solve_angle_lps(table: LPTable, faces: Sequence[Sequence[int]]) -> list[AngleLPResult]:
    """``angles.solve_angle_lp`` for each of ``faces``, whose LPs must have one
    layout, by ``angles._mehrotra`` on them stacked with the ``_Eliminated``
    backend: each solve is one LU of size 30 on the Kleetope, against 53 for
    the dense normal matrix. The results are ``solve_angle_lp``'s up to
    rounding, and a lane's result does not depend on the other lanes. A
    failed solve in a run of several faces raises ``LinAlgError``.
    """
    rows, kept, a, b, tau, split, table_rows = _cut(table, faces)
    x, y, converged = _mehrotra(_Eliminated(rows, kept, a, tau, split), b, tau)
    return _lp_results(table, x, y, tau, converged, table_rows)
