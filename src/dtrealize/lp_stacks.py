"""The backend for large angle LPs, ``_Eliminated``.

``angles.solve_angle_lp`` runs ``angles._mehrotra`` with it on an LP of at
least ``angles.ELIMINATED_MIN_ROWS`` rows, as ``angles._cut`` holds it,
sparse, and loads this module only then: no benchmark workload draws such an
LP, and each benchmark process compiles what it imports.
"""

from __future__ import annotations

import numpy as np

from .angles import LP_REGULARIZATION


class _Eliminated:
    """An LP held sparse, as ``angles._cut`` gives it, for
    ``angles._mehrotra``: its normal equations are solved through its
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
