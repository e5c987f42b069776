"""The angle LPs of many candidate outer faces of one graph, solved stacked.

``solve_angle_lps`` runs the Mehrotra method of ``angles.interior_point`` on
the LPs of several faces at once, one set of numpy calls per iteration, and
solves their normal equations through the LPs' sparsity. It takes the LPs as
``angles._cut`` holds them, sparse, and only moves the cap row ahead of the
edge rows. ``angles.face_lps`` sends it every face after the first of a
maximal planar graph, in runs of at most ``angles.LP_STACK_BYTES`` of the
arrays ``lane_bytes`` counts, and loads this module only then.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .angles import (LP_MAX_ITERATIONS, LP_REGULARIZATION, LP_TOL, AngleLPResult, LPTable, _cut,
                     _lp_results)


def _lanes(table: LPTable, faces: Sequence[Sequence[int]]) -> tuple:
    """``angles._cut(table, faces)`` with the cap row, last there, moved
    before the edge rows, then tau and split, the first edge row. Raises
    ``ValueError`` unless the LPs have one layout."""
    rows, kept, a, b, tau = _cut(table, faces)
    m = a.shape[1]
    split = tau // 3 + len(table.cs.at_vertex) + 1
    order = np.r_[:split - 1, m - 1, split - 1:m - 1]
    rows = np.where(rows == m - 1, split - 1, rows + (rows >= split - 1))
    return rows, kept, a[:, order], b[:, order], tau, split


def lane_bytes(table: LPTable, face: Sequence[int]) -> int:
    """About the bytes one lane of the LP of ``face`` takes in a run of
    ``solve_angle_lps``: three matrices over the rows K + z (``KK``, ``S``
    and a temporary; see ``_interior_points``), ``F`` and ``F^T``, and twenty
    vectors over its rows and columns for its index arrays, iterates and
    temporaries. On the Kleetope that is 54 KB, where a run's tracemalloc
    peak grows by about 50 KB a lane."""
    rows, _, a, _, tau = _cut(table, [face])
    m, n = a.shape[1], rows.shape[2]
    s1 = tau // 3 + len(table.cs.at_vertex) + 2
    e = m - s1 + 1
    return 8 * (3 * s1 * s1 + 2 * s1 * e + 20 * (m + n))


def _interior_points(rows: np.ndarray, kept: np.ndarray, a: np.ndarray, b: np.ndarray, tau: int,
                     split: int) -> tuple[np.ndarray, np.ndarray]:
    """The stacked Mehrotra run of ``solve_angle_lps``, on LPs of one layout as
    ``_lanes`` gives them.

    The normal equations A D A^T y = r are solved as a bordered system with
    one more unknown, z = d_tau a^T y: the part of A D A^T without column tau
    is diagonal (h) on the edge rows split.. (E), which are eliminated,
    leaving rows ..split (K) and z. Every pivot there is large, as each edge
    row has a basic variable; the cap row, whose slack goes to 0 where
    t* = 1/4, stays in K. With KK and KE the blocks of the bordered system on
    K + z and on K + z and E, and F = KE h^-1/2, a solve is one LU of
    S = KK - F F^T. A column but tau meets a face row and a vertex row at
    its corner, and a row and an edge row at the one corner of that row
    opposite the edge, so every entry of KK off its diagonal and of F is one
    column's d (times h^-1/2 in F), written in place into buffers kept for
    the run; KK's border, column tau's a on K, is written once.
    """
    k, m = b.shape
    n = rows.shape[2]
    s1, e = split + 1, m - split
    lane = np.arange(k)[:, None]
    column = np.broadcast_to(np.arange(n), kept.shape)
    # each nonzero of A but in column tau, lane by lane, as flat indices into
    # the stacks (k, m) and (k, n); LPs of one layout have as many of each kind
    # (a corner with a face and a vertex row, or with an edge row) per lane
    nz_rows, nz_cols = rows[kept].reshape(k, -1) + m * lane, column[kept].reshape(k, -1) + n * lane
    face_vertex = kept[:, 0] & kept[:, 1]
    p, q = rows[:, 0][face_vertex].reshape(k, -1), rows[:, 1][face_vertex].reshape(k, -1)
    kk_pos = np.hstack([p * s1 + q, q * s1 + p]) + s1 * s1 * lane
    kk_src = np.tile(column[:, 0][face_vertex].reshape(k, -1), 2) + n * lane
    ke_pos, ke_src, ke_edge = [], [], []
    for block in (0, 1):
        with_edge = kept[:, block] & kept[:, 2]
        ke_pos.append(rows[:, block][with_edge].reshape(k, -1))
        ke_edge.append(rows[:, 2][with_edge].reshape(k, -1) - split)
        ke_src.append(column[:, 0][with_edge].reshape(k, -1))
    ke_pos, ke_src, ke_edge = np.hstack(ke_pos), np.hstack(ke_src) + n * lane, np.hstack(ke_edge)
    # positions in the stacks of F (k, s1, e) and of its transpose, then of the diagonal on E
    ke_pos, ke_pos_t, ke_edge = (ke_pos * e + ke_edge + s1 * e * lane,
                                 ke_edge * s1 + ke_pos + s1 * e * lane, ke_edge + e * lane)
    KK, F, Ft = np.zeros((k, s1, s1)), np.zeros((k, s1, e)), np.zeros((k, e, s1))
    KK[:, :split, split] = KK[:, split, :split] = a[:, :split]
    a_squared = a * a
    c = np.zeros(n)
    c[tau] = -1.0

    def A_dot(v: np.ndarray) -> np.ndarray:
        return (np.bincount(nz_rows.ravel(), v.ravel()[nz_cols.ravel()], len(v) * m)
                .reshape(-1, m) + a * v[:, tau:tau + 1])

    def AT_dot(v: np.ndarray) -> np.ndarray:
        entries = v.ravel()[nz_rows.ravel()]
        out = np.bincount(nz_cols.ravel(), entries, len(v) * n).reshape(-1, n)
        # column tau's a counts each row's other nonzeros, so a^T v sums the entries
        out[:, tau] = entries.reshape(len(v), -1).sum(axis=1)
        return out

    def bordered(d: np.ndarray, shift: bool) -> tuple[np.ndarray, ...]:
        """S, F, F^T and h^-1/2 (k, e, 1) for d."""
        diagonal = np.bincount(nz_rows.ravel(), d.ravel()[nz_cols.ravel()],
                               len(d) * m).reshape(-1, m)
        if shift:
            # angles.interior_point's shift: relative to the largest diagonal entry of A D A^T
            largest = (diagonal + d[:, tau:tau + 1] * a_squared).max(axis=1, keepdims=True)
            diagonal += LP_REGULARIZATION * largest
        root = 1.0 / np.sqrt(diagonal[:, split:])
        flat = KK.reshape(len(d), -1)
        flat[:, :split * (s1 + 1):s1 + 1] = diagonal[:, :split]
        flat[:, -1] = -1.0 / d[:, tau]
        flat.ravel()[kk_pos.ravel()] = d.ravel()[kk_src.ravel()]
        values = d.ravel()[ke_src.ravel()] * root.ravel()[ke_edge.ravel()]
        F.ravel()[ke_pos.ravel()] = Ft.ravel()[ke_pos_t.ravel()] = values
        F[:, split] = Ft[:, :, split] = a[:, split:] * root
        S = F @ Ft
        return np.subtract(KK, S, out=S), F, Ft, root[..., None]

    def solve(system: tuple[np.ndarray, ...], r: np.ndarray) -> np.ndarray:
        """y for A D A^T y = r, r (k, m, q)."""
        S, F, Ft, root = system
        r_E = r[:, split:] * root
        rhs = -(F @ r_E)
        rhs[:, :split] += r[:, :split]
        yz = np.linalg.solve(S, rhs)
        return np.concatenate([yz[:, :split], root * (r_E - Ft @ yz)], axis=1)

    # A c = -a, as c is -1 at tau and 0 elsewhere
    xy = solve(bordered(np.ones((k, n)), False), np.stack([b, -a], axis=2))
    x, y = AT_dot(xy[:, :, 0]), xy[:, :, 1]
    s = c - AT_dot(y)
    x += np.maximum(-1.5 * x.min(axis=1, keepdims=True), 0.0)
    s += np.maximum(-1.5 * s.min(axis=1, keepdims=True), 0.0)
    xs = _dots(x, s)[:, None]
    x += 0.5 * xs / s.sum(axis=1, keepdims=True)
    s += 0.5 * xs / x.sum(axis=1, keepdims=True)
    # x and s as one stack (k, 2, n), so that each step rule runs once for both
    v = np.stack([x, s], axis=1)
    b_tol = LP_TOL * (1.0 + np.abs(b).max(axis=1))
    c_tol = LP_TOL * (1.0 + np.abs(c).max())
    out, converged = np.empty((k, n)), np.zeros(k, dtype=bool)
    lanes = np.arange(k)
    for _ in range(LP_MAX_ITERATIONS):
        x, s = v[:, 0], v[:, 1]
        rc = AT_dot(y) + s - c
        mu = _dots(x, s) / n
        done = mu <= LP_TOL
        # the residual tests only matter once a lane's gap is small
        if done.any():
            done &= ((np.abs(A_dot(x) - b).max(axis=1) <= b_tol)
                     & (np.abs(rc).max(axis=1) <= c_tol))
        if done.any():
            out[lanes[done]] = x[done]
            converged[lanes[done]] = True
            if done.all():
                return out, converged
            # a lane that has met the test leaves the stack
            keep = ~done
            lanes, a, a_squared, b, v, y, rc, mu, b_tol, KK, F, Ft = (
                w[keep] for w in (lanes, a, a_squared, b, v, y, rc, mu, b_tol, KK, F, Ft))
            moved = (np.arange(len(lanes)) - np.flatnonzero(keep))[:, None]
            nz_rows, nz_cols, kk_pos, kk_src, ke_pos, ke_pos_t, ke_src, ke_edge = (
                w[keep] + stride * moved for w, stride in (
                    (nz_rows, m), (nz_cols, n), (kk_pos, s1 * s1), (kk_src, n), (ke_pos, s1 * e),
                    (ke_pos_t, s1 * e), (ke_src, n), (ke_edge, e)))
            x, s = v[:, 0], v[:, 1]
        d = x / s
        system = bordered(d, True)
        rhs = b - A_dot(d * rc)
        dv = np.empty_like(v)
        dx, ds = dv[:, 0], dv[:, 1]
        np.subtract(-rc, AT_dot(solve(system, rhs[:, :, None])[:, :, 0]), out=ds)
        minus_x = -x
        np.subtract(minus_x, d * ds, out=dx)
        step = _step_lengths(v, dv)
        after = v + step * dv
        mu_aff = _dots(after[:, 0], after[:, 1]) / n
        sigma_mu = ((mu_aff / mu) ** 3 * mu)[:, None]
        w = (dx * ds - sigma_mu) / s
        dy = solve(system, (rhs + A_dot(w))[:, :, None])[:, :, 0]
        # freed before the next iteration builds its own
        del system
        np.subtract(-rc, AT_dot(dy), out=ds)
        np.subtract(minus_x - w, d * ds, out=dx)
        step = 0.995 * _step_lengths(v, dv)
        v = v + step * dv
        y = y + step[:, 1] * dy
    out[lanes] = v[:, 0]
    return out, converged


def _dots(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Per lane of stacks (k, n), the dot product u @ v, shape (k,)."""
    return (u[:, None] @ v[:, :, None])[:, 0, 0]


def _step_lengths(v: np.ndarray, dv: np.ndarray) -> np.ndarray:
    """``step_length`` of ``angles.interior_point`` per lane and row of
    stacks (k, 2, n): -1 / min(dv / v) clipped to at most 1, shape (k, 2, 1)."""
    return -1.0 / np.minimum((dv / v).min(axis=2, keepdims=True), -1.0)


def solve_angle_lps(table: LPTable, faces: Sequence[Sequence[int]]) -> list[AngleLPResult]:
    """``angles.solve_angle_lp`` for each of ``faces``, whose LPs must have one
    layout (shape, tau and first edge row), by ``angles.interior_point``'s
    method on them stacked: each iteration makes one set of numpy calls for all
    lanes still running, with the same start, step rules and tolerances, and
    a lane stops once it meets the stopping test.

    The LPs are cut sparse from ``table``, and their normal equations solved
    through their structure: every column but tau has at most one nonzero in
    each block of rows (faces, vertices and the cap, then edges), so A D A^T
    without tau sums from the nonzeros, its diagonal block on the edge rows
    is eliminated, and tau's rank-one part is kept as one more unknown. Each
    solve is one LU of size 30 on the Kleetope, against 53 for the dense
    normal matrix. The iterates are ``angles.interior_point``'s up to
    rounding, and a lane's result does not depend on the other lanes. A
    failed stacked solve raises ``LinAlgError``.
    """
    rows, kept, a, b, tau, split = _lanes(table, faces)
    x, converged = _interior_points(rows, kept, a, b, tau, split)
    return _lp_results(x, tau, converged)
