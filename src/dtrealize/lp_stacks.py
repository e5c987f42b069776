"""The angle LPs of many candidate outer faces of one graph, solved stacked.

``solve_angle_lps`` runs the Mehrotra method of ``angles.interior_point`` on
the LPs of several faces at once, one set of numpy calls per iteration, and
solves their normal equations through the LPs' sparsity. ``angles.FaceLPs``
uses it for the faces after the first of a maximal planar graph, and loads
this module only then.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .angles import (LP_MAX_ITERATIONS, LP_REGULARIZATION, LP_TOL, AngleLPResult, LPTable, _cut,
                     _lp_result)


def _blocks(table: LPTable) -> np.ndarray:
    """``_blocks(table)[i, col]``: the row of ``table.A``'s column col's
    nonzero among the face rows (i = 0), the vertex rows and the cap (1),
    then the edge rows (2), or -1; a column has at most one in each."""
    nf, m = len(table.cs.faces), len(table.A)
    edges = m - len(table.edge_row) - 1
    out = np.full((3, table.A.shape[1]), -1)
    for i, (lo, hi) in enumerate(((0, nf), (nf, edges), (edges, m - 1))):
        nonzero = table.A[lo:hi] != 0
        out[i] = np.where(nonzero.any(axis=0), lo + nonzero.argmax(axis=0), -1)
    # the cap's slack
    out[1, -1] = m - 1
    return out


def _lane(table: LPTable, blocks: np.ndarray, face: Sequence[int]) -> tuple:
    """``angle_lp(table, face)`` as ``solve_angle_lps`` holds it, with its
    rows in the order faces, vertices, the cap, then edges: for each column
    but tau and each block of rows (faces, vertices and the cap, then edges),
    the row of its nonzero, which is 1, and whether it has one, both (3, n),
    where a block without one gives its first row; then column tau, b, c, tau
    and the first edge row."""
    rows, cols, r, tau = _cut(table, face)
    split = tau // 3 + len(table.cs.at_vertex) + 1
    lp_row = np.cumsum(rows) - 1
    lp_row = np.where(lp_row < split - 1, lp_row, lp_row + 1)
    lp_row[-1] = split - 1
    t = blocks[:, cols]
    kept = (t >= 0) & rows[t]
    lane_rows = np.where(kept, lp_row[t], np.array([[0], [tau // 3], [split]]))
    # the m + k of each row, as angle_lp sums them
    a = np.bincount(lane_rows[kept], minlength=rows.sum()).astype(float)
    b = np.empty_like(a)
    b[lp_row[rows]] = r[rows]
    c = np.zeros(t.shape[1])
    c[tau] = -1.0
    return lane_rows, kept, a, b + a, c, tau, split


def _step_lengths(v: np.ndarray, dv: np.ndarray) -> np.ndarray:
    """``step_length`` of ``angles.interior_point`` per lane of stacks (k, n):
    -1 / min(dv / v) clipped to at most 1."""
    return -1.0 / np.minimum((dv / v).min(axis=1, keepdims=True), -1.0)


def _dots(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Per lane of stacks (k, n), the dot product u @ v, shape (k, 1)."""
    return (u * v).sum(axis=1, keepdims=True)


def _interior_points(rows: np.ndarray, nonzero: np.ndarray, a: np.ndarray, b: np.ndarray,
                     c: np.ndarray, tau: int, split: int) -> tuple[np.ndarray, np.ndarray]:
    """The stacked Mehrotra run of ``solve_angle_lps``, on its LPs as ``_lane``
    gives them: the columns but tau as rows and nonzero flags (k, 3, n), and
    column tau, a (k, m).

    The normal equations A D A^T y = r are solved as a bordered system with
    one more unknown, z = d_tau a^T y: the part of A D A^T without column tau
    is diagonal on the edge rows split.. (E), which are eliminated, leaving
    rows ..split (K) and z. Every pivot there is large, as each edge row has
    a basic variable; the cap row, whose slack goes to 0 where t* = 1/4,
    stays in K. In the layout of the matrix B of that system before the
    elimination, per lane, B[K + z, K + z] comes first, then B[K + z, E], then
    the diagonal of B[E, E].
    """
    k, m = b.shape
    n = c.shape[1]
    s1, e = split + 1, m - split
    size = s1 * s1 + s1 * e + e
    # where a column with nonzeros in blocks p and q adds to B
    index, both = [], []
    for p, q in ((0, 0), (0, 1), (1, 0), (1, 1), (0, 2), (1, 2), (2, 2)):
        index.append(rows[:, p] * s1 + rows[:, q] if q < 2 else
                     s1 * s1 + rows[:, p] * e + rows[:, q] - split if p < 2 else
                     s1 * s1 + s1 * e + rows[:, q] - split)
        both.append(nonzero[:, p] * nonzero[:, q])
    # the index stacks point into one flat array, each lane after the one before
    lane = np.arange(k)[:, None, None]
    index, both = np.stack(index, axis=1) + size * lane, np.stack(both, axis=1)
    rows = rows + m * lane
    diagonal = np.r_[0:s1 * split:s1 + 1, s1 * s1 + s1 * e:size]

    def A_dot(v: np.ndarray) -> np.ndarray:
        return (np.bincount(rows.ravel(), (nonzero * v[:, None]).ravel(), v.size // n * m)
                .reshape(-1, m) + a * v[:, tau:tau + 1])

    def AT_dot(v: np.ndarray) -> np.ndarray:
        out = (nonzero * v.ravel()[rows]).sum(axis=1)
        out[:, tau] = _dots(a, v)[:, 0]
        return out

    def bordered(d: np.ndarray, shift: bool) -> tuple[np.ndarray, ...]:
        """B, with E eliminated: S = B[K + z, K + z] - B[K + z, E] B[E, E]^-1 B[E, K + z],
        with B[K + z, E] and the diagonal h of B[E, E]."""
        lanes = len(d)
        B = np.bincount(index.ravel(), (both * d[:, None]).ravel(),
                        lanes * size).reshape(lanes, size)
        # column tau, in the border
        B[:, split:s1 * split:s1] = B[:, s1 * split:s1 * s1 - 1] = a[:, :split]
        B[:, s1 * s1 + split * e:s1 * s1 + s1 * e] = a[:, split:]
        B[:, s1 * s1 - 1] = -1.0 / d[:, tau]
        if shift:
            # angles.interior_point's shift: relative to the largest diagonal entry of A D A^T
            largest = (B[:, diagonal] + d[:, tau:tau + 1] * a ** 2).max(axis=1, keepdims=True)
            B[:, diagonal] += LP_REGULARIZATION * largest
        KE, h = B[:, s1 * s1:-e].reshape(lanes, s1, e), B[:, -e:, None]
        S = B[:, :s1 * s1].reshape(lanes, s1, s1)
        S -= (KE / h.transpose(0, 2, 1)) @ KE.transpose(0, 2, 1)
        return S, KE, h

    def solve(system: tuple[np.ndarray, ...], r: np.ndarray) -> np.ndarray:
        """y for A D A^T y = r, r (k, m, q)."""
        S, KE, h = system
        r_E = r[:, split:]
        rhs = -(KE @ (r_E / h))
        rhs[:, :split] += r[:, :split]
        yz = np.linalg.solve(S, rhs)
        return np.concatenate([yz[:, :split], (r_E - KE.transpose(0, 2, 1) @ yz) / h], axis=1)

    xy = solve(bordered(np.ones((k, n)), False), np.stack([b, A_dot(c)], axis=2))
    x, y = AT_dot(xy[:, :, 0]), xy[:, :, 1]
    s = c - AT_dot(y)
    x += np.maximum(-1.5 * x.min(axis=1, keepdims=True), 0.0)
    s += np.maximum(-1.5 * s.min(axis=1, keepdims=True), 0.0)
    xs = _dots(x, s)
    x += 0.5 * xs / s.sum(axis=1, keepdims=True)
    s += 0.5 * xs / x.sum(axis=1, keepdims=True)
    b_tol = LP_TOL * (1.0 + np.abs(b).max(axis=1, keepdims=True))
    c_tol = LP_TOL * (1.0 + np.abs(c).max(axis=1, keepdims=True))
    out, converged = np.empty((k, n)), np.zeros(k, dtype=bool)
    lanes = np.arange(k)
    for _ in range(LP_MAX_ITERATIONS):
        rc = AT_dot(y) + s - c
        mu = _dots(x, s) / n
        done = (mu <= LP_TOL).ravel()
        # the residual tests only matter once a lane's gap is small
        if done.any():
            done &= ((np.abs(A_dot(x) - b).max(axis=1, keepdims=True) <= b_tol)
                     & (np.abs(rc).max(axis=1, keepdims=True) <= c_tol)).ravel()
        if done.any():
            out[lanes[done]] = x[done]
            converged[lanes[done]] = True
            if done.all():
                return out, converged
            # a lane that has met the test leaves the stack
            keep = ~done
            lanes, rows, nonzero, index, both, a, b, c, x, y, s, rc, mu, b_tol, c_tol = (
                v[keep] for v in (lanes, rows, nonzero, index, both, a, b, c, x, y, s, rc, mu,
                                  b_tol, c_tol))
            moved = (np.arange(len(lanes)) - np.flatnonzero(keep))[:, None, None]
            rows, index = rows + m * moved, index + size * moved
        d = x / s
        system = bordered(d, True)
        rhs = b - A_dot(d * rc)
        ds = -rc - AT_dot(solve(system, rhs[:, :, None])[:, :, 0])
        dx = -x - d * ds
        ap, ad = _step_lengths(x, dx), _step_lengths(s, ds)
        mu_aff = _dots(x + ap * dx, s + ad * ds) / n
        sigma = (mu_aff / mu) ** 3
        w = (dx * ds - sigma * mu) / s
        dy = solve(system, (rhs + A_dot(w))[:, :, None])[:, :, 0]
        # freed before the next iteration builds its own
        del system
        ds = -rc - AT_dot(dy)
        dx = -x - w - d * ds
        ap, ad = 0.995 * _step_lengths(x, dx), 0.995 * _step_lengths(s, ds)
        x = x + ap * dx
        y = y + ad * dy
        s = s + ad * ds
    out[lanes] = x
    return out, converged


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
    blocks = _blocks(table)
    lanes = [_lane(table, blocks, face) for face in faces]
    if len({(lane[0].shape, lane[3].shape, lane[5:]) for lane in lanes}) > 1:
        raise ValueError("the faces' LPs differ in layout")
    tau, split = lanes[0][5:]
    stacks = [np.array(v) for v in list(zip(*lanes))[:5]]
    del lanes
    x, converged = _interior_points(*stacks, tau, split)
    return [_lp_result(xi, tau, ok) for xi, ok in zip(x, converged)]
