"""The angle LP, Rivin's volume maximisation and the face-by-face layout."""

import cmath
import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from dtrealize import angles
from dtrealize.instances import fan_triangulation, random_instance, stacked_triangulation
from dtrealize.plane_graph import _canon_cycle, candidate_outer_faces, reembed_with_outer_face

from test_acceptance import CASES
from test_realizer import bipyramid_kleetope


def _corner_angles(cs, points):
    """Per corner, the angle of a placement at that corner, in radians."""
    out = []
    for f in cs.faces:
        for k in range(3):
            p, q, r = (complex(*points[f[(k + d) % 3] - 1]) for d in range(3))
            out.append(abs(cmath.phase((r - p) / (q - p))))
    return np.array(out)


def _lp_graphs():
    graphs = [random_instance(n, seed)[1] for n, seed in CASES]
    graphs += [fan_triangulation(n) for n in range(4, 13)]
    return graphs + [bipyramid_kleetope()]


def _inner_corners(H):
    return angles.corners(H.n, H.inner_faces())


def _solve_with(monkeypatch, eliminated, table, face, enough=None):
    """``solve_angle_lp`` by the eliminated backend or by the dense one,
    whatever the LP's size."""
    monkeypatch.setattr(angles, "ELIMINATED_MIN_ROWS", 0 if eliminated else math.inf)
    return angles.solve_angle_lp(table, face, enough)


@dataclasses.dataclass(frozen=True)
class AngleLP:
    """An angle LP in standard form: minimise ``c @ x`` subject to
    ``A @ x == b`` and ``x >= 0``, with t + 1 at column ``tau``."""
    A: np.ndarray
    b: np.ndarray
    c: np.ndarray
    tau: int


def angle_lp(table, face):
    """The LP of outer face ``face`` as the dense backend holds it, cut from
    ``table``."""
    rows, kept, a, b, tau, _, _ = angles._cut(table, face)
    c = np.zeros(rows.shape[1])
    c[tau] = -1.0
    return AngleLP(angles._Dense(rows, kept, a, tau).A, b, c, tau)


def interior_point(A, b, c):
    """Mehrotra's predictor-corrector method for min c x, A x = b, x >= 0,
    written out for one dense LP: the reference for ``angles._mehrotra``.

    A must have full row rank. Returns the last primal iterate and whether
    it met ``LP_TOL`` (Nocedal and Wright, Numerical Optimization, 14.2).
    """
    m, n = A.shape
    AT = A.T
    AAT = A @ AT
    x = AT @ np.linalg.solve(AAT, b)
    y = np.linalg.solve(AAT, A @ c)
    s = c - AT @ y
    x += max(-1.5 * x.min(), 0.0)
    s += max(-1.5 * s.min(), 0.0)
    xs = x @ s
    x += 0.5 * xs / s.sum()
    s += 0.5 * xs / x.sum()
    b_scale = 1.0 + np.abs(b).max()
    c_scale = 1.0 + np.abs(c).max()
    diagonal = np.arange(m) * (m + 1)

    def step_length(v, dv):
        # v > 0 throughout, so the step to the boundary v + a dv = 0 is
        # -1 / min(dv / v) when that minimum is negative
        low = float((dv / v).min())
        return min(1.0, -1.0 / low) if low < 0 else 1.0

    for _ in range(angles.LP_MAX_ITERATIONS):
        rc = AT @ y + s - c
        mu = x @ s / n
        if (np.abs(A @ x - b).max() <= angles.LP_TOL * b_scale
                and np.abs(rc).max() <= angles.LP_TOL * c_scale and mu <= angles.LP_TOL):
            return x, True
        d = x / s
        M = (A * d) @ AT
        M.flat[diagonal] += angles.LP_REGULARIZATION * M.flat[diagonal].max()
        rhs = b - A @ (d * rc)
        try:
            ds = -rc - AT @ np.linalg.solve(M, rhs)
            dx = -x - d * ds
            ap, ad = step_length(x, dx), step_length(s, ds)
            mu_aff = (x + ap * dx) @ (s + ad * ds) / n
            sigma = (mu_aff / mu) ** 3
            w = (dx * ds - sigma * mu) / s
            dy = np.linalg.solve(M, rhs + A @ w)
        except np.linalg.LinAlgError:
            break
        ds = -rc - AT @ dy
        dx = -x - w - d * ds
        ap, ad = 0.995 * step_length(x, dx), 0.995 * step_length(s, ds)
        x = x + ap * dx
        y = y + ad * dy
        s = s + ad * ds
    return x, False


def _angle_lp_rows(H, cs):
    """The angle LP of H built row by row, the reference for the LP that
    ``angles._cut`` cuts from the graph's table.

    A row ``sum(angles) + k t (<=|==) r`` over corners becomes
    ``sum(angle - t) + (m + k) (t + 1) (+ slack) == r + m + k``, where m is
    the number of corners in the row.
    """
    n_corners = 3 * len(cs.faces)
    tau = n_corners
    hull = set(H.outer_face)
    rows = []   # corners, k, r, has slack
    for f in range(len(cs.faces)):
        rows.append(([3 * f, 3 * f + 1, 3 * f + 2], 0, 1.0, False))
    for v in range(1, H.n + 1):
        if v in hull:
            rows.append((cs.at_vertex[v], 1, 1.0, True))
        else:
            rows.append((cs.at_vertex[v], 0, 2.0, False))
    rows.append(([], 1, angles.T_CAP, True))
    for e in sorted(cs.opposite):
        if len(cs.opposite[e]) == 2:
            rows.append((cs.opposite[e], 1, 1.0, True))
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


def test_lp_table_cuts_the_row_by_row_lp():
    """Every candidate face's LP, cut from its graph's table, is the row by
    row LP bit for bit: the same arrays, dtypes and column tau."""
    graphs = _lp_graphs()
    graphs += [random_instance(n, s)[1] for n in range(4, 16) for s in range(4000, 4010)]
    for G in graphs:
        table = angles.lp_table(G)
        for face in candidate_outer_faces(G):
            H = reembed_with_outer_face(G, face)
            ref = _angle_lp_rows(H, _inner_corners(H))
            lp = angle_lp(table, H.outer_face)
            assert lp.tau == ref.tau
            for got, want in ((lp.A, ref.A), (lp.b, ref.b), (lp.c, ref.c)):
                assert got.dtype == want.dtype
                assert np.array_equal(got, want)


def test_the_dual_is_carried_per_table_row(monkeypatch):
    """Each face's dual, from either backend, read at the table rows of the
    row-by-row LP's rows (its faces, its vertices, the cap and its interior
    edges), is an optimal dual of that LP where the LP converged: A^T y <= c
    and b y = c x. It is 0 on the table rows the face's LP leaves out."""
    for G in _lp_graphs():
        table, faces = angles.lp_table(G), candidate_outer_faces(G)
        nf = len(table.cs.faces)
        for face in faces:
            H = reembed_with_outer_face(G, face)
            cs = _inner_corners(H)
            ref = _angle_lp_rows(H, cs)
            rows = [table.face_row[_canon_cycle(f)] for f in cs.faces]
            rows += list(range(nf, nf + G.n + 1))
            rows += [table.edge_row[e] for e in sorted(cs.opposite) if len(cs.opposite[e]) == 2]
            for eliminated in (False, True):
                got = _solve_with(monkeypatch, eliminated, table, face)
                assert not np.delete(got.dual, rows).any()
                if got.converged:
                    y = got.dual[rows]
                    assert (ref.A.T @ y - ref.c).max() <= 1e-8
                    assert abs(ref.b @ y + got.t_star + 1.0) <= 1e-6


def test_the_table_grows_linearly():
    """The table holds each column's row per block, not the rows times
    columns of a dense matrix: at n = 83 it takes under 0.25 MiB to build
    (tracemalloc peak), where a dense one took 2.85 MiB."""
    G = random_instance(83, 1000)[1]
    tracemalloc.start()
    try:
        table = angles.lp_table(G)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * 2 ** 20
    rows = len(table.r)
    columns = 2 * len(table.cs.faces) + 1 + rows
    for f in dataclasses.fields(table):
        value = getattr(table, f.name)
        if isinstance(value, np.ndarray):
            assert value.size < rows * columns


def test_a_realization_is_a_feasible_point_of_the_lp():
    """The generating points' own angles, with t their smallest slack, meet
    every row of the standard-form LP."""
    for n, seed in CASES[:12]:
        points, H = random_instance(n, seed)
        cs = _inner_corners(H)
        lp = angle_lp(angles.lp_table(H), H.outer_face)
        alpha = _corner_angles(cs, points) / math.pi
        hull = set(H.outer_face)
        slacks = [1 - alpha[cs.at_vertex[v]].sum() for v in sorted(hull)]
        slacks += [angles.T_CAP]
        slacks += [1 - alpha[cs.opposite[e]].sum() for e in sorted(cs.opposite)
                   if len(cs.opposite[e]) == 2]
        t = min(alpha.min(), *slacks)
        assert t > 0
        row_slacks = [s - t for s in slacks]
        x = np.concatenate([alpha - t, [t + 1], row_slacks])
        assert np.all(x >= 0)
        assert np.allclose(lp.A @ x, lp.b, atol=1e-9)


def test_t_star_agrees_with_linprog():
    """The interior-point method ends at a feasible point whose t matches
    linprog's optimum."""
    optimize = pytest.importorskip("scipy.optimize")
    for G in _lp_graphs():
        table = angles.lp_table(G)
        for face in candidate_outer_faces(G):
            lp = angle_lp(table, face)
            ref = optimize.linprog(lp.c, A_eq=lp.A, b_eq=lp.b, bounds=(0, None),
                                   method="highs")
            assert ref.status == 0
            x, converged = interior_point(lp.A, lp.b, lp.c)
            assert converged
            assert np.abs(lp.A @ x - lp.b).max() <= 1e-8 * (1 + np.abs(lp.b).max())
            assert x.min() >= -1e-9
            assert abs(x[lp.tau] - ref.x[lp.tau]) < 1e-6


def test_the_dense_backend_ends_where_interior_point_does(monkeypatch):
    """``_mehrotra`` on one LP held dense ends every
    candidate face's LP of the test graphs where ``interior_point`` ends it:
    the same convergence, t* within 1e-12 and the angles within a bound by
    graph size, 1e-10 up to n = 10 and 1e-9 up to n = 15 (they differ by up
    to 3.9e-11 at n = 5 and 2.0e-12 at n = 11, and agree bit for bit on most
    faces: the driver cubes sigma as an array, whose rounding can differ from
    the scalar cube)."""
    for G in _lp_graphs():
        table = angles.lp_table(G)
        angle_tol = 1e-10 if G.n <= 10 else 1e-9
        for face in candidate_outer_faces(G):
            lp = angle_lp(table, face)
            x, converged = interior_point(lp.A, lp.b, lp.c)
            got = _solve_with(monkeypatch, False, table, face)
            t = x[lp.tau] - 1
            assert got.converged == converged
            assert abs(got.t_star - t) <= 1e-12
            assert np.abs(got.angles - (x[:lp.tau] + t)).max() <= angle_tol


@pytest.mark.parametrize("levels", [1, 2], ids=["kleetope", "kleetope2"])
def test_face_lps_agree_with_linprog_on_every_face(levels):
    """Every candidate outer face of the Kleetope (18 faces, LPs of 53 rows,
    solved dense) and of its Kleetope (n = 29, 54 faces, 161 rows, solved
    eliminated), each solved alone by ``solve_angle_lp``, has t* within 1e-6
    of linprog's."""
    optimize = pytest.importorskip("scipy.optimize")
    G = bipyramid_kleetope(levels)
    table, faces = angles.lp_table(G), candidate_outer_faces(G)
    assert len(faces) == (18, 54)[levels - 1]
    for face in faces:
        got = angles.solve_angle_lp(table, face)
        lp = angle_lp(table, face)
        assert len(lp.b) == (53, 161)[levels - 1]
        ref = optimize.linprog(lp.c, A_eq=lp.A, b_eq=lp.b, bounds=(0, None), method="highs")
        assert ref.status == 0
        assert got.converged
        assert abs(got.t_star - (ref.x[lp.tau] - 1)) < 1e-6


def test_both_backends_agree_face_by_face(monkeypatch):
    """The eliminated backend ends each candidate outer face's LP where the
    dense one ends it: the same convergence, t* within 1e-12 and angles
    within a bound that grows with the graph on a maximal planar graph:
    1e-9 up to n = 15, 1e-8 on the Kleetope of the Kleetope (n = 29), where
    they differ by up to 4.6e-9. On a graph with one candidate face the
    optima can be degenerate (t* = 1/4 at the cap, fans), and they agree
    within ``LP_TOL``."""
    for G in _lp_graphs() + [bipyramid_kleetope(2)]:
        table, faces = angles.lp_table(G), candidate_outer_faces(G)
        if len(faces) > 1:
            t_tol, angle_tol = 1e-12, 1e-9 if G.n <= 15 else 1e-8
        else:
            t_tol = angle_tol = angles.LP_TOL
        for face in faces:
            got = _solve_with(monkeypatch, True, table, face)
            ref = _solve_with(monkeypatch, False, table, face)
            assert got.converged == ref.converged
            assert abs(got.t_star - ref.t_star) <= t_tol
            assert np.abs(got.angles - ref.angles).max() <= angle_tol


def _stop_graphs():
    """The graphs the decision stop is tested on: ``_lp_graphs()``, the
    Kleetope of the Kleetope and ``stacked_triangulation(20, s)``,
    s = 0..4, whose faces mostly have t* <= T_STAR_MIN."""
    return _lp_graphs() + [bipyramid_kleetope(2)] + [stacked_triangulation(20, s)
                                                     for s in range(5)]


@pytest.fixture(scope="module")
def stops():
    """Per face of ``_stop_graphs()`` and backend: the graph's table, the
    face, whether the backend is the eliminated one, and the face's LP solved
    with a stop that takes every iterate it is offered and without one."""
    out = []
    with pytest.MonkeyPatch.context() as monkeypatch:
        for G in _stop_graphs():
            table = angles.lp_table(G)
            for face in candidate_outer_faces(G):
                for eliminated in (False, True):
                    out.append((table, face, eliminated,
                                _solve_with(monkeypatch, eliminated, table, face, lambda lp: True),
                                _solve_with(monkeypatch, eliminated, table, face)))
    return out


def test_a_stop_bounds_t_star_from_above(stops):
    """Where a decision stop ends a face's solve, its bound is at most
    ``T_STAR_MIN`` and at least the t* of the solve run to ``LP_TOL``, less
    1e-9; the result is not converged. Every stop is on a face whose
    converged t* is <= T_STAR_MIN, and the Kleetope's face 0 has t* = -1/12
    (the 5 bipyramid vertices leave 6 components)."""
    stopped = 0
    for _, _, _, got, full in stops:
        assert full.converged
        if got.t_bound is None:
            continue
        stopped += 1
        assert not got.converged
        assert full.t_star <= angles.T_STAR_MIN
        assert full.t_star - 1e-9 <= got.t_bound <= angles.T_STAR_MIN
    assert stopped >= 290
    G = bipyramid_kleetope()
    face_0 = angles.solve_angle_lp(angles.lp_table(G), candidate_outer_faces(G)[0])
    assert face_0.converged and face_0.t_star == pytest.approx(-1 / 12, abs=1e-6)


def test_a_stop_bound_is_above_linprog_t_star(stops):
    """Each stop's bound is at least linprog's t* of the face's LP."""
    optimize = pytest.importorskip("scipy.optimize")
    optima = {}
    for table, face, _, got, _ in stops:
        if got.t_bound is None:
            continue
        key = (id(table), tuple(face))
        if key not in optima:
            lp = angle_lp(table, face)
            ref = optimize.linprog(lp.c, A_eq=lp.A, b_eq=lp.b, bounds=(0, None),
                                   method="highs")
            assert ref.status == 0
            optima[key] = ref.x[lp.tau] - 1.0
        assert got.t_bound >= optima[key]


def test_the_bound_holds_at_any_dual_point():
    """The weak-duality bound of a dual point y is at least t* wherever y
    lies: at the optimal dual of every candidate face of the Kleetope and of
    ``stacked_triangulation(12, 0..2)``, and at that dual moved by seeded
    noise of sizes 1e-4 to 1, which leaves some reduced costs negative, so
    that b y alone would fall below t*. Its bound on each column is
    min_i b_i / A_ij over the column's nonzeros, read off the dense LP."""
    rng = np.random.default_rng(0)
    below = 0
    for G in [bipyramid_kleetope()] + [stacked_triangulation(12, s) for s in range(3)]:
        table = angles.lp_table(G)
        for face in candidate_outer_faces(G):
            cut = angles._cut(table, face)
            lp = angle_lp(table, face)
            full = angles.solve_angle_lp(table, face)
            assert full.converged
            stop = angles._Stop(cut[:5], None)
            ratios = lp.b[:, None] / np.where(lp.A > 0, lp.A, np.nan)
            assert np.array_equal(stop.upper, np.nanmin(ratios, axis=0))
            y_star = full.dual[cut[6]]
            for scale in (0.0, 1e-4, 1e-2, 1.0):
                y = y_star + scale * rng.standard_normal(len(y_star))
                bound = stop.bound(y, lp.c - lp.A.T @ y)
                assert bound >= full.t_star - 1e-9
                below += -(lp.b @ y) - 1.0 < full.t_star - 1e-9
    assert below >= 50


def test_a_stop_leaves_every_other_solve_bit_for_bit(stops, monkeypatch):
    """A stop that takes any iterate it is offered leaves the solve as it is,
    bit for bit in t*, angles and dual, unless it ends it: so on every face
    whose t* is above ``T_STAR_MIN``. Where it ends a solve, a stop that
    answers no instead is asked once, and the solve runs on to the bits of
    the solve without a stop."""
    above = refused = 0
    for table, face, eliminated, taken, full in stops:
        results = [taken]
        if taken.t_bound is not None:
            asked = []
            results = [_solve_with(monkeypatch, eliminated, table, face,
                                   lambda lp: asked.append(lp.t_bound) and False)]
            assert len(asked) == 1 and asked[0] == taken.t_bound
            refused += 1
        else:
            above += full.t_star > angles.T_STAR_MIN
        for got in results:
            assert got.t_bound is None and got.converged == full.converged
            assert got.t_star == full.t_star
            assert np.array_equal(got.angles, full.angles)
            assert np.array_equal(got.dual, full.dual)
    assert above >= 200 and refused >= 290


def test_the_cut_is_the_lp_held_sparse():
    """``_cut`` holds exactly the row-by-row LP of each face: each column but
    tau as one nonzero per block of rows, the edge rows exactly the rows from
    its first edge row on, then column tau and b; ``_mehrotra`` takes c as -1
    at tau and 0 elsewhere, as the reference builds it."""
    graphs = [random_instance(n, s)[1] for n in range(4, 16) for s in range(4000, 4003)]
    for G in _lp_graphs() + graphs:
        table = angles.lp_table(G)
        for face in candidate_outer_faces(G):
            rows, values, a, b, tau, split, _ = angles._cut(table, face)
            H = reembed_with_outer_face(G, face)
            lp = _angle_lp_rows(H, _inner_corners(H))
            A = np.zeros_like(lp.A)
            for block in range(3):
                A[rows[block], np.arange(A.shape[1])] += values[block]
            A[:, tau] = a
            assert tau == lp.tau and np.array_equal(lp.c, -np.eye(len(lp.c))[tau])
            for got, want in ((A, lp.A), (b, lp.b)):
                assert np.array_equal(got, want)
            assert set(rows[2][values[2]]) == set(range(split, len(A)))
            assert (rows[:2][values[:2]] < split).all()


@pytest.mark.parametrize("failing_call", [2, 5])
def test_a_failed_one_face_solve_ends_with_its_last_iterate(monkeypatch, failing_call):
    """A LinAlgError in an iteration ends the solve, not converged: with the
    dense backend where ``interior_point`` failing at the same solve ends, and
    with the eliminated backend at a finite iterate. A solve that returns NaN
    instead ends each backend's solve at the same iterate, bit for bit."""
    G = random_instance(9, 1005)[1]
    table, face = angles.lp_table(G), candidate_outer_faces(G)[0]
    lp = angle_lp(table, face)
    solve, calls, failure = np.linalg.solve, [], []

    def failing(a, b):
        calls.append(a.shape)
        if len(calls) <= failing_call:
            return solve(a, b)
        if failure[0] == "raise":
            raise np.linalg.LinAlgError("forced")
        return np.full(len(b), np.nan)

    def solved(eliminated, how):
        calls.clear()
        failure[:] = [how]
        return _solve_with(monkeypatch, eliminated, table, face)

    monkeypatch.setattr(np.linalg, "solve", failing)
    failure.append("raise")
    x, converged = interior_point(lp.A, lp.b, lp.c)
    t = x[lp.tau] - 1
    got, eliminated = solved(False, "raise"), solved(True, "raise")
    assert not converged and not got.converged and not eliminated.converged
    assert abs(got.t_star - t) <= 1e-12
    assert np.abs(got.angles - (x[:lp.tau] + t)).max() <= 1e-9
    assert np.all(np.isfinite(eliminated.angles))
    for backend, raised in ((False, got), (True, eliminated)):
        nan = solved(backend, "nan")
        assert not nan.converged and nan.t_star == raised.t_star
        assert np.array_equal(nan.angles, raised.angles)
        assert np.array_equal(nan.dual, raised.dual)


def _fresh_interpreter(code, **env):
    """The output words of ``code`` run in a fresh interpreter, with the
    environment variables ``env`` added."""
    src = str(Path(angles.__file__).resolve().parents[1])
    env = {**os.environ, **env,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          timeout=120, check=True).stdout.split()


def test_the_backend_is_chosen_by_the_lp_size():
    """An LP of 53 rows is solved dense and one of 56 by the eliminated
    backend, and only the second loads ``lp_stacks`` (run in a fresh
    interpreter, as the tests themselves load it). A face LP has 6n - 3h - 4
    rows for h hull vertices, so no LP lies between the two."""
    assert 53 < angles.ELIMINATED_MIN_ROWS <= 56
    assert _fresh_interpreter(
        "import sys\n"
        "from dtrealize import angles\n"
        "from dtrealize.instances import random_instance\n"
        "mehrotra = angles._mehrotra\n"
        "def recorded(lp, b, tau, stop=None):\n"
        "    print(len(b), type(lp).__name__, 'dtrealize.lp_stacks' in sys.modules)\n"
        "    return mehrotra(lp, b, tau, stop)\n"
        "angles._mehrotra = recorded\n"
        "for seed in (1005, 1004):\n"
        "    G = random_instance(12, seed)[1]\n"
        "    angles.solve_angle_lp(angles.lp_table(G), G.outer_face)\n"
    ) == ["53", "_Dense", "False", "56", "_Eliminated", "True"]


def test_the_lp_never_returns_nan():
    """Face 0's LP of ``random_instance(120, 9, 10**6)`` (665 rows, solved
    eliminated) does not converge at one BLAS thread: its primal residual
    stalls, and d = x / s overflows about iteration 150. The solve ends at
    the last finite iterate, not converged, with t*, the angles and the dual
    finite, and t* near the optimum 1/9 (HiGHS). Whether this LP converges
    depends on the thread count (it does at two), so the test pins one, in a
    fresh interpreter."""
    t_star, converged, finite = _fresh_interpreter(
        "import numpy as np\n"
        "from dtrealize import angles\n"
        "from dtrealize.instances import random_instance\n"
        "G = random_instance(120, 9, 10 ** 6)[1]\n"
        "lp = angles.solve_angle_lp(angles.lp_table(G), G.outer_face)\n"
        "print(repr(lp.t_star), lp.converged,\n"
        "      np.isfinite(lp.angles).all() and np.isfinite(lp.dual).all())\n",
        OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    assert (converged, finite) == ("False", "True")
    assert abs(float(t_star) - 1 / 9) < 1e-3


@pytest.mark.parametrize("G", [random_instance(12, 1008)[1], random_instance(9, 4007)[1],
                               fan_triangulation(8)], ids=["random12", "random9", "fan8"])
def test_volume_maximum_lays_out_every_face_with_its_angles(G):
    """At Rivin's maximum the law-of-sines lengths agree across faces, so the
    breadth-first layout reproduces the angles of every face, also of faces
    it never placed from, and keeps each face counterclockwise."""
    cs = _inner_corners(G)
    lp = angles.solve_angle_lp(angles.lp_table(G), G.outer_face)
    assert lp.t_star > 0
    x = angles.maximise_volume(cs, lp.angles)
    assert x is not None and np.all(x > 0)
    sums = x.reshape(-1, 3).sum(axis=1)
    assert np.allclose(sums, math.pi, atol=1e-12)
    start = math.pi * lp.angles.reshape(-1, 3)
    start = (start / start.sum(axis=1, keepdims=True)).ravel() * math.pi
    for e, cs_e in cs.opposite.items():
        assert x[cs_e].sum() == pytest.approx(start[cs_e].sum(), abs=1e-9)
    points = angles.layout(G.n, cs, x)
    assert np.allclose(_corner_angles(cs, points), x, atol=1e-8)
    for f in cs.faces:
        (ax, ay), (bx, by), (cx, cy) = (points[v - 1] for v in f)
        assert (bx - ax) * (cy - ay) - (by - ay) * (cx - ax) > 0
