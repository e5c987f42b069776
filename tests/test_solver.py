"""Penalty loss, analytic gradients, and the descent loop."""

import math
import time
from fractions import Fraction
from functools import partial

import numpy as np
import pytest

from dtrealize.angles import lp_table, solve_angle_lp
from dtrealize.constraints import STENCIL, Constraint, ConstraintSystem, StencilSystem, \
    build_const, build_constsqu, constsqu_stencil
from dtrealize.instances import fan_triangulation, random_instance
from dtrealize.plane_graph import build_triangulation
from dtrealize.realizer import _angle_warm_start, certify
from dtrealize.solver import (DENOMINATORS, MARGIN, CompiledSystem, SolverConfig, initialize,
                              penalty, penalty_grad, round_candidates, satisfied, solve)

K4_ROT = {1: [2, 4, 3], 2: [3, 4, 1], 3: [1, 4, 2], 4: [1, 2, 3]}
# K4's outer triangle on the unit circle, vertex 4 at its center
K4_TRIANGLE = [(0.0, 1.0), (-math.sqrt(3) / 2, -0.5), (math.sqrt(3) / 2, -0.5), (0.0, 0.0)]
# fan 6's six vertices on the unit circle, clockwise from the top
HEXAGON = [(math.sin(k * math.pi / 3), math.cos(k * math.pi / 3)) for k in range(6)]


def k4():
    return build_triangulation(4, K4_ROT, (1, 3, 2))


def _toy_system(relation: str) -> ConstraintSystem:
    """Single-constraint system over one variable x."""
    c = Constraint(((((("x",),), 1),)), relation, ("TOY",))
    return ConstraintSystem(((("x",),)), (c,), "CONST", "toy")


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(restarts=-1)
    with pytest.raises(ValueError):
        SolverConfig(max_iterations=-1)


def _toy_penalty(relation: str, x: float, margin: float) -> tuple[float, float]:
    """Loss and d loss/dx of the toy system at x."""
    loss, grad = CompiledSystem(_toy_system(relation)).loss_grad(np.array([x]), margin)
    return loss, float(grad[0])


def test_penalty_hinge_example():
    # x > 0 at x = -1 with margin 1: hinge is 2, loss 4, d loss/dx = -4
    assert _toy_penalty(">", -1.0, margin=1.0) == (4.0, -4.0)


def test_penalty_zero_at_satisfied():
    assert _toy_penalty(">", 2.0, margin=1.0) == (0.0, 0.0)


def test_penalty_equality_residual():
    assert _toy_penalty("=", 3.0, margin=1.0) == (9.0, 6.0)
    # an equality is not hinged: below zero only its residual counts
    assert _toy_penalty("=", -3.0, margin=1.0) == (9.0, -6.0)


def test_penalty_nonstrict_uses_zero_margin():
    assert _toy_penalty(">=", 0.0, margin=5.0)[0] == 0.0


def _penalty_of(system):
    """(loss, loss_grad, variable count) of the stencil penalty or of the compiled rows."""
    if isinstance(system, StencilSystem):
        return partial(penalty, system), partial(penalty_grad, system), len(system.variables)
    comp = CompiledSystem(system)
    return comp.loss, comp.loss_grad, comp.nv


def _central_difference(loss, vec, margin, h=1e-6):
    out = np.zeros_like(vec)
    for i in range(len(vec)):
        up = vec.copy()
        dn = vec.copy()
        up[i] += h
        dn[i] -= h
        out[i] = (loss(up, margin) - loss(dn, margin)) / (2 * h)
    return out


@pytest.mark.parametrize("build", [build_const, build_constsqu, constsqu_stencil])
def test_gradient_matches_finite_differences(build):
    system = build(k4())
    loss, loss_grad, nv = _penalty_of(system)
    rng = np.random.default_rng(42)
    for _ in range(10):
        vec = rng.uniform(-8, 8, nv)
        _, grad = loss_grad(vec, margin=1.0)
        fd = _central_difference(loss, vec, 1.0)
        denom = np.maximum(1.0, np.maximum(np.abs(grad), np.abs(fd)))
        assert float(np.max(np.abs(grad - fd) / denom)) < 1e-5


def _close(a, b, rel=1e-9):
    return float(np.max(np.abs(a - b))) <= rel * max(1.0, float(np.max(np.abs(b))))


@pytest.mark.parametrize("G", [k4(), fan_triangulation(6), random_instance(9, 1005)[1]],
                         ids=["k4", "fan6", "random9"])
def test_stencil_matches_compiled_rows(G):
    """The stencil groups evaluate to the rows of build_constsqu, with the same
    loss, gradient and satisfaction semantics, up to float rounding."""
    system = constsqu_stencil(G)
    assert system.variables == build_constsqu(G).variables
    rows = CompiledSystem(build_constsqu(G))
    # per row, its group's sign and strictness; with no equality rows the
    # pair names the relation
    per_group = np.repeat([len(STENCIL) ** 3, len(STENCIL)],
                          [len(system.orient), len(system.disc)])
    assert not rows.is_eq.any()
    assert system.sign.dtype == np.float64 and system.strict.dtype == bool
    assert np.array_equal(np.repeat(system.sign, per_group), rows.sign)
    assert np.array_equal(np.repeat(system.strict, per_group), rows.strict)
    rng = np.random.default_rng(7)
    for scale in (30, 300, 3000):
        vec = rng.uniform(-scale, scale, rows.nv)
        assert _close(system.values(vec, 1.0), rows.values(vec))
        for margin in (1.0, 50.0):
            la, ga = penalty_grad(system, vec, margin)
            lb, gb = rows.loss_grad(vec, margin)
            assert la == pytest.approx(lb, rel=1e-9)
            assert _close(ga, gb)
            assert penalty(system, vec, margin) == la
            ok_a, mm_a = satisfied(system, vec, margin)
            ok_b, mm_b = rows.satisfied(vec, margin)
            assert ok_a == ok_b and mm_a == pytest.approx(mm_b, rel=1e-9, abs=1e-9)


def test_solve_descends_on_the_stencil():
    """From K4's triangle around its center ConstSqu needs descent steps; the
    stencil path reaches an assignment that the compiled rows accept too."""
    G = k4()
    out = solve(constsqu_stencil(G), SolverConfig(seed=3), G=G, initial_points=K4_TRIANGLE)
    assert out.status == "SATISFIED_FLOAT" and out.iterations > 0
    rows = build_constsqu(G)
    vec = np.asarray([out.assignment[v] for v in rows.variables])
    assert CompiledSystem(rows).satisfied(vec, 1.0)[0]


def test_loss_zero_iff_satisfied():
    system = build_constsqu(k4())
    comp = CompiledSystem(system)
    rng = np.random.default_rng(1)
    for _ in range(20):
        vec = rng.uniform(-50, 50, comp.nv)
        loss = comp.loss(vec, 1.0)
        ok, _ = comp.satisfied(vec, 1.0)
        assert (loss == 0.0) == ok


def test_initialize_deterministic_and_complete():
    G = fan_triangulation(6)
    system = constsqu_stencil(G)
    a = initialize(G, HEXAGON)
    b = initialize(G, HEXAGON)
    assert a == b
    assert set(a) == set(system.variables)


def test_initialize_accepts_warm_points():
    # the start keeps the points as they are
    G = k4()
    warm = [(0.0, 10.0), (-9.0, -5.0), (9.0, -5.0), (0.0, 0.0)]
    a = initialize(G, warm)
    assert (a[("px", 1)], a[("py", 1)]) == (0.0, 10.0)


def test_initialize_starts_from_the_certified_witness_discs():
    """The start's witness centers follow certify()'s rule, here on K4's
    integer realization."""
    G = k4()
    points = [(0, 10), (-9, -5), (9, -5), (0, 0)]
    start = initialize(G, points)
    cert = certify(G, G.outer_face, points)
    assert cert.ok
    for (i, j), (cx, cy) in zip(G.edge_pairs(), cert.witness_centers):
        assert start[("cx", i, j)] == pytest.approx(float(cx), rel=1e-12)
        assert start[("cy", i, j)] == pytest.approx(float(cy), rel=1e-12)
        assert start[("r", i, j)] == pytest.approx(math.dist((cx, cy), points[i - 1]) + 2)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_initialize_rejects_non_finite_points(bad):
    G = k4()
    warm = [(0.0, 10.0), (-9.0, -5.0), (9.0, bad), (0.0, 0.0)]
    with pytest.raises(ValueError, match="finite"):
        initialize(G, warm)


def test_initialize_rejects_coincident_points():
    warm = [(0.0, 10.0), (-9.0, -5.0), (0.0, 10.0), (0.0, 0.0)]
    with pytest.raises(ValueError, match="distinct"):
        initialize(k4(), warm)


def test_solve_deterministic():
    G = k4()
    system = constsqu_stencil(G)
    cfg = SolverConfig(seed=3)
    out1 = solve(system, cfg, G=G, initial_points=K4_TRIANGLE)
    out2 = solve(system, cfg, G=G, initial_points=K4_TRIANGLE)
    assert out1.status == out2.status == "SATISFIED_FLOAT"
    assert out1.assignment == out2.assignment
    assert out1.iterations == out2.iterations
    assert out1.restart_index == out2.restart_index


def test_solve_warm_start_zero_iterations():
    G = k4()
    system = constsqu_stencil(G)
    # an exact realization: satisfied immediately, no descent needed
    warm = [(0.0, 10.0), (-9.0, -5.0), (9.0, -5.0), (0.0, 0.0)]
    out = solve(system, SolverConfig(), G=G, initial_points=warm)
    assert out.status == "SATISFIED_FLOAT"
    assert out.iterations == 0


def test_solve_checks_a_satisfied_start_once(monkeypatch):
    """A start that already satisfies ConstSqu costs one worst-slack pass over
    the stencil groups and no row evaluation: the check that accepts it also
    gives its min_margin."""
    G = fan_triangulation(6)
    warm, _ = _angle_warm_start(G, solve_angle_lp(lp_table(G), G.outer_face))
    system = constsqu_stencil(G)
    start = initialize(G, warm)
    vec = np.asarray([start[v] for v in system.variables])
    expected = satisfied(system, vec, MARGIN)[1]
    calls = {"blocks": 0, "worst_slacks": 0}

    def counted(name):
        real = getattr(StencilSystem, name)

        def wrapper(self, *args, **kwargs):
            calls[name] += 1
            return real(self, *args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(StencilSystem, name, counted(name))
    out = solve(system, SolverConfig(), G=G, initial_points=warm)
    assert calls == {"blocks": 0, "worst_slacks": 1}
    assert out.status == "SATISFIED_FLOAT" and out.iterations == 0
    assert out.min_margin == expected


def _fan6_hexagon():
    """Fan 6 and its ConstSqu stencil, whose start from the regular hexagon
    is unsatisfied: the hexagon puts the fan's six vertices on one circle."""
    G = fan_triangulation(6)
    system = constsqu_stencil(G)
    start = initialize(G, HEXAGON)
    vec = np.asarray([start[v] for v in system.variables])
    assert not satisfied(system, vec, MARGIN)[0]
    return G, system


def test_solve_exhausted_with_zero_budget():
    # the start is unsatisfied, and no iterations may run
    G, system = _fan6_hexagon()
    out = solve(system, SolverConfig(max_iterations=0, restarts=0), G=G,
                initial_points=HEXAGON)
    assert out.status == "EXHAUSTED"
    assert out.iterations == 0 and out.restart_index == 0


def test_solve_monotone_best_loss():
    # EXHAUSTED outcomes still report the best assignment found
    G, system = _fan6_hexagon()
    out = solve(system, SolverConfig(max_iterations=5, restarts=1), G=G,
                initial_points=HEXAGON)
    assert out.status in ("SATISFIED_FLOAT", "EXHAUSTED")
    assert set(out.assignment) == set(system.variables)
    assert all(math.isfinite(x) for x in out.assignment.values())


def test_round_candidates_stream():
    # one candidate per denominator bound, drawn lazily in ascending order
    cands = round_candidates({("x",): 1 / 3})
    assert next(cands)[("x",)] == 0
    assert next(cands)[("x",)] == Fraction(1, 3)
    assert len(list(cands)) == len(DENOMINATORS) - 2


def test_round_candidates_exact_reproduction():
    assert DENOMINATORS[0] == 1
    cands = list(round_candidates({("x",): 3.0}))
    assert cands[0][("x",)] == 3
    assert len(cands) == len(DENOMINATORS)


def test_solve_stops_at_past_deadline():
    G, system = _fan6_hexagon()
    out = solve(system, SolverConfig(seed=3), G=G, initial_points=HEXAGON,
                deadline=time.monotonic() - 1)
    assert out.status == "EXHAUSTED"
    assert out.iterations <= 1
