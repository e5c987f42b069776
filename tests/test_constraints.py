"""Constraint system generation, evaluation, and export."""

import math
import random
from fractions import Fraction

import pytest

import numpy as np

from dtrealize.constraints import (STENCIL, MissingVariable, build_const, build_constsqu,
                                   constsqu_stencil, evaluate, export_system,
                                   satisfied_exact, scale_assignment, system_from_json,
                                   system_to_json, system_to_smtlib2)
from dtrealize.instances import fan_triangulation, random_instance, sqrt_lower, sqrt_upper
from dtrealize.plane_graph import build_triangulation, reembed_with_outer_face
from dtrealize.realizer import realize

K4_ROT = {1: [2, 4, 3], 2: [3, 4, 1], 3: [1, 4, 2], 4: [1, 2, 3]}


def k4():
    return build_triangulation(4, K4_ROT, (1, 3, 2))


# Exact K4 realization: outer triangle (1,3,2) clockwise + inner point 4.
K4_POINTS = {1: (0, 10), 2: (-9, -5), 3: (9, -5), 4: (0, 0)}


def _const_assignment(G, points, centers):
    values = {}
    for i, (x, y) in points.items():
        values[("px", i)] = Fraction(x)
        values[("py", i)] = Fraction(y)
    for (i, j), (cx, cy) in centers.items():
        values[("cx", i, j)] = Fraction(cx)
        values[("cy", i, j)] = Fraction(cy)
    return values


def test_const_counts_k4():
    system = build_const(k4())
    assert len(system.variables) == 20
    assert len(system.constraints) == 27


def test_constsqu_counts_k4():
    system = build_constsqu(k4())
    assert len(system.variables) == 26
    assert len(system.constraints) == 6777


def test_variable_count_formulas():
    for n in (5, 7, 9):
        G = fan_triangulation(n)
        e = len(G.edge_pairs())
        assert len(build_const(G).variables) == 2 * n + 2 * e
        assert len(build_constsqu(G).variables) == 2 * n + 3 * e


def test_const_coefficients_bounded():
    for G in (k4(), fan_triangulation(6)):
        for c in build_const(G).constraints:
            for mono, coeff in c.poly:
                assert len(mono) <= 2
                assert -2 <= coeff <= 2


def test_constsqu_coefficients_bounded():
    for c in build_constsqu(k4()).constraints:
        for mono, coeff in c.poly:
            assert len(mono) <= 2
            assert -10 <= coeff <= 10


def test_constsqu_zero_offset_matches_const_turns():
    """The all-center-stencil copy of each turn constraint is the base one."""
    G = k4()
    base = {c.tag[1:4]: dict(c.poly) for c in build_const(G).constraints
            if c.tag[0] == "CON_TURN"}
    squ = build_constsqu(G)
    assert STENCIL[0] == (0, 0)
    hits = 0
    for c in squ.constraints:
        if c.tag[0] == "CONSQU_TURN" and c.tag[4:] == (0, 0, 0):
            assert dict(c.poly) == base[c.tag[1:4]]
            hits += 1
    assert hits == len(base) == 3


def test_relations_by_tag():
    system = build_const(k4())
    rel = {c.tag[0] for c in system.constraints}
    assert rel == {"CON_TURN", "CON_INTERIOR", "DIS_EQ", "DIS_EXCL"}
    for c in system.constraints:
        expected = {"CON_TURN": ">", "CON_INTERIOR": "<",
                    "DIS_EQ": "=", "DIS_EXCL": ">"}[c.tag[0]]
        assert c.relation == expected
    squ = build_constsqu(k4())
    for c in squ.constraints:
        expected = {"CONSQU_TURN": ">", "CONSQU_INTERIOR": "<",
                    "DISSQU_IN": "<=", "DISSQU_OUT": ">"}[c.tag[0]]
        assert c.relation == expected


def test_evaluate_known_k4_realization():
    G = k4()
    system = build_const(G)
    # exact witness centers realizing each edge of the placement
    centers = {
        (1, 2): (Fraction("-71/3"), Fraction(14)),
        (1, 3): (Fraction("71/3"), Fraction(14)),
        (1, 4): (Fraction(0), Fraction(5)),
        (2, 3): (Fraction(0), Fraction("-143/5")),
        (2, 4): (Fraction("-13/3"), Fraction("-14/5")),
        (3, 4): (Fraction("13/3"), Fraction("-14/5")),
    }
    values = _const_assignment(G, K4_POINTS, centers)
    report = evaluate(system, values)
    assert report.satisfied
    assert report.min_strict_margin > 0


def test_evaluate_detects_violation():
    G = k4()
    system = build_const(G)
    centers = {e: (Fraction(0), Fraction(0)) for e in
               [(1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4)]}
    values = _const_assignment(G, K4_POINTS, centers)
    report = evaluate(system, values)
    assert not report.satisfied
    assert report.failures()


def test_evaluate_missing_variable():
    system = build_const(k4())
    with pytest.raises(MissingVariable):
        evaluate(system, {})
    with pytest.raises(MissingVariable):
        satisfied_exact(constsqu_stencil(k4()), {})


def _stencil_dist_sq(values, v, edge):
    cx, cy = values[("cx", *edge)], values[("cy", *edge)]
    return [(values[("px", v)] + a - cx) ** 2 + (values[("py", v)] + b - cy) ** 2
            for a, b in STENCIL]


def _near_boundary(G, rng):
    """Realize's exact assignment, then single changes that land on or next to
    a constraint boundary: one witness radius just inside or outside each of
    its two bounds, and one point moved by +-1/D."""
    res = realize(G)
    H = reembed_with_outer_face(G, res.certificate.outer_face)
    exact = res.exact_assignment
    out = [exact]
    i, j = rng.choice(H.edge_pairs())
    max_in = max(d for v in (i, j) for d in _stencil_dist_sq(exact, v, (i, j)))
    min_out = min(d for k in range(1, H.n + 1) if k not in (i, j)
                  for d in _stencil_dist_sq(exact, k, (i, j)))
    for bound in (max_in, min_out):
        for r in (sqrt_lower(bound), sqrt_upper(bound)):
            out.append({**exact, ("r", i, j): r})
    D = math.lcm(*(x.denominator for x in exact.values()))
    for sign in (1, -1):
        var = (rng.choice(("px", "py")), rng.randrange(1, H.n + 1))
        out.append({**exact, var: exact[var] + Fraction(sign, D)})
    return H, out


def test_satisfied_exact_agrees_with_evaluate():
    """The stencil groups against the Fraction rows, near the boundary: same
    verdict, and every row value identical once denominators are cleared, on
    the int64 path and on the Python-int path alike."""
    rng = random.Random(0)
    verdicts, dtypes = set(), set()
    # the reference takes about 0.3 s per assignment on the larger systems
    # (30k rows at n = 9), so they check every other near-boundary change
    for G, step in ((k4(), 1), (fan_triangulation(6), 2), (random_instance(9, 1005)[1], 2)):
        H, assignments = _near_boundary(G, rng)
        assignments = assignments[::step]
        rows, stencil = build_constsqu(H), constsqu_stencil(H)
        # a denominator this large leaves no int64 bound, forcing Python ints
        var = ("px", 1)
        assignments.append({**assignments[0],
                            var: assignments[0][var] + Fraction(1, 2**61 - 1)})
        for values in assignments:
            report = evaluate(rows, values)
            assert satisfied_exact(stencil, values) == report.satisfied
            x, D = scale_assignment(stencil, values)
            scaled = stencil.values(x, D)
            assert [Fraction(int(t), D * D) for t in scaled] == \
                [r.residual for r in report.results]
            verdicts.add(report.satisfied)
            dtypes.add(x.dtype)
        assert x.dtype == object
    assert verdicts == {True, False}
    assert dtypes == {np.dtype(np.int64), np.dtype(object)}


def _worst_from_rows(system, x, unit):
    """Each group's least signed slack, read off the full offset table."""
    per_group = np.repeat([len(STENCIL) ** 3, len(STENCIL)],
                          [len(system.orient), len(system.disc)])
    negated = np.repeat(system.sign, per_group) == -1
    vals = system.values(x, unit)
    slack = np.where(negated, -vals, vals)
    split = len(system.orient) * len(STENCIL) ** 3
    return np.concatenate((slack[:split].reshape(len(system.orient), -1).min(axis=1),
                           slack[split:].reshape(len(system.disc), -1).min(axis=1)))


@pytest.mark.parametrize("G", [k4(), fan_triangulation(6), random_instance(9, 1005)[1]],
                         ids=["k4", "fan6", "random9"])
def test_worst_slacks_match_the_offset_table(G):
    """The corner and per-axis extremes give each group's minimum over all its
    offsets: exactly on int64 and Python-int vectors, to rounding on floats."""
    system = constsqu_stencil(G)
    rng = np.random.default_rng(11)
    nv = len(system.variables)
    for scale in (30, 3000):
        x = rng.uniform(-scale, scale, nv)
        assert np.allclose(system.worst_slacks(x, 1.0), _worst_from_rows(system, x, 1.0),
                           rtol=1e-12, atol=1e-9)
        xi = rng.integers(-scale, scale, nv)
        assert np.array_equal(system.worst_slacks(xi, 7), _worst_from_rows(system, xi, 7))
        xo = np.array([int(v) * 2**70 + 1 for v in xi], dtype=object)
        big = system.worst_slacks(xo, 3 * 2**69)
        assert big.dtype == object
        assert big.tolist() == _worst_from_rows(system, xo, 3 * 2**69).tolist()


def test_disc_minimum_off_the_corners():
    """An OUT disc whose vertex sits right on the witness center is nearest
    at the stencil's center offset: a corners-only rule would miss it."""
    system = constsqu_stencil(k4())
    d = int(np.flatnonzero(system.strict[len(system.orient):])[0])
    v, w, cx, cy, r = system.disc[d]
    x = np.arange(1, len(system.variables) + 1, dtype=np.int64) * 10
    x[v], x[w], x[r] = x[cx], x[cy], 1
    group = len(system.orient) + d
    disc_rows = system.values(x, 1)[len(system.orient) * len(STENCIL) ** 3:]
    own = disc_rows[d * len(STENCIL):(d + 1) * len(STENCIL)]
    corners = [own[k] for k, (a, b) in enumerate(STENCIL) if a and b]
    assert own.min() == own[STENCIL.index((0, 0))] == -1 < min(corners)
    assert system.worst_slacks(x, 1)[group] == -1
    assert not satisfied_exact(system, {var: Fraction(int(t))
                                        for var, t in zip(system.variables, x)})


def test_json_roundtrip():
    for build in (build_const, build_constsqu):
        system = build(k4())
        text = system_to_json(system)
        back = system_from_json(text)
        assert back == system
        assert system_to_json(back) == text


def test_json_rejects_unknown_schema():
    import json
    doc = json.loads(system_to_json(build_const(k4())))
    doc["schema"] = 999
    with pytest.raises(ValueError):
        system_from_json(json.dumps(doc))


def test_smt2_shape_and_determinism():
    system = build_const(k4())
    text = system_to_smtlib2(system)
    assert text == system_to_smtlib2(system)
    assert text.startswith("(set-logic QF_NRA)")
    assert text.count("(declare-const ") == len(system.variables)
    assert text.count("(assert ") == len(system.constraints)
    assert "(check-sat)" in text and "(get-model)" in text
    # negative integers use SMT unary-minus form
    assert "(- 2)" in text or "(- 1)" in text


def test_export_system_dispatch():
    system = build_const(k4())
    assert export_system(system, "json") == system_to_json(system)
    assert export_system(system, "smt2") == system_to_smtlib2(system)
    with pytest.raises(ValueError):
        export_system(system, "xml")


def test_graph_digest_distinguishes_graphs():
    assert build_const(k4()).graph_digest != build_const(fan_triangulation(5)).graph_digest
    assert build_const(k4()).graph_digest == build_const(k4()).graph_digest
