"""Refutation by a tough set: the check, the search from face 0's LP dual,
and the exhaustive oracle of ``tough_sets``."""

import time
from pathlib import Path

import pytest

from dtrealize import angles, realizer
from dtrealize.instances import fan_triangulation, random_instance, stacked_triangulation
from dtrealize.plane_graph import components_without, is_tough_set
from dtrealize.realizer import realize

import tough_sets
from test_acceptance import CASES
from test_realizer import bipyramid_kleetope, record_backends


@pytest.mark.parametrize("S", [
    [2, 3, 4, 5],           # a vertex dropped: 3 components
    [1, 2, 3, 4, 5, 6],     # a vertex added: 5 components
    [0, 1, 2, 3, 4, 5],     # a label outside 1..11
    [1, 2, 3, 4, 5, 12],
    [1, 2, 3, 4, 5, 5],     # a label repeated
    [1],                    # one vertex
], ids=["dropped", "added", "label-0", "label-12", "repeated", "one"])
def test_the_check_rejects_mutated_sets(S):
    """The 5 bipyramid vertices of the Kleetope leave 6 components; each
    mutation breaks exactly one rule of the check, and both the check and
    the oracle reject it."""
    G = bipyramid_kleetope()
    assert components_without(G, [1, 2, 3, 4, 5]) == 6
    assert is_tough_set(G, [1, 2, 3, 4, 5]) and tough_sets.is_tough(G.rotation, [1, 2, 3, 4, 5])
    assert not is_tough_set(G, S)
    assert not tough_sets.is_tough(G.rotation, S)


@pytest.mark.parametrize("levels", [1, 2])
def test_the_kleetope_is_refuted_at_face_0_by_the_eliminated_backend(monkeypatch, levels):
    """Both Kleetope levels answer UNKNOWN in under 1 s with a tough set at
    face 0, which the oracle confirms, and every later face listed as
    refuted. Both face-0 LPs, of 53 rows at level 1 and 161 at level 2, take
    the eliminated backend."""
    G = bipyramid_kleetope(levels)
    backends = record_backends(monkeypatch)
    t0 = time.perf_counter()
    res = realize(G)
    elapsed = time.perf_counter() - t0
    assert res.status == "UNKNOWN" and elapsed < 1.0
    assert backends == [angles._Eliminated]
    first, *rest = res.diagnostics
    assert first["solver_status"] == "ANGLE_LP"
    assert tough_sets.is_tough(G.rotation, first["tough_set"])
    if levels == 1:
        assert first["tough_set"] == [1, 2, 3, 4, 5]
    assert len(rest) == 2 * G.n - 5
    assert all(d == {"outer_face": d["outer_face"], "solver_status": "REFUTED"} for d in rest)


@pytest.fixture(scope="module")
def corpus_results():
    """``realize`` on the acceptance CASES with n <= 12, fans 4..12 and
    ``stacked_triangulation(10, s)`` for s = 0..19, small enough for the
    oracle's exhaustive search."""
    graphs = [random_instance(n, seed)[1] for n, seed in CASES if n <= 12]
    graphs += [fan_triangulation(n) for n in range(4, 13)]
    graphs += [stacked_triangulation(10, s) for s in range(20)]
    return [(G, realize(G)) for G in graphs]


def test_no_realized_graph_has_a_tough_set(corpus_results):
    """A graph with an outer cycle of length 4 or more is searched with the
    apex over that cycle (fan 4 itself has the tough set {1, 3})."""
    realized = [G for G, res in corpus_results if res.status == "REALIZED"]
    assert len(realized) > len(corpus_results) // 2
    assert any(len(G.outer_face) == 3 for G in realized)
    for G in realized:
        assert tough_sets.find_tough_set(tough_sets.closed(G.rotation, G.outer_face)) is None


def test_every_reported_tough_set_passes_the_oracle(corpus_results):
    reported = 0
    for G, res in corpus_results:
        sets = [d["tough_set"] for d in res.diagnostics if "tough_set" in d]
        assert len(sets) <= 1
        if sets:
            assert res.status == "UNKNOWN"
            assert tough_sets.is_tough(G.rotation, sets[0])
            reported += 1
    assert reported


def _refutations(graphs):
    """Per graph, the position of the face whose entry holds a tough set, and
    that entry, or None."""
    out = []
    for G in graphs:
        found = [(k, d) for k, d in enumerate(realize(G).diagnostics) if "tough_set" in d]
        assert all(tough_sets.is_tough(G.rotation, d["tough_set"]) for _, d in found)
        out.append(found[0] if found else (None, None))
    return out


def test_a_stop_refutes_at_the_face_converged_duals_do(monkeypatch):
    """On ``stacked_triangulation(n, s)``, n = 10, 20 and 30, s = 0..19,
    ``realize`` refutes at the same face, or at none, as when every face's
    LP is solved to ``LP_TOL`` and only its converged dual is read; most of
    the graphs are refuted, and most of those at a decision stop."""
    graphs = [stacked_triangulation(n, s) for n in (10, 20, 30) for s in range(20)]
    stopped = _refutations(graphs)
    solve_angle_lp = angles.solve_angle_lp
    monkeypatch.setattr(angles, "solve_angle_lp",
                        lambda table, face, enough=None: solve_angle_lp(table, face))
    converged = _refutations(graphs)
    assert [k for k, _ in stopped] == [k for k, _ in converged]
    assert all(d is None or "t_bound" not in d for _, d in converged)
    assert sum(k is not None for k, _ in stopped) >= 35
    assert sum(d is not None and "t_bound" in d for _, d in stopped) >= 20


def test_the_benchmark_kleetope_forms_4_normal_equations(monkeypatch):
    """Each seed 0..9 of the benchmark's Kleetope is refuted at face 0 at a
    decision stop, after forming its normal equations 4 times (the start and
    3 iterations), where the solve to ``LP_TOL`` forms them 7 times; its
    53-row LP takes the eliminated backend."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import workloads
    form, forms = angles._Eliminated.form, []

    def counted(lp, d, shift):
        forms.append(1)
        return form(lp, d, shift)

    monkeypatch.setattr(angles._Eliminated, "form", counted)
    solve_angle_lp = angles.solve_angle_lp
    for seed in range(10):
        G = workloads.bipyramid_kleetope(seed)[0]
        forms.clear()
        first = realize(G, realizer.RealizeConfig(time_budget=2)).diagnostics[0]
        assert "tough_set" in first and "t_bound" in first
        assert len(forms) == 4
        forms.clear()
        solve_angle_lp(angles.lp_table(G), realizer.candidate_outer_faces(G)[0])
        assert len(forms) == 7
