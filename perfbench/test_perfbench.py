"""Tests of the benchmark's own helpers: python3 -m pytest perfbench -q"""

import random
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import pytest

import exact
import tracing
import workloads
from dtrealize import formats, oracle, realizer, solver
from dtrealize.geometry import convex_hull, pt
from dtrealize.instances import fan_triangulation, random_instance
from dtrealize.plane_graph import validate_triangulation


def _span(name, start, end, parent=None):
    return tracing.Span(name, float(start), float(end), parent)


def test_self_time_of_nested_spans():
    spans = [
        _span("root", 0, 10),
        _span("a", 1, 4, parent=0),
        _span("a.child", 2, 3, parent=1),
        _span("b", 5, 9, parent=0),
        _span("other", 20, 21),
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0, 1.0]


def test_self_time_counts_overlapping_children_once():
    spans = [_span("root", 0, 10), _span("x", 2, 6, parent=0), _span("y", 4, 8, parent=0)]
    assert tracing.self_times(spans)[0] == 4.0


def test_layer_metrics_shares_and_counts():
    spans = [
        _span("realizer.realize", 0, 10),
        _span("constraints.build_constsqu", 1, 7, parent=0),
        _span("solver.solve.constsqu", 7, 9, parent=0),
        _span("solver.compile", 7, 8, parent=2),
    ]
    spans[1].attrs["rows"] = 100
    spans[2].attrs.update(iterations=0, exhausted=False)
    m = tracing.layer_metrics(spans, traced_wall=10.0, untraced_wall=9.0)
    assert m["constraints.build_constsqu_pct"] == pytest.approx(60.0)
    assert m["solver.solve_self_s"] == pytest.approx(1.0)
    assert m["realizer.self_s"] == pytest.approx(2.0)
    assert m["trace.overhead_pct"] == pytest.approx(10.0)
    assert m["constraints.build_constsqu_rows"] == 100
    assert m["solver.iterations.constsqu"] == 0
    assert m["solver.exhausted_ratio"] == 0.0


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_kleetope_is_a_triangulation_that_is_not_1_tough(seed):
    G, base = workloads.bipyramid_kleetope(seed)
    assert validate_triangulation(G).ok
    assert G.n == 11 and len(G.edge_pairs()) == 27 and len(G.faces) == 18
    assert len(base) == 5
    assert workloads.components_without(G.rotation, base) == 6


def test_toughness_count_on_a_1_tough_graph():
    # the octahedron: removing the poles leaves the equator cycle, removing
    # the equator leaves the two poles; never more parts than removed vertices
    faces = [(1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 2),
             (6, 3, 2), (6, 4, 3), (6, 5, 4), (6, 2, 5)]
    rotation = workloads.rotation_from_faces(faces)
    assert workloads.components_without(rotation, {1, 6}) == 1
    assert workloads.components_without(rotation, {2, 3, 4, 5}) == 2


@pytest.mark.parametrize("n,seed", [(5, 1001), (9, 1005), (12, 3)])
def test_generator_reproduces_random_instance(n, seed):
    points, G = random_instance(n, seed)
    mine = workloads.random_points(n, seed, 1000)
    assert mine == points
    assert formats.graph_to_json(workloads.delaunay_graph(mine)) == formats.graph_to_json(G)


@pytest.mark.parametrize("seed", range(6))
def test_exact_oracle_agrees_with_program_oracle(seed):
    import numpy as np
    rng = np.random.default_rng(seed)
    # small coordinates make collinear and cocircular subsets common
    points = [(int(x), int(y)) for x, y in rng.integers(0, 6, size=(9, 2))]
    pts = [pt(x, y) for x, y in points]
    assert exact.general_position(points) == oracle.general_position_check(pts).ok
    collinear = all(exact.orient(points[0], points[1], p) == 0 for p in points[2:])
    if len(set(points)) == len(points) and not collinear:
        assert exact.convex_hull(points) == tuple(convex_hull(pts))
    if exact.general_position(points):
        dt = oracle.delaunay(pts)
        assert sorted(exact.delaunay_faces(points)) == list(dt.faces)


def test_in_circle_sign_convention():
    a, b, c = (0, 0), (4, 0), (0, 4)
    assert exact.in_circle(a, b, c, (1, 1)) == 1
    assert exact.in_circle(c, b, a, (1, 1)) == 1
    assert exact.in_circle(a, b, c, (4, 4)) == 0
    assert exact.in_circle(a, b, c, (5, 5)) == -1


def test_predicted_steps_match_certify():
    inputs = workloads.build_verify_large(0)
    assert [i.expect for i in inputs][0] == "ACCEPT"
    small_points, G = random_instance(8, 5)
    mutations = [small_points[:-1], [small_points[1]] + small_points[1:],
                 [small_points[1], small_points[0]] + small_points[2:]]
    for points in mutations:
        step = exact.predict_failed_step(G.n, G.rotation, G.outer_face, points)
        res = realizer.certify(G, G.outer_face, points)
        assert step is not None and not res.ok and res.failed_step == step


def test_certificate_checks_accept_genuine_and_reject_broken():
    G = fan_triangulation(5)
    res = realizer.realize(G)
    assert res.status == "REALIZED"
    cert = res.certificate
    inp = workloads.Input("fan5", G, "REALIZED")
    assert workloads.judge_realize(inp, res).error is None
    bad = list(cert.witness_centers)
    bad[0] = (bad[0][0] + Fraction(1, 3), bad[0][1])
    assert exact.check_witness_centers(G.rotation, cert.points, bad) is not None
    swapped = [cert.points[1], cert.points[0]] + list(cert.points[2:])
    assert exact.check_realization(G.rotation, cert.outer_face, swapped) is not None
    unreal = workloads.Input("fan5", G, "NOT_REALIZABLE")
    assert workloads.judge_realize(unreal, res).error is not None


def test_wrappers_leave_certificates_unchanged_and_are_removed():
    G = workloads.relabel(fan_triangulation(6), random.Random(3))[0]
    plain = formats.certificate_to_json(realizer.realize(G).certificate)
    originals = (realizer.realize, realizer.build_constsqu, realizer.round_candidates,
                 solver.CompiledSystem, oracle.general_position_check)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        traced = formats.certificate_to_json(realizer.realize(G).certificate)
    assert traced.encode() == plain.encode()
    assert (realizer.realize, realizer.build_constsqu, realizer.round_candidates,
            solver.CompiledSystem, oracle.general_position_check) == originals
    names = {s.name for s in tracer.spans}
    assert {"realizer.realize", "constraints.build_const", "constraints.build_constsqu",
            "solver.solve.const", "solver.solve.constsqu", "solver.compile",
            "realizer.certify", "oracle.general_position", "oracle.delaunay",
            "realizer.round_candidates", "constraints.satisfied_exact"} <= names
    # one general-position check per certify() and one more inside each delaunay()
    m = tracing.layer_metrics(tracer.spans, 1.0, 1.0)
    delaunay_calls = sum(s.name == "oracle.delaunay" for s in tracer.spans)
    assert m["oracle.general_position_calls"] == m["realizer.certify_calls"] + delaunay_calls


def test_benchmark_json_lists_what_run_publishes():
    import json
    import run
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == tracing.PER_LAYER
    listed = [w["name"] for w in doc["workloads"]]
    assert listed == [w for w in run.WORKLOAD_NAMES if w in listed]
    # verify-large runs like the others but is not listed (see README.md)
    assert set(run.WORKLOAD_NAMES) - set(listed) == {"verify-large"}
    assert sorted(run.WORKLOAD_NAMES) == sorted(workloads.WORKLOADS)
