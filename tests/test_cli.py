"""CLI subcommands and their exit-code contract."""

import json
from dataclasses import fields

import pytest

from dtrealize import realizer
from dtrealize.cli import EXIT_INVALID, EXIT_OK, EXIT_USAGE, EXIT_VERIFY, build_parser, main
from dtrealize.constraints import graph_digest
from dtrealize.formats import certificate_from_json, graph_to_json
from dtrealize.plane_graph import build_triangulation, candidate_outer_faces, \
    reembed_with_outer_face
from dtrealize.realizer import RealizeConfig
from dtrealize.solver import SolverConfig


@pytest.fixture
def fan_file(tmp_path):
    path = tmp_path / "fan.json"
    assert main(["gen", "fan", "5", "--graph-out", str(path)]) == EXIT_OK
    return path


def test_gen_fan_and_check(fan_file, tmp_path):
    out = tmp_path / "report.json"
    assert main(["check", str(fan_file), "-o", str(out)]) == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["ok"] is True
    assert doc["violations"] == []


def test_gen_random_with_points(tmp_path):
    g = tmp_path / "g.json"
    p = tmp_path / "p.txt"
    assert main(["gen", "random", "6", "--graph-out", str(g),
                 "--points-out", str(p)]) == EXIT_OK
    assert main(["check", str(g)]) == EXIT_OK
    assert len(p.read_text().strip().splitlines()) == 6


def test_gen_stacked_is_seeded(tmp_path):
    paths = [tmp_path / f"g{k}.json" for k in range(3)]
    for path, seed in zip(paths, ("7", "7", "8")):
        assert main(["--seed", seed, "gen", "stacked", "12", "--graph-out", str(path)]) == EXIT_OK
        assert main(["check", str(path)]) == EXIT_OK
    assert paths[0].read_text() == paths[1].read_text() != paths[2].read_text()


def test_gen_rejects_small_n(tmp_path):
    assert main(["gen", "fan", "3", "--graph-out", str(tmp_path / "x")]) == EXIT_USAGE


def test_gen_rejects_negative_bound(tmp_path, capsys):
    g = tmp_path / "g.json"
    assert main(["gen", "random", "8", "--bound", "-1", "--graph-out", str(g)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert not g.exists()


def test_check_invalid_graph(tmp_path):
    rot = {1: [2, 4], 2: [3, 1], 3: [4, 2], 4: [1, 3]}
    G = build_triangulation(4, rot, (1, 2, 3, 4))
    path = tmp_path / "bad.json"
    path.write_text(graph_to_json(G))
    assert main(["check", str(path)]) == EXIT_INVALID


def test_missing_file_is_usage_error():
    assert main(["check", "/nonexistent/graph.json"]) == EXIT_USAGE


@pytest.mark.parametrize("command", [["check"], ["realize"], ["emit"]])
def test_graph_with_a_float_label_is_a_usage_error(fan_file, tmp_path, capsys, command):
    doc = json.loads(fan_file.read_text())
    doc["outer_face"][0] = 1.0
    path = tmp_path / "float.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out.json"
    assert main([*command, str(path), "-o", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert not out.exists()


def test_emit_json_and_smt2(fan_file, tmp_path, capsys):
    out = tmp_path / "sys.json"
    assert main(["emit", str(fan_file), "--flavor", "const",
                 "-o", str(out)]) == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["flavor"] == "CONST"
    err = capsys.readouterr().err
    assert "variables" in err and "constraints" in err

    out2 = tmp_path / "sys.smt2"
    assert main(["emit", str(fan_file), "--flavor", "constsqu",
                 "--format", "smt2", "-o", str(out2)]) == EXIT_OK
    assert out2.read_text().startswith("(set-logic QF_NRA)")


def test_emit_face_index_out_of_range(fan_file):
    # a fan fixes its own outer face: only index 0 exists
    assert main(["emit", str(fan_file), "--face-index", "7"]) == EXIT_USAGE


def test_emit_face_index_reembeds(tmp_path):
    """K4 has four candidate outer faces; --face-index 1 exports the system of
    the second one, re-embedded."""
    G = build_triangulation(4, {1: [2, 4, 3], 2: [3, 4, 1], 3: [1, 4, 2], 4: [1, 2, 3]},
                            (1, 3, 2))
    path = tmp_path / "k4.json"
    path.write_text(graph_to_json(G))
    digests = []
    for face in (0, 1):
        out = tmp_path / f"sys{face}.json"
        assert main(["emit", str(path), "--face-index", str(face), "-o", str(out)]) == EXIT_OK
        digests.append(json.loads(out.read_text())["graph_digest"])
    H = reembed_with_outer_face(G, candidate_outer_faces(G)[1])
    assert digests[1] == graph_digest(H) != digests[0]


def test_realize_verify_round_trip(fan_file, tmp_path):
    cert_path = tmp_path / "cert.json"
    svg_path = tmp_path / "plot.svg"
    assert main(["realize", str(fan_file), "-o", str(cert_path),
                 "--plot", str(svg_path)]) == EXIT_OK
    cert = certificate_from_json(cert_path.read_text())
    assert svg_path.read_text().startswith("<svg")

    pts_path = tmp_path / "pts.txt"
    pts_path.write_text("".join(f"{x} {y}\n" for x, y in cert.points))
    assert main(["verify", str(fan_file), str(pts_path)]) == EXIT_OK


def test_verify_rejects_wrong_points(fan_file, tmp_path):
    pts_path = tmp_path / "pts.txt"
    # collinear points cannot realize anything
    pts_path.write_text("".join(f"{i} {i}\n" for i in range(5)))
    out = tmp_path / "verdict.json"
    assert main(["verify", str(fan_file), str(pts_path), "-o", str(out)]) == EXIT_VERIFY
    doc = json.loads(out.read_text())
    assert doc["ok"] is False
    assert doc["failed_step"] == "NOT_GENERAL_POSITION"


def test_verify_strict_orientation_rejects_mirrored_points(fan_file, tmp_path):
    cert_path = tmp_path / "cert.json"
    assert main(["realize", str(fan_file), "-o", str(cert_path)]) == EXIT_OK
    cert = certificate_from_json(cert_path.read_text())
    pts_path = tmp_path / "mirrored.txt"
    pts_path.write_text("".join(f"{-x} {y}\n" for x, y in cert.points))
    assert main(["verify", str(fan_file), str(pts_path)]) == EXIT_OK
    out = tmp_path / "verdict.json"
    assert main(["verify", str(fan_file), str(pts_path), "--strict-orientation",
                 "-o", str(out)]) == EXIT_VERIFY
    assert json.loads(out.read_text())["failed_step"] == "HULL_MISMATCH"


def test_verify_requires_integer_points(fan_file, tmp_path):
    pts_path = tmp_path / "pts.txt"
    pts_path.write_text("1/2 0\n1 0\n2 0\n0 1\n0 2\n")
    assert main(["verify", str(fan_file), str(pts_path)]) == EXIT_USAGE


def test_verify_wrong_count(fan_file, tmp_path):
    pts_path = tmp_path / "pts.txt"
    pts_path.write_text("0 0\n1 0\n")
    assert main(["verify", str(fan_file), str(pts_path)]) == EXIT_USAGE


def test_realize_invalid_graph_exit(tmp_path):
    rot = {1: [2, 4], 2: [3, 1], 3: [4, 2], 4: [1, 3]}
    G = build_triangulation(4, rot, (1, 2, 3, 4))
    path = tmp_path / "bad.json"
    path.write_text(graph_to_json(G))
    out = tmp_path / "res.json"
    assert main(["realize", str(path), "-o", str(out)]) == EXIT_INVALID
    assert json.loads(out.read_text())["status"] == "INVALID_INPUT"


@pytest.mark.parametrize("flavor", ["const", "constsqu"])
def test_emit_invalid_graph_exit(tmp_path, capsys, flavor):
    """emit refuses what realize refuses: the inner face 1-2-3-4 is no triangle."""
    rot = {1: [2, 4], 2: [3, 1], 3: [4, 2], 4: [1, 3]}
    path = tmp_path / "bad.json"
    path.write_text(graph_to_json(build_triangulation(4, rot, (1, 2, 3, 4))))
    out = tmp_path / "sys.json"
    assert main(["emit", str(path), "--flavor", flavor, "-o", str(out)]) == EXIT_INVALID
    assert not out.exists()
    err = capsys.readouterr().err.splitlines()
    assert err and all(line.startswith("error: ") for line in err)
    assert any("NONTRIANGULAR_INNER_FACE" in line for line in err)


def test_seed_flag_deterministic(fan_file, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["--seed", "9", "realize", str(fan_file), "-o", str(a)]) == EXIT_OK
    assert main(["--seed", "9", "realize", str(fan_file), "-o", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_realize_solver_flags_reach_the_search(tmp_path, monkeypatch):
    graph = tmp_path / "fan6.json"
    assert main(["gen", "fan", "6", "--graph-out", str(graph)]) == EXIT_OK
    out = tmp_path / "res.json"
    configs = []
    solve = realizer.solve

    def recording(system, config, **kwargs):
        configs.append(config)
        return solve(system, config, **kwargs)

    monkeypatch.setattr(realizer, "solve", recording)
    main(["realize", str(graph), "--max-iterations", "0", "--restarts", "0", "-o", str(out)])
    assert configs and all(c == SolverConfig(max_iterations=0, restarts=0) for c in configs)
    assert main(["realize", str(graph), "-o", str(out)]) == EXIT_OK


@pytest.mark.parametrize("option", [
    ["--time-budget", "nan"],
    ["--time-budget", "-1"],
    ["--restarts", "-1"],
    ["--max-iterations", "-1"],
    ["--time-budget=-inf"],
])
def test_realize_rejects_invalid_options(fan_file, option, capsys):
    assert main(["realize", str(fan_file), *option]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_realize_options_are_pinned(fan_file):
    """The realize command's options and the config fields they set."""
    parser = build_parser()
    realize_parser = next(a for a in parser._actions if a.dest == "command").choices["realize"]
    flags = {s for a in realize_parser._actions for s in a.option_strings}
    assert flags == {"-h", "--help", "--time-budget", "--max-iterations", "--restarts",
                     "--plot", "-o", "--output"}
    assert {s for a in parser._actions for s in a.option_strings} == {"-h", "--help", "--seed"}
    assert [f.name for f in fields(SolverConfig)] == ["max_iterations", "restarts", "seed"]
    assert [f.name for f in fields(RealizeConfig)] == ["solver", "time_budget"]
    for removed in (["--margin", "1"], ["--strict-orientation"]):
        assert main(["realize", str(fan_file), *removed]) == EXIT_USAGE
