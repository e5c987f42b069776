"""Graph / points / certificate serialization and the SVG plot."""

import ast
import json
from fractions import Fraction
from pathlib import Path

import pytest

from dtrealize import formats, realizer
from dtrealize.geometry import pt
from dtrealize.instances import fan_triangulation
from dtrealize.realizer import realize


def test_formats_imports_no_solver_stack():
    tree = ast.parse(Path(formats.__file__).read_text())
    imported = {n.module or "" for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)}
    imported |= {a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names}
    assert not imported & {"realizer", "solver", "constraints", "numpy"}
    assert realizer.RealizationCertificate is formats.RealizationCertificate


def test_graph_json_round_trip():
    G = fan_triangulation(6)
    text = formats.graph_to_json(G)
    back = formats.graph_from_json(text)
    assert back.n == G.n
    assert back.rotation == G.rotation
    assert back.outer_face == G.outer_face
    assert formats.graph_to_json(back) == text


def _with(text: str, *path, value) -> str:
    """The JSON document ``text`` with the entry at ``path`` set to ``value``."""
    doc = json.loads(text)
    *keys, last = path
    node = doc
    for key in keys:
        node = node[key]
    node[last] = value
    return json.dumps(doc)


def test_graph_json_errors():
    with pytest.raises(formats.FormatError):
        formats.graph_from_json("not json at all {")
    with pytest.raises(formats.FormatError):
        formats.graph_from_json('{"n": 4}')
    with pytest.raises(formats.FormatError):
        formats.graph_from_json(
            '{"n": 4, "rotation": {"1": [2, 2], "2": [1]}, "outer_face": [1, 2]}')
    with pytest.raises(formats.FormatError):
        formats.graph_from_json(
            '{"n": 2, "rotation": {"1": [5], "5": [1]}, "outer_face": [1, 5]}')
    with pytest.raises(formats.FormatError):
        formats.graph_from_json('{"n": 4, "rotation": [1, 2], "outer_face": [1, 2, 3]}')
    # numbers that are not JSON integers are refused, not truncated to
    # another graph (n = 5.7 used to read as 5, neighbour 3.9 as 3)
    text = formats.graph_to_json(fan_triangulation(5))
    for *path, value in (("n", 5.7), ("n", 5.0), ("n", True), ("rotation", "1", 1, 3.9),
                         ("rotation", "2", 0, True), ("outer_face", 2, 3.6)):
        with pytest.raises(formats.FormatError, match="expected an integer"):
            formats.graph_from_json(_with(text, *path, value=value))
    # rotation keys are canonical decimal labels, each once: " 5 ", "01" and
    # "1_0" used to read as 5, 1 and 10, and "01" next to "1" dropped a rotation
    for key in (" 5 ", "01", "1_0", "+1", "\uff11"):
        doc = json.loads(text)
        doc["rotation"][key] = doc["rotation"].pop("1")
        with pytest.raises(formats.FormatError, match="vertex label"):
            formats.graph_from_json(json.dumps(doc))
    doc = json.loads(text)
    doc["rotation"]["01"] = doc["rotation"]["1"]
    with pytest.raises(formats.FormatError):
        formats.graph_from_json(json.dumps(doc))
    duplicate = text.replace('"1": [', '"1": [2, 5, 4, 3], "1": [', 1)
    assert duplicate != text
    with pytest.raises(formats.FormatError, match="duplicate key"):
        formats.graph_from_json(duplicate)
    with pytest.raises(formats.FormatError, match="vertex label 4 out of range 1..3"):
        formats.graph_from_json('{"n": 3, "rotation": {"1": [2, 3], "2": [3, 1], '
                                '"3": [1, 2], "4": []}, "outer_face": [1, 2, 3]}')
    # planar K4: its faces are triangles, so no 4-cycle is one of them
    k4 = {"n": 4, "rotation": {"1": [2, 4, 3], "2": [3, 4, 1], "3": [1, 4, 2], "4": [1, 2, 3]},
          "outer_face": [1, 2, 3, 4]}
    with pytest.raises(formats.FormatError, match="outer_face is not a face of the embedding"):
        formats.graph_from_json(json.dumps(k4))


def test_points_text_round_trip():
    points = [pt(3, -4), pt("1/3", "22/7")]
    text = formats.points_to_text(points)
    assert formats.points_from_text(text) == points


def test_points_text_comments_and_blanks():
    text = "# heading\n1 2\n\n3/2 -5   # trailing note\n"
    points = formats.points_from_text(text)
    assert points == [pt(1, 2), pt("3/2", -5)]


def test_points_text_errors():
    with pytest.raises(formats.FormatError):
        formats.points_from_text("1 2 3\n")
    with pytest.raises(formats.FormatError):
        formats.points_from_text("1 x\n")
    with pytest.raises(formats.FormatError):
        formats.points_from_text("1/0 2\n")


def test_certificate_round_trip():
    res = realize(fan_triangulation(5))
    assert res.status == "REALIZED"
    cert = res.certificate
    text = formats.certificate_to_json(cert)
    back = formats.certificate_from_json(text)
    assert back == cert
    assert all(isinstance(c, Fraction)
               for pair in back.witness_centers for c in pair)


def test_certificate_json_malformed():
    with pytest.raises(formats.FormatError):
        formats.certificate_from_json("{}")
    # a point [0.9, 0] used to read as (0, 0), an outer-face label 3.6 as 3
    text = formats.certificate_to_json(realize(fan_triangulation(5)).certificate)
    for *path, value in (("points", 0, [0.9, 0]), ("points", 1, [21.0, 21]),
                         ("points", 0, [0, False]), ("outer_face", 2, 3.6),
                         ("outer_face", 0, True)):
        with pytest.raises(formats.FormatError, match="expected an integer"):
            formats.certificate_from_json(_with(text, *path, value=value))
    # witness centers are "a" or "a/b" strings, as the writer emits them: a
    # float or boolean used to read as some other number, and "1/0" escaped
    # as ZeroDivisionError
    for center in ([0.1, True], [1, "2"], ["1/0", "0"], ["1/2", "1.5"], ["1_0", "0"],
                   [" 1", "0"], ["1/-2", "0"], ["1/2/3", "0"], [None, "0"]):
        with pytest.raises(formats.FormatError, match="rational"):
            formats.certificate_from_json(_with(text, "witness_centers", 0, value=center))
    for entry in ([1, None], 7, None):
        with pytest.raises(formats.FormatError, match="expected a string"):
            formats.certificate_from_json(_with(text, "transcript", 0, value=entry))


def test_svg_contains_structure():
    G = fan_triangulation(5)
    res = realize(G)
    svg = formats.certificate_to_svg(res.certificate, G.edge_pairs())
    assert svg.startswith("<svg")
    assert svg.count("<line") == len(G.edge_pairs())
    assert svg.count("<circle") == G.n
    assert "<polygon" in svg
