"""Graph / points / certificate serialization and the SVG plot."""

import ast
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


def test_svg_contains_structure():
    G = fan_triangulation(5)
    res = realize(G)
    svg = formats.certificate_to_svg(res.certificate, G.edge_pairs())
    assert svg.startswith("<svg")
    assert svg.count("<line") == len(G.edge_pairs())
    assert svg.count("<circle") == G.n
    assert "<polygon" in svg
