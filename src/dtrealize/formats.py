"""File formats: graph JSON, points text, certificate JSON, SVG plots."""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .geometry import RatPoint
from .plane_graph import PlaneTriangulation, build_triangulation


class FormatError(ValueError):
    pass


@dataclass(frozen=True)
class RealizationCertificate:
    points: tuple[tuple[int, int], ...]
    outer_face: tuple[int, ...]
    witness_centers: tuple[tuple[Fraction, Fraction], ...]  # per sorted edge
    transcript: tuple[str, ...]


def _int(value) -> int:
    """A JSON integer as it is; a float (even 4.0) or a boolean is an error."""
    if type(value) is not int:
        raise FormatError(f"expected an integer, got {json.dumps(value)}")
    return value


def _str(value) -> str:
    if type(value) is not str:
        raise FormatError(f"expected a string, got {json.dumps(value)}")
    return value


def _unique_keys(pairs: list) -> dict:
    """``json.loads``'s object_pairs_hook: a key may appear only once."""
    if len(doc := dict(pairs)) != len(pairs):
        raise FormatError(f"duplicate key in {json.dumps([k for k, _ in pairs])}")
    return doc


def _label(key: str) -> int:
    """A rotation key: canonical decimal digits only, so no two keys name one vertex."""
    if not re.fullmatch(r"0|[1-9][0-9]*", key):
        raise FormatError(f"expected a vertex label, got key {json.dumps(key)}")
    return int(key)


def _rat(value) -> Fraction:
    """A rational as ``_rat_str`` writes it: a string "a" or "a/b", b != 0."""
    match = re.fullmatch(r"(-?[0-9]+)(?:/([0-9]+))?", value) if type(value) is str else None
    if match is None or match[2] is not None and int(match[2]) == 0:
        raise FormatError(f'expected a rational "a" or "a/b", got {json.dumps(value)}')
    return Fraction(int(match[1]), int(match[2] or 1))


# --- graph JSON ---------------------------------------------------------

def graph_document(G: PlaneTriangulation) -> dict:
    """The graph JSON object, also hashed by ``constraints.graph_digest``."""
    return {
        "n": G.n,
        "rotation": {str(u): G.rotation[u] for u in sorted(G.rotation)},
        "outer_face": list(G.outer_face),
    }


def graph_to_json(G: PlaneTriangulation) -> str:
    return json.dumps(graph_document(G), indent=1) + "\n"


def graph_from_json(text: str) -> PlaneTriangulation:
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as e:
        raise FormatError(f"invalid JSON: {e}") from e
    try:
        n = _int(doc["n"])
        rotation = {_label(k): [_int(x) for x in v] for k, v in doc["rotation"].items()}
        outer = [_int(x) for x in doc["outer_face"]]
    except (AttributeError, KeyError, TypeError, ValueError) as e:
        raise FormatError(f"malformed graph document: {e}") from e
    for u, nbrs in rotation.items():
        if not 1 <= u <= n:
            raise FormatError(f"vertex label {u} out of range 1..{n}")
        for v in nbrs:
            if not 1 <= v <= n:
                raise FormatError(f"neighbor label {v} of {u} out of range 1..{n}")
        if len(set(nbrs)) != len(nbrs):
            raise FormatError(f"duplicate neighbor in rotation at {u}")
    try:
        return build_triangulation(n, rotation, outer)
    except ValueError as e:
        raise FormatError(str(e)) from e


# --- points text --------------------------------------------------------

def _rat_str(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def points_to_text(points: Sequence[tuple]) -> str:
    lines = [f"{_rat_str(Fraction(x))} {_rat_str(Fraction(y))}" for x, y in points]
    return "\n".join(lines) + "\n"


def points_from_text(text: str) -> list[RatPoint]:
    points = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        parts = body.split()
        if len(parts) != 2:
            raise FormatError(f"line {lineno}: expected two tokens, got {len(parts)}")
        try:
            points.append(RatPoint(Fraction(parts[0]), Fraction(parts[1])))
        except (ValueError, ZeroDivisionError) as e:
            raise FormatError(f"line {lineno}: {e}") from e
    return points


# --- certificate JSON ---------------------------------------------------

def certificate_to_json(cert: RealizationCertificate) -> str:
    doc = {
        "points": [[x, y] for x, y in cert.points],
        "outer_face": list(cert.outer_face),
        "witness_centers": [[_rat_str(cx), _rat_str(cy)]
                            for cx, cy in cert.witness_centers],
        "transcript": list(cert.transcript),
    }
    return json.dumps(doc, indent=1) + "\n"


def certificate_from_json(text: str) -> RealizationCertificate:
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
        return RealizationCertificate(
            tuple((_int(x), _int(y)) for x, y in doc["points"]),
            tuple(_int(v) for v in doc["outer_face"]),
            tuple((_rat(cx), _rat(cy)) for cx, cy in doc["witness_centers"]),
            tuple(_str(line) for line in doc["transcript"]),
        )
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as e:
        raise FormatError(f"malformed certificate: {e}") from e


# --- SVG plot -----------------------------------------------------------

def certificate_to_svg(cert: RealizationCertificate,
                       edges: Sequence[tuple[int, int]], size: int = 640) -> str:
    """Static picture of a certificate: points, edges, hull cycle."""
    xs = [p[0] for p in cert.points]
    ys = [p[1] for p in cert.points]
    span = max(max(xs) - min(xs), max(ys) - min(ys), 1)
    pad = 0.07 * span

    def sx(x):
        return (x - min(xs) + pad) / (span + 2 * pad) * size

    def sy(y):
        return size - (y - min(ys) + pad) / (span + 2 * pad) * size

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}">']
    for i, j in edges:
        a, b = cert.points[i - 1], cert.points[j - 1]
        parts.append(f'<line x1="{sx(a[0]):.1f}" y1="{sy(a[1]):.1f}" '
                     f'x2="{sx(b[0]):.1f}" y2="{sy(b[1]):.1f}" '
                     'stroke="steelblue" stroke-width="1.5"/>')
    hull = list(cert.outer_face)
    hull_pts = " ".join(f"{sx(cert.points[v - 1][0]):.1f},{sy(cert.points[v - 1][1]):.1f}"
                        for v in hull)
    parts.append(f'<polygon points="{hull_pts}" fill="none" stroke="crimson" '
                 'stroke-width="2"/>')
    for v, (x, y) in enumerate(cert.points, start=1):
        parts.append(f'<circle cx="{sx(x):.1f}" cy="{sy(y):.1f}" r="4" fill="black"/>')
        parts.append(f'<text x="{sx(x) + 6:.1f}" y="{sy(y) - 6:.1f}" '
                     f'font-size="12">{v}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
