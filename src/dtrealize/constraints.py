"""Polynomial constraint systems encoding Delaunay realizability.

Two flavors over a shared degree-<=2 integer polynomial IR:

* the base system: convex-position inequalities on the outer cycle plus,
  per edge, a witness-disc center with one equality and strict exclusion
  inequalities (coefficients stay in {-2..2});
* the square-robustified system: every point inequality is replicated over
  a 9-point unit stencil around each vertex, witness discs gain an explicit
  radius variable, and relations become <= / > so that exact satisfaction
  survives rounding to nearby rationals (coefficients stay in {-10..10}).

Both are described once, as groups of rows that share a monomial layout and
differ only in the stencil offsets substituted into it; numpy computes a
group's coefficients over all its offsets at once. The row builders
(``build_const``, ``build_constsqu``) expand each group straight into its
rows (``_expand``). ``constsqu_stencil`` keeps ConstSqu as the same groups:
per orientation group its three points, per disc group its vertex, edge and
side, and per group its relation as a sign and a strictness flag
(``StencilSystem.sign``, ``StencilSystem.strict``). One numpy evaluator
computes every group's values over its offset table, one block per group
kind (``StencilSystem.blocks``); the solver's loss broadcasts each group's
sign over its rows, and ``vjp`` gives its gradient from one weight block
per group kind. The checks need only each group's worst case, which
``StencilSystem.worst_slacks`` takes at the offsets where it can occur: an
orientation form is affine in each of its six offset coordinates, so its
extremes lie on the 64 corners of the offset cube, and a disc value
separates into an x part and a y part, so its extremes are per-axis
extremes over three offsets each. It runs in
floats for the solver's check and in integers for the exact gate and the
radius fit (``satisfied_exact``, ``repair_radii``), so realization never
materialises ConstSqu as rows or term arrays. Row systems are evaluated
exactly by ``evaluate``, the reference for any row system (row by row in
Python ints, residuals as Fraction), and in floats by
``solver.CompiledSystem``, which has its own row-by-row penalty and is the
reference that the stencil evaluator and the solver's loss are tested
against. Each reference reads its rows' relation strings itself and shares
no relation decoding with ``StencilSystem``.

Systems are deterministic, exactly evaluable over Fraction, and exportable
to JSON (lossless) and SMT-LIB2 (QF_NRA) for external complete solvers.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterable, Mapping, Sequence

import numpy as np

from .formats import graph_document
from .geometry import con_poly
from .plane_graph import PlaneTriangulation

# A variable is a tuple: ("px", i) ("py", i) ("cx", i, j) ("cy", i, j)
# ("r", i, j), with i < j for edge variables. A monomial is a sorted tuple
# of 0, 1 or 2 VarIds.
VarId = tuple

# Unit stencil around each point: center first, then the four corners and
# four edge midpoints of the side-2 axis-aligned square.
STENCIL = (
    (0, 0),
    (-1, -1), (-1, 1), (1, -1), (1, 1),
    (-1, 0), (0, 1), (1, 0), (0, -1),
)


class MissingVariable(KeyError):
    pass


@dataclass(frozen=True)
class Constraint:
    poly: tuple            # canonical: sorted tuple of (monomial, coeff)
    relation: str
    tag: tuple


@dataclass(frozen=True)
class ConstraintSystem:
    variables: tuple[VarId, ...]
    constraints: tuple[Constraint, ...]
    flavor: str            # "CONST" | "CONSTSQU"
    graph_digest: str


def graph_digest(G: PlaneTriangulation) -> str:
    """SHA-256 of the graph JSON object, keys sorted."""
    return hashlib.sha256(json.dumps(graph_document(G), sort_keys=True).encode()).hexdigest()


def _variables(G: PlaneTriangulation, with_radius: bool) -> tuple[VarId, ...]:
    out: list[VarId] = []
    for i in range(1, G.n + 1):
        out.append(("px", i))
        out.append(("py", i))
    for i, j in G.edge_pairs():
        out.append(("cx", i, j))
        out.append(("cy", i, j))
        if with_radius:
            out.append(("r", i, j))
    return tuple(out)


def _outer_triples(outer: Sequence[int]):
    k = len(outer)
    for t in range(k):
        yield outer[t], outer[(t + 1) % k], outer[(t + 2) % k]


def _outer_pairs(outer: Sequence[int]):
    k = len(outer)
    for t in range(k):
        yield outer[t], outer[(t + 1) % k]


# --- structure: groups of rows over stencil offsets ---------------------

def _expand(tag: tuple, relation: str, monos: list, coefs: np.ndarray,
            suffixes: Sequence[tuple]) -> Iterable[Constraint]:
    """The rows of one group: one sorted monomial layout, one row per offset choice.

    ``coefs[r]`` holds row r's coefficient of each monomial (0 where the row
    lacks it, and dropped); the row's tag is ``tag + suffixes[r]``.
    """
    for suffix, row in zip(suffixes, coefs.tolist()):
        yield Constraint(tuple((m, c) for m, c in zip(monos, row) if c), relation, tag + suffix)


_STENCIL = np.array(STENCIL, dtype=np.int64)
# stencil indices of the three points of an orientation row, first slowest
_TRIPLES = tuple(product(range(len(STENCIL)), repeat=3))
_TRIPLE_OFFSETS = _STENCIL[np.array(_TRIPLES)]             # (729, 3, 2)
_SINGLES = tuple((ell,) for ell in range(len(STENCIL)))
_ORIGIN = np.zeros((1, 3, 2), dtype=np.int64)              # base system: no shift

# signed (x-index, y-index) pairs of the orientation form
_CON_PAIRS = ((2, 1, 1), (2, 0, -1), (0, 1, -1), (1, 2, -1), (1, 0, 1), (0, 2, 1))


def _layout(terms: Iterable, n: int) -> tuple[list, np.ndarray]:
    """Like monomials summed, sorted, with an (n, #monomials) coefficient matrix."""
    acc: dict = {}
    for mono, coef in terms:
        mono = tuple(sorted(mono))
        acc[mono] = acc.get(mono, 0) + coef
    monos = sorted(acc)
    coefs = np.empty((n, len(monos)), dtype=np.int64)
    for col, mono in enumerate(monos):
        coefs[:, col] = acc[mono]
    return monos, coefs


def _orientation(verts: tuple[int, int, int], offs: np.ndarray) -> tuple[list, np.ndarray]:
    """Orientation polynomial at the points (X_v + a, Y_v + b), per offset row.

    The quadratic part does not depend on the offsets; the shifts only add
    linear and constant terms.
    """
    terms = []
    for p, q, s in _CON_PAIRS:
        xp, yq = ("px", verts[p]), ("py", verts[q])
        a, b = offs[:, p, 0], offs[:, q, 1]
        terms += [((xp, yq), s), ((xp,), s * b), ((yq,), s * a), ((), s * a * b)]
    return _layout(terms, len(offs))


def _orientation_specs(G: PlaneTriangulation):
    """Each orientation group as (tag kind, tag vertices, points in form order, relation).

    Turns along the outer cycle; every other vertex inside each outer edge.
    """
    for i, j, k in _outer_triples(G.outer_face):
        yield "_TURN", (i, j, k), (i, j, k), ">"
    for i, j in _outer_pairs(G.outer_face):
        for k in range(1, G.n + 1):
            if k not in (i, j):
                yield "_INTERIOR", (i, j, k), (i, k, j), "<"


def _orientation_groups(G: PlaneTriangulation, prefix: str, offs: np.ndarray,
                        suffixes: Sequence[tuple]):
    for kind, tag, verts, relation in _orientation_specs(G):
        yield from _expand((prefix + kind, *tag), relation, *_orientation(verts, offs), suffixes)


def _power_diff(u: int, w: int, edge: tuple[int, int]) -> tuple[list, np.ndarray]:
    """|Z_u - C|^2 - |Z_w - C|^2 for the witness center C of ``edge``."""
    CX, CY = ("cx", *edge), ("cy", *edge)
    terms = []
    for v, s in ((u, 1), (w, -1)):
        X, Y = ("px", v), ("py", v)
        terms += [((X, X), s), ((Y, Y), s), ((CX, X), -2 * s), ((CY, Y), -2 * s)]
    return _layout(terms, 1)


def _disc(v: int, edge: tuple[int, int]) -> tuple[list, np.ndarray]:
    """|Z - C|^2 - R^2 at each stencil point Z = (X_v + a, Y_v + b)."""
    X, Y = ("px", v), ("py", v)
    CX, CY, R = ("cx", *edge), ("cy", *edge), ("r", *edge)
    a, b = _STENCIL[:, 0], _STENCIL[:, 1]
    return _layout([((X, X), 1), ((Y, Y), 1), ((CX, CX), 1), ((CY, CY), 1), ((R, R), -1),
                    ((X, CX), -2), ((Y, CY), -2), ((X,), 2 * a), ((Y,), 2 * b),
                    ((CX,), -2 * a), ((CY,), -2 * b), ((), a * a + b * b)], len(STENCIL))


def _const_groups(G: PlaneTriangulation):
    yield from _orientation_groups(G, "CON", _ORIGIN, [()])
    for i, j in G.edge_pairs():
        yield from _expand(("DIS_EQ", i, j), "=", *_power_diff(i, j, (i, j)), [()])
        for k in range(1, G.n + 1):
            if k not in (i, j):
                yield from _expand(("DIS_EXCL", i, j, k), ">", *_power_diff(k, i, (i, j)), [()])


def _disc_specs(G: PlaneTriangulation):
    """Each ConstSqu disc group as (tag kind, edge, vertex, relation), in row order.

    Both endpoints of an edge lie inside its witness disc, every other vertex
    strictly outside.
    """
    for i, j in G.edge_pairs():
        for v in [i, j] + [k for k in range(1, G.n + 1) if k not in (i, j)]:
            if v in (i, j):
                yield "DISSQU_IN", (i, j), v, "<="
            else:
                yield "DISSQU_OUT", (i, j), v, ">"


def _constsqu_groups(G: PlaneTriangulation):
    yield from _orientation_groups(G, "CONSQU", _TRIPLE_OFFSETS, _TRIPLES)
    for kind, edge, v, relation in _disc_specs(G):
        yield from _expand((kind, *edge, v), relation, *_disc(v, edge), _SINGLES)


def build_const(G: PlaneTriangulation) -> ConstraintSystem:
    """Base system: convex outer cycle + witness-disc equalities/exclusions.

    The interior turn constraints range over all vertices other than the two
    consecutive outer ones (the displayed condition).
    """
    return ConstraintSystem(_variables(G, False), tuple(_const_groups(G)), "CONST",
                            graph_digest(G))


def build_constsqu(G: PlaneTriangulation) -> ConstraintSystem:
    """Square-robustified system with unit stencils and radius variables, as rows.

    Stencil offsets are substituted symbolically, so no point variables are
    added: only (cx, cy, r) per edge beyond the base coordinates. The rows
    serve export and reference checks; realization evaluates the same groups
    through ``constsqu_stencil``.
    """
    return ConstraintSystem(_variables(G, True), tuple(_constsqu_groups(G)), "CONSTSQU",
                            graph_digest(G))


# --- stencil groups as index arrays -------------------------------------

# per point of an orientation row, its x and y offsets over the 729 offset choices
_TRIPLE_X = np.ascontiguousarray(_TRIPLE_OFFSETS[:, :, 0].T)    # (3, 729)
_TRIPLE_Y = np.ascontiguousarray(_TRIPLE_OFFSETS[:, :, 1].T)
# the same over the 64 choices that put all three points on stencil corners
_CORNER_OFFSETS = _STENCIL[np.array(list(product(range(1, 5), repeat=3)))]   # (64, 3, 2)
_CORNER_X = np.ascontiguousarray(_CORNER_OFFSETS[:, :, 0].T)    # (3, 64)
_CORNER_Y = np.ascontiguousarray(_CORNER_OFFSETS[:, :, 1].T)
# the stencil's offsets along one axis
_AXIS = np.array((-1, 0, 1), dtype=np.int64)


@dataclass(frozen=True, eq=False)
class StencilSystem:
    """ConstSqu(G) as index arrays over its stencil groups, for evaluation.

    Orientation group g is the orientation form of the points
    (x[orient[g, p, 0]] + a_p, x[orient[g, p, 1]] + b_p), p = 0, 1, 2, over
    the 729 stencil offset choices; disc group d is |Z - C|^2 - R^2 at the
    9 stencil points Z = (x[disc[d, 0]] + a, x[disc[d, 1]] + b), with
    C = (x[disc[d, 2]], x[disc[d, 3]]) and R = x[disc[d, 4]]. Disc groups
    are edge-major: per edge its two endpoints (IN), then the n - 2 other
    vertices (OUT). ``values`` lists the rows in ``build_constsqu`` order.
    Indices point into the variable vector x. ``sign`` and ``strict`` hold
    each group's relation, in ``worst_slacks`` order (orientation groups
    first): -1.0 under < and <=, else 1.0, and whether it is strict.
    """
    variables: tuple[VarId, ...]
    flavor: str
    orient: np.ndarray       # (groups, 3, 2)
    disc: np.ndarray         # (pairs, 5)
    sign: np.ndarray         # (groups + pairs,) float64
    strict: np.ndarray       # (groups + pairs,) bool

    # The evaluators run on float, int64 or Python-int object vectors alike;
    # offsets are multiplied by ``unit``, so an assignment scaled by D is
    # evaluated exactly with unit D (row values then come out times D^2).

    def _orient_points(self, x: np.ndarray, unit, offs_x=_TRIPLE_X,
                       offs_y=_TRIPLE_Y) -> list[tuple[np.ndarray, np.ndarray]]:
        """The stencil points of every orientation row: per point of the form
        its x and y, each (groups, offset choices)."""
        return [(x[self.orient[:, p, 0]][:, None] + offs_x[p].astype(x.dtype) * unit,
                 x[self.orient[:, p, 1]][:, None] + offs_y[p].astype(x.dtype) * unit)
                for p in range(3)]

    def _disc_deltas(self, x: np.ndarray, unit, offs_x=_STENCIL[:, 0],
                     offs_y=_STENCIL[:, 1]) -> tuple[np.ndarray, np.ndarray]:
        """Z - C per disc row, x and y, each (pairs, offsets)."""
        d = self.disc
        return ((x[d[:, 0]] - x[d[:, 2]])[:, None] + offs_x.astype(x.dtype) * unit,
                (x[d[:, 1]] - x[d[:, 3]])[:, None] + offs_y.astype(x.dtype) * unit)

    def stencil(self, x: np.ndarray, unit) -> tuple:
        """The stencil points of every row, as ``blocks`` and ``vjp`` take
        them: the orientation rows' points and the disc rows' Z - C."""
        return self._orient_points(x, unit), self._disc_deltas(x, unit)

    def blocks(self, x: np.ndarray, stencil) -> tuple[np.ndarray, np.ndarray]:
        """The row values per group at ``stencil = self.stencil(x, unit)``:
        orientation (groups, 729), disc (pairs, 9)."""
        points, (dx, dy) = stencil
        r = x[self.disc[:, 4]]
        return con_poly(*points), dx * dx + dy * dy - (r * r)[:, None]

    def values(self, x: np.ndarray, unit) -> np.ndarray:
        return np.concatenate([block.ravel() for block in self.blocks(x, self.stencil(x, unit))])

    def disc_extremes(self, x: np.ndarray, unit) -> tuple[np.ndarray, np.ndarray]:
        """Least and greatest |Z - C|^2 over each disc group's 9 stencil points.

        |Z - C|^2 = (dx + a)^2 + (dy + b)^2 separates by axis, so each
        extreme is the sum of the extremes over a, then over b, in {-1, 0, 1}.
        """
        dx, dy = self._disc_deltas(x, unit, _AXIS, _AXIS)
        sx, sy = dx * dx, dy * dy
        return sx.min(axis=1) + sy.min(axis=1), sx.max(axis=1) + sy.max(axis=1)

    def worst_slacks(self, x: np.ndarray, unit) -> np.ndarray:
        """Each group's least signed slack over its offsets, orientation groups first.

        A row's signed slack is its value, negated under < and <=; a group
        holds when its worst slack is positive, or non-negative where the
        relation is not strict (ConstSqu has no equalities). On integer
        vectors this is exactly the per-group minimum of the signed
        ``values``. Each monomial of the orientation form pairs the x of one
        point with the y of another, so the form is affine in each of the
        six offset coordinates and takes its extremes on the 64 corners of
        the offset cube; disc extremes come from ``disc_extremes``.
        """
        orient = con_poly(*self._orient_points(x, unit, _CORNER_X, _CORNER_Y))
        near, far = self.disc_extremes(x, unit)
        r = x[self.disc[:, 4]]
        lo = np.concatenate((orient.min(axis=1), near - r * r))
        hi = np.concatenate((orient.max(axis=1), far - r * r))
        return np.where(self.sign < 0, -hi, lo)

    def vjp(self, x: np.ndarray, stencil, wo: np.ndarray, wd: np.ndarray) -> np.ndarray:
        """Gradient of sum(wo * orient) + sum(wd * disc) with respect to the
        float vector x, for the blocks (orient, disc) = ``blocks(x, stencil)``
        at ``stencil = self.stencil(x, 1.0)``."""
        points, (dx, dy) = stencil
        gx = np.zeros((len(self.orient), 3))
        gy = np.zeros((len(self.orient), 3))
        for p, q, s in _CON_PAIRS:
            gx[:, p] += s * np.einsum("gk,gk->g", wo, points[q][1])
            gy[:, q] += s * np.einsum("gk,gk->g", wo, points[p][0])
        gdx = 2.0 * np.einsum("dk,dk->d", wd, dx)
        gdy = 2.0 * np.einsum("dk,dk->d", wd, dy)
        gr = -2.0 * x[self.disc[:, 4]] * wd.sum(axis=1)
        index = np.concatenate((self.orient[:, :, 0].ravel(), self.orient[:, :, 1].ravel(),
                                *self.disc.T))
        weights = np.concatenate((gx.ravel(), gy.ravel(), gdx, gdy, -gdx, -gdy, gr))
        return np.bincount(index, weights=weights, minlength=len(x))


def constsqu_stencil(G: PlaneTriangulation) -> StencilSystem:
    """ConstSqu(G) as stencil groups, evaluating to the rows of ``build_constsqu(G)``."""
    variables = _variables(G, True)
    index = {v: k for k, v in enumerate(variables)}
    orient = list(_orientation_specs(G))
    disc = list(_disc_specs(G))
    relations = [relation for *_, relation in orient + disc]
    return StencilSystem(
        variables, "CONSTSQU",
        np.array([[(index["px", v], index["py", v]) for v in verts]
                  for _, _, verts, _ in orient], dtype=np.int64),
        np.array([[index["px", v], index["py", v], index[("cx", *e)], index[("cy", *e)],
                   index[("r", *e)]] for _, e, v, _ in disc], dtype=np.int64),
        np.array([-1.0 if relation in ("<", "<=") else 1.0 for relation in relations]),
        np.array([relation in (">", "<") for relation in relations]))


# --- evaluation ---------------------------------------------------------

@dataclass(frozen=True)
class ConstraintEval:
    tag: tuple
    relation: str
    residual: Fraction
    satisfied: bool


@dataclass(frozen=True)
class EvaluationReport:
    satisfied: bool
    results: tuple[ConstraintEval, ...]
    min_strict_margin: Fraction | None

    def failures(self) -> list[ConstraintEval]:
        return [r for r in self.results if not r.satisfied]


def _holds(value: int, relation: str) -> bool:
    if relation == "=":
        return value == 0
    if relation == ">":
        return value > 0
    if relation == "<":
        return value < 0
    if relation == ">=":
        return value >= 0
    return value <= 0


def evaluate(system: ConstraintSystem, values: Mapping[VarId, Fraction]) -> EvaluationReport:
    """Exact per-constraint residuals and satisfaction under each relation.

    Each row is evaluated in Python ints over the assignment times D, the
    LCM of its denominators: a monomial of degree d then comes out times
    D^d, so it is weighted by D^(2 - d) and the row's value is the sum over
    D^2. Independent of the stencil evaluator, this is the reference for it.
    """
    missing = [v for v in system.variables if v not in values]
    if missing:
        raise MissingVariable(missing[0])
    D = math.lcm(*(values[v].denominator for v in system.variables))
    scaled = {v: values[v].numerator * (D // values[v].denominator) for v in system.variables}
    weight = (D * D, D, 1)        # by monomial degree
    results = []
    min_margin: int | None = None     # times D^2, like each row total
    for c in system.constraints:
        total = 0
        for mono, coeff in c.poly:
            term = coeff * weight[len(mono)]
            for var in mono:
                term *= scaled[var]
            total += term
        ok = _holds(total, c.relation)
        results.append(ConstraintEval(c.tag, c.relation, Fraction(total, D * D), ok))
        if c.relation in (">", "<"):
            margin = total if c.relation == ">" else -total
            if min_margin is None or margin < min_margin:
                min_margin = margin
    return EvaluationReport(all(r.satisfied for r in results), tuple(results),
                            None if min_margin is None else Fraction(min_margin, D * D))


def scale_assignment(system: StencilSystem,
                     values: Mapping[VarId, Fraction]) -> tuple[np.ndarray, int]:
    """The variable vector times D, D the LCM of the denominators, as integers.

    With M = max |scaled value| + D, no intermediate of ``values``,
    ``disc_extremes`` or ``worst_slacks`` exceeds 8 M^2 in magnitude: a
    shifted coordinate is at most M, a difference Z - C below 2M, so a
    squared distance (each per-axis extreme and their sums included) is
    below 8 M^2, R^2 is below M^2, an orientation value and its partial sums
    are at most 6 M^2, and negating a slack keeps its magnitude. So the
    vector is int64 when 8 M^2 < 2^63 and a Python-int object array
    otherwise.
    """
    missing = [v for v in system.variables if v not in values]
    if missing:
        raise MissingVariable(missing[0])
    D = math.lcm(*(values[v].denominator for v in system.variables))
    ints = [values[v].numerator * (D // values[v].denominator) for v in system.variables]
    bound = max(map(abs, ints)) + D
    return np.array(ints, dtype=np.int64 if 8 * bound * bound < 2**63 else object), D


def satisfied_exact(system: StencilSystem, values: Mapping[VarId, Fraction]) -> bool:
    """Exact yes/no from each group's worst slack, on the assignment scaled by D."""
    x, D = scale_assignment(system, values)
    worst = system.worst_slacks(x, D)
    return bool(np.all(np.where(system.strict, worst > 0, worst >= 0)))


def repair_radii(system: StencilSystem,
                 values: dict[VarId, Fraction]) -> dict[VarId, Fraction]:
    """Re-pick each witness radius exactly, from its rounded points and center.

    On the assignment scaled by D (radii excluded), an edge's disc rows hold
    exactly when far_in <= (r D)^2 < near_out, with far_in the greatest
    squared stencil distance of its endpoints and near_out the least of any
    other vertex. The fit is r = q / (m D) for the first power of two m with
    q = ceil(sqrt(far_in m^2)) and q^2 < near_out m^2, so it finds a radius
    whenever one exists. Otherwise the radius is kept and the exact gate
    rejects the assignment; points and centers are never changed.
    """
    radii = dict.fromkeys(system.disc[:, 4].tolist())     # each edge's radius index, in order
    # radii are zeroed only to keep them out of the common denominator
    x, D = scale_assignment(system, {**values, **{system.variables[k]: Fraction(0)
                                                  for k in radii}})
    # squared stencil distances times D^2, one row per edge: its two
    # endpoints (IN) first, then the other vertices (OUT)
    near, far = (d.reshape(len(radii), -1) for d in system.disc_extremes(x, D))

    out = dict(values)
    for k, far_in, near_out in zip(radii, far[:, :2].max(axis=1).tolist(),
                                   near[:, 2:].min(axis=1).tolist()):
        if far_in >= near_out:
            continue  # not repairable; exact evaluation will reject
        # far_in >= 2 D^2 > 0 (the stencil reaches +-1 on both axes), so
        # isqrt(k - 1) + 1 is the ceiling square root of k = far_in m^2; the
        # gap m (sqrt(near_out) - sqrt(far_in)) grows with m until some
        # integer fits in it
        m = 1
        while (q := math.isqrt(far_in * m * m - 1) + 1) ** 2 >= near_out * m * m:
            m *= 2
        out[system.variables[k]] = Fraction(q, m * D)
    return out


# --- export -------------------------------------------------------------

SCHEMA_VERSION = 1


def _var_name(v: VarId) -> str:
    return "_".join(str(p) for p in v)


def system_to_json(system: ConstraintSystem) -> str:
    doc = {
        "schema": SCHEMA_VERSION,
        "flavor": system.flavor,
        "graph_digest": system.graph_digest,
        "variables": [list(v) for v in system.variables],
        "constraints": [
            {
                "tag": list(c.tag),
                "relation": c.relation,
                "terms": [[[list(v) for v in mono], coeff] for mono, coeff in c.poly],
            }
            for c in system.constraints
        ],
    }
    return json.dumps(doc, indent=1, sort_keys=False) + "\n"


def system_from_json(text: str) -> ConstraintSystem:
    doc = json.loads(text)
    if doc.get("schema") != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema {doc.get('schema')!r}")
    variables = tuple(tuple(v) for v in doc["variables"])
    cons = tuple(
        Constraint(
            tuple((tuple(tuple(v) for v in mono), coeff) for mono, coeff in c["terms"]),
            c["relation"],
            tuple(c["tag"]),
        )
        for c in doc["constraints"]
    )
    return ConstraintSystem(variables, cons, doc["flavor"], doc["graph_digest"])


def _smt_int(n: int) -> str:
    return str(n) if n >= 0 else f"(- {-n})"


def _smt_poly(poly: tuple) -> str:
    terms = []
    for mono, coeff in poly:
        factors = [_smt_int(coeff)] + [_var_name(v) for v in mono]
        terms.append(factors[0] if len(factors) == 1 else "(* " + " ".join(factors) + ")")
    if not terms:
        return "0"
    if len(terms) == 1:
        return terms[0]
    return "(+ " + " ".join(terms) + ")"


def system_to_smtlib2(system: ConstraintSystem) -> str:
    lines = [
        "(set-logic QF_NRA)",
        f"; flavor {system.flavor} digest {system.graph_digest}",
    ]
    for v in system.variables:
        lines.append(f"(declare-const {_var_name(v)} Real)")
    for c in system.constraints:
        lines.append(f"; {c.tag}")
        lines.append(f"(assert ({c.relation} {_smt_poly(c.poly)} 0))")
    lines.append("(check-sat)")
    lines.append("(get-model)")
    return "\n".join(lines) + "\n"


def export_system(system: ConstraintSystem, fmt: str) -> str:
    if fmt == "json":
        return system_to_json(system)
    if fmt == "smt2":
        return system_to_smtlib2(system)
    raise ValueError(f"unknown export format {fmt!r}")
