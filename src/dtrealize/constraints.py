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
group's coefficients over all its offsets at once. The exported rows
(``build_const``, ``build_constsqu``) and the flat term arrays that the
float solver and the exact gate evaluate (``constsqu_terms``) both come
from that description, so realization never materialises ConstSqu as rows.

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

# a relation's index here is its code in term arrays
RELATIONS = ("=", ">", "<", ">=", "<=")


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
    blob = json.dumps(
        {"n": G.n,
         "rotation": {str(u): G.rotation[u] for u in sorted(G.rotation)},
         "outer_face": list(G.outer_face)},
        sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


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

@dataclass(frozen=True)
class _Group:
    """Rows sharing one sorted monomial layout, one row per offset choice.

    ``coefs[r]`` holds row r's coefficient of each monomial (0 where the row
    lacks it); the row's tag is ``tag + suffixes[r]``.
    """
    tag: tuple
    relation: str
    monos: list
    coefs: np.ndarray
    suffixes: Sequence[tuple]


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


def _orientation_groups(G: PlaneTriangulation, prefix: str, offs: np.ndarray,
                        suffixes: Sequence[tuple]):
    """Turns along the outer cycle; every other vertex inside each outer edge."""
    for i, j, k in _outer_triples(G.outer_face):
        yield _Group((prefix + "_TURN", i, j, k), ">", *_orientation((i, j, k), offs), suffixes)
    for i, j in _outer_pairs(G.outer_face):
        for k in range(1, G.n + 1):
            if k not in (i, j):
                yield _Group((prefix + "_INTERIOR", i, j, k), "<",
                             *_orientation((i, k, j), offs), suffixes)


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
        yield _Group(("DIS_EQ", i, j), "=", *_power_diff(i, j, (i, j)), [()])
        for k in range(1, G.n + 1):
            if k not in (i, j):
                yield _Group(("DIS_EXCL", i, j, k), ">", *_power_diff(k, i, (i, j)), [()])


def _constsqu_groups(G: PlaneTriangulation):
    yield from _orientation_groups(G, "CONSQU", _TRIPLE_OFFSETS, _TRIPLES)
    for i, j in G.edge_pairs():
        others = [k for k in range(1, G.n + 1) if k not in (i, j)]
        for v in [i, j] + others:
            inside = v in (i, j)
            yield _Group(("DISSQU_IN" if inside else "DISSQU_OUT", i, j, v),
                         "<=" if inside else ">", *_disc(v, (i, j)), _SINGLES)


def _rows(groups) -> tuple[Constraint, ...]:
    return tuple(
        Constraint(tuple((m, c) for m, c in zip(g.monos, coefs) if c), g.relation, g.tag + suffix)
        for g in groups for suffix, coefs in zip(g.suffixes, g.coefs.tolist()))


def build_const(G: PlaneTriangulation) -> ConstraintSystem:
    """Base system: convex outer cycle + witness-disc equalities/exclusions.

    The interior turn constraints range over all vertices other than the two
    consecutive outer ones (the displayed condition).
    """
    return ConstraintSystem(_variables(G, False), _rows(_const_groups(G)), "CONST",
                            graph_digest(G))


def build_constsqu(G: PlaneTriangulation) -> ConstraintSystem:
    """Square-robustified system with unit stencils and radius variables, as rows.

    Stencil offsets are substituted symbolically, so no point variables are
    added: only (cx, cy, r) per edge beyond the base coordinates. The rows
    serve export and reference checks; realization evaluates the same groups
    through ``constsqu_terms``.
    """
    return ConstraintSystem(_variables(G, True), _rows(_constsqu_groups(G)), "CONSTSQU",
                            graph_digest(G))


# --- term arrays --------------------------------------------------------

@dataclass(frozen=True, eq=False)
class TermSystem:
    """A constraint system as flat term arrays, rows in order.

    Term t adds ``coefs[t] * v[ia[t]] * v[ib[t]]`` to row ``rows[t]``, where v
    is the variable vector followed by a constant slot at index
    ``len(variables)``; ``rel`` holds each row's index into RELATIONS.
    """
    variables: tuple[VarId, ...]
    flavor: str
    rows: np.ndarray
    ia: np.ndarray
    ib: np.ndarray
    coefs: np.ndarray
    rel: np.ndarray


def term_system(system: ConstraintSystem | TermSystem) -> TermSystem:
    """The term arrays of a system; a ConstraintSystem's rows are compiled in order."""
    if isinstance(system, TermSystem):
        return system
    index = {v: k for k, v in enumerate(system.variables)}
    slot = len(system.variables)
    rows, ia, ib, coefs = [], [], [], []
    for r, c in enumerate(system.constraints):
        for mono, coeff in c.poly:
            rows.append(r)
            ia.append(index[mono[0]] if mono else slot)
            ib.append(index[mono[1]] if len(mono) == 2 else slot)
            coefs.append(coeff)
    rel = [RELATIONS.index(c.relation) for c in system.constraints]
    return TermSystem(system.variables, system.flavor,
                      *(np.asarray(x, dtype=np.int64) for x in (rows, ia, ib, coefs, rel)))


def constsqu_terms(G: PlaneTriangulation) -> TermSystem:
    """ConstSqu(G) as term arrays, equal to ``term_system(build_constsqu(G))``.

    Each group contributes its layout once per offset; zero coefficients are
    dropped afterwards, as the rows drop them.
    """
    variables = _variables(G, True)
    index = {v: k for k, v in enumerate(variables)}
    slot = len(variables)
    parts = []
    first = 0
    for g in _constsqu_groups(G):
        n = len(g.coefs)
        ia = np.array([index[m[0]] if m else slot for m in g.monos], dtype=np.int64)
        ib = np.array([index[m[1]] if len(m) == 2 else slot for m in g.monos], dtype=np.int64)
        parts.append((np.repeat(np.arange(first, first + n), len(ia)), np.tile(ia, n),
                      np.tile(ib, n), g.coefs.ravel(),
                      np.full(n, RELATIONS.index(g.relation))))
        first += n
    rows, ia, ib, coefs, rel = (np.concatenate(p) for p in zip(*parts))
    keep = coefs != 0
    return TermSystem(variables, "CONSTSQU", rows[keep], ia[keep], ib[keep], coefs[keep], rel)


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


def _holds(value: Fraction, relation: str) -> bool:
    if relation == "=":
        return value == 0
    if relation == ">":
        return value > 0
    if relation == "<":
        return value < 0
    if relation == ">=":
        return value >= 0
    return value <= 0


def eval_poly(poly: tuple, values: Mapping[VarId, Fraction]) -> Fraction:
    total = Fraction(0)
    for mono, coeff in poly:
        term = Fraction(coeff)
        for var in mono:
            term *= values[var]
        total += term
    return total


def evaluate(system: ConstraintSystem, values: Mapping[VarId, Fraction]) -> EvaluationReport:
    """Exact per-constraint residuals and satisfaction under each relation."""
    missing = [v for v in system.variables if v not in values]
    if missing:
        raise MissingVariable(missing[0])
    results = []
    min_margin: Fraction | None = None
    for c in system.constraints:
        val = eval_poly(c.poly, values)
        ok = _holds(val, c.relation)
        results.append(ConstraintEval(c.tag, c.relation, val, ok))
        if c.relation in (">", "<"):
            margin = val if c.relation == ">" else -val
            if min_margin is None or margin < min_margin:
                min_margin = margin
    return EvaluationReport(all(r.satisfied for r in results), tuple(results), min_margin)


def exact_rows(system: ConstraintSystem | TermSystem, values: Mapping[VarId, Fraction],
               mask: np.ndarray | None = None) -> tuple[np.ndarray, int]:
    """Row values times D^2 as Python ints, D the LCM of the denominators.

    Clearing all values to integers scaled by D turns each degree-<=2
    polynomial into an integer combination: the constant slot holds D, so
    degree-1 terms pick up a factor D and constants D^2. A boolean row
    ``mask`` limits the work to the rows it selects; the others read 0.
    """
    t = term_system(system)
    missing = [v for v in t.variables if v not in values]
    if missing:
        raise MissingVariable(missing[0])
    D = math.lcm(*(values[v].denominator for v in t.variables))
    iv = np.array([int(values[v] * D) for v in t.variables] + [D], dtype=object)
    keep = slice(None) if mask is None else mask[t.rows]
    totals = np.zeros(len(t.rel), dtype=object)
    np.add.at(totals, t.rows[keep],
              t.coefs[keep].astype(object) * iv[t.ia[keep]] * iv[t.ib[keep]])
    return totals, D


# whether a row value of sign -, 0, + satisfies each relation, in RELATIONS order
_HOLDS = np.array([(0, 1, 0), (0, 0, 1), (1, 0, 0), (0, 1, 1), (1, 1, 0)], dtype=bool)


def satisfied_exact(system: ConstraintSystem | TermSystem,
                    values: Mapping[VarId, Fraction]) -> bool:
    """Exact yes/no from Python-int row values over a common denominator."""
    t = term_system(system)
    totals, _ = exact_rows(t, values)
    sign = (totals > 0).astype(np.int64) - (totals < 0)
    return bool(np.all(_HOLDS[t.rel, sign + 1]))


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
