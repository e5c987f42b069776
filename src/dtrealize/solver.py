"""Penalty-method search for floating assignments to ConstSqu.

The search is a heuristic front end only: it proposes candidates with
positive margin which the caller rounds to rationals and re-checks with
exact arithmetic. Nothing here is trusted for correctness.

Loss: sum of squared equality residuals plus squared hinges on strict
inequalities (hinge target = margin; non-strict relations use margin 0).
``solve`` searches ConstSqu, which has no equalities: its loss
(``penalty``) is computed from the value blocks of ``StencilSystem.blocks``
with each group's sign and hinge target broadcast over its offsets, so no
per-row relation, sign or target array is built. All polynomials have
degree <= 2, and the analytic gradient (``penalty_grad``) is the groups'
``vjp`` of the hinge weights, at the stencil points the blocks were built
from; ``solve`` takes each step's gradient from its accepted line-search
trial. ``CompiledSystem`` evaluates a row system
from flat term arrays with its own row-by-row penalty; sharing no code with
the search, it is the row-system reference the stencil penalty is tested
against.

``solve`` tries the start from ``initialize`` and then up to
``SolverConfig.restarts`` seeded jitters of it. Each start is a conjugate
gradient descent with a backtracking line search, and it ends on the first
of:

- ``satisfied()`` true, checked on the start and after any step that
  reaches zero loss, which returns SATISFIED_FLOAT. It reads each stencil
  group's worst slack (``StencilSystem.worst_slacks``), not every row, so a
  start that is accepted at once never evaluates the loss;
- a line search along the steepest direction that finds no lower loss;
- a zero gradient;
- ``SolverConfig.max_iterations`` steps;
- the deadline, which also ends the restarts.

When no start is satisfied, the one with the lowest loss is returned as
EXHAUSTED.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from .constraints import ConstraintSystem, StencilSystem, VarId
from .geometry import rationalize, witness_centers
from .plane_graph import PlaneTriangulation

# rounding denominator bounds, ascending
DENOMINATORS = (1, 4, 32)
# trial step when the directional derivative is NaN
INITIAL_STEP = 1e-3
# hinge target of strict rows: the unit stencil's scale
MARGIN = 1.0


@dataclass(frozen=True)
class SolverConfig:
    max_iterations: int = 4000
    restarts: int = 8
    seed: int = 0

    def __post_init__(self):
        if self.max_iterations < 0:
            raise ValueError("max_iterations must not be negative")
        if self.restarts < 0:
            raise ValueError("restarts must not be negative")


@dataclass(frozen=True)
class SolveOutcome:
    status: str                          # "SATISFIED_FLOAT" | "EXHAUSTED"
    assignment: dict[VarId, float]
    min_margin: float
    iterations: int
    restart_index: int


def _hinges(system: StencilSystem, v: np.ndarray, margin: float) -> tuple:
    """The stencil at v, and per block of ``system.blocks``, its hinges
    max(0, target - sign * value) (target ``margin`` on strict groups, else
    0) and its groups' signs, a column."""
    k = len(system.orient)
    target = np.where(system.strict, margin, 0.0)[:, None]
    sign = system.sign[:, None]
    stencil = system.stencil(v, 1.0)
    hinges = []
    # in place on each fresh value block, so that no temporary joins the stencil
    for block, t, s in zip(system.blocks(v, stencil), (target[:k], target[k:]),
                           (sign[:k], sign[k:])):
        block *= s
        hinges.append((np.maximum(0.0, np.subtract(t, block, out=block), out=block), s))
    return stencil, hinges


def _sum_squares(hinges: list[tuple[np.ndarray, np.ndarray]]) -> float:
    # one sum in ``values`` row order (a sum per block would round
    # differently), by einsum's own loop: BLAS's dot splits a long sum across
    # its threads, so its rounding, and the descent, would follow their count
    h = np.concatenate([hinge.ravel() for hinge, _ in hinges])
    return float(np.einsum("i,i->", h, h))


def penalty(system: StencilSystem, v: np.ndarray, margin: float) -> float:
    """Sum of squared hinges of ConstSqu's rows at the float vector v."""
    return _sum_squares(_hinges(system, v, margin)[1])


def penalty_grad(system: StencilSystem, v: np.ndarray,
                 margin: float) -> tuple[float, np.ndarray]:
    """``penalty`` and its gradient: a row's hinge h weighs its value by -2 h sign."""
    stencil, hinges = _hinges(system, v, margin)
    # h * (-2 sign) makes one block-sized temporary beside the stencil, not two
    return _sum_squares(hinges), system.vjp(v, stencil, *(h * (-2.0 * s) for h, s in hinges))


def satisfied(system: StencilSystem, v: np.ndarray, margin: float) -> tuple[bool, float]:
    """Whether every group holds, strict ones by ``margin``, and the least
    slack of a strict group, from each group's worst slack."""
    worst = system.worst_slacks(v, 1.0)
    strict = system.strict
    ok = bool(np.all(worst[strict] >= margin) and np.all(worst[~strict] >= 0))
    return ok, float(np.min(worst[strict])) if np.any(strict) else math.inf


class CompiledSystem:
    """Vectorized float evaluation of a row system as flat term arrays, with
    the row-by-row penalty: the reference the stencil penalty is tested against.

    Term t adds ``coefs[t] * v[ia[t]] * v[ib[t]]`` to row ``rows[t]``, where v
    is the variable vector followed by a constant slot at index ``nv``; terms
    are listed row by row, in each row's monomial order.
    """

    def __init__(self, system: ConstraintSystem):
        index = {v: k for k, v in enumerate(system.variables)}
        slot = len(system.variables)
        rows, ia, ib, coefs = [], [], [], []
        for r, c in enumerate(system.constraints):
            for mono, coeff in c.poly:
                rows.append(r)
                ia.append(index[mono[0]] if mono else slot)
                ib.append(index[mono[1]] if len(mono) == 2 else slot)
                coefs.append(coeff)
        self.nv = slot
        self.rows, self.ia, self.ib = (np.asarray(x, dtype=np.int64) for x in (rows, ia, ib))
        self.coefs = np.asarray(coefs, dtype=np.float64)
        relations = [c.relation for c in system.constraints]
        self.is_eq = np.array([r == "=" for r in relations], dtype=bool)
        self.strict = np.array([r in (">", "<") for r in relations], dtype=bool)
        # per row, the sign that makes sign * value a slack, positive when satisfied
        self.sign = np.array([-1.0 if r in ("<", "<=") else 1.0 for r in relations])

    def values(self, v: np.ndarray) -> np.ndarray:
        va = np.append(v, 1.0)
        tv = self.coefs * va[self.ia] * va[self.ib]
        return np.bincount(self.rows, weights=tv, minlength=len(self.sign))

    def loss_grad(self, v: np.ndarray, margin: float) -> tuple[float, np.ndarray]:
        """Sum of squared equality residuals and inequality hinges, and its gradient."""
        vals = self.values(v)
        target = np.where(self.strict, margin, 0.0)
        hinge = np.where(self.is_eq, 0.0, np.maximum(0.0, target - self.sign * vals))
        resid = np.where(self.is_eq, vals, 0.0)
        loss = float(np.dot(resid, resid) + np.dot(hinge, hinge))
        # pulled back from d loss / d value per row, term by term
        va = np.append(v, 1.0)
        tw = (2.0 * resid - 2.0 * hinge * self.sign)[self.rows] * self.coefs
        grad = np.bincount(self.ia, weights=tw * va[self.ib], minlength=self.nv + 1)
        grad += np.bincount(self.ib, weights=tw * va[self.ia], minlength=self.nv + 1)
        return loss, grad[: self.nv]

    def loss(self, v: np.ndarray, margin: float) -> float:
        return self.loss_grad(v, margin)[0]

    def satisfied(self, v: np.ndarray, margin: float) -> tuple[bool, float]:
        """Whether every row holds, strict rows by ``margin``, equalities to
        a relative 1e-9, and the least slack of a strict row."""
        vals = self.values(v)
        scale = max(1.0, float(np.max(np.abs(v))) ** 2) if v.size else 1.0
        eq_ok = np.all(np.abs(vals[self.is_eq]) <= 1e-9 * scale)
        slack = self.sign * vals
        ok = bool(eq_ok and np.all((slack >= np.where(self.strict, margin, 0.0))[~self.is_eq]))
        return ok, float(np.min(slack[self.strict])) if np.any(self.strict) else math.inf


def initialize(G: PlaneTriangulation,
               points: Sequence[tuple[float, float]]) -> dict[VarId, float]:
    """Starting ConstSqu assignment: ``points`` as they are, plus witness
    centers and radii.

    Raises ValueError when a coordinate is not finite or two points coincide.
    """
    pts = [(float(x), float(y)) for x, y in points]
    if not all(math.isfinite(c) for p in pts for c in p):
        raise ValueError("start points must have finite coordinates")

    if len(set(pts)) < len(pts):
        raise ValueError("start points must be distinct")

    values: dict[VarId, float] = {}
    for i, (x, y) in enumerate(pts, start=1):
        values[("px", i)] = x
        values[("py", i)] = y

    # the witness discs certify() builds, here in floats: a face circumcenter
    # lies ON the third vertex's exclusion boundary, while these centers start
    # strictly inside each edge's feasible part of the bisector
    centers = witness_centers(pts, [(a - 1, b - 1, c - 1) for a, b, c in G.inner_faces()])
    for i, j in G.edge_pairs():
        x, y, d = centers[i - 1, j - 1]
        pi, pj = pts[i - 1], pts[j - 1]
        # a collinear float face: the edge midpoint
        cx, cy = (x / d, y / d) if d != 0 else ((pi[0] + pj[0]) / 2, (pi[1] + pj[1]) / 2)
        values[("cx", i, j)] = cx
        values[("cy", i, j)] = cy
        values[("r", i, j)] = math.dist((cx, cy), pi) + 2.0
    return values


def solve(system: StencilSystem, config: SolverConfig, G: PlaneTriangulation,
          initial_points: Sequence[tuple[float, float]],
          deadline: float = math.inf) -> SolveOutcome:
    """Deterministic penalty descent on ConstSqu from ``initialize(G,
    initial_points)``, with seeded restarts.

    The start points are not rescaled against the unit stencil; realize()
    scales its own starts so that no two are closer than 12. Strict rows are
    pushed past ``MARGIN``. ``deadline`` is a ``time.monotonic()`` instant
    after which no further descent step or restart begins.
    """
    values = initialize(G, initial_points)
    start = np.asarray([values[v] for v in system.variables], dtype=np.float64)
    point_mask = np.asarray([v[0] in ("px", "py") for v in system.variables])
    # kept alive through the descent, this dict's table pins heap pages
    # the descent's large temporaries free, raising peak RSS
    del values

    def start_vector(restart: int) -> np.ndarray:
        if restart == 0:
            return start
        rng = np.random.default_rng(config.seed + restart)
        jitter = 10.0 ** ((restart % 4) - 1)
        vec = start + jitter * rng.standard_normal(len(start)) * point_mask
        return vec + 0.1 * jitter * rng.standard_normal(len(start)) * ~point_mask

    best_vec: np.ndarray | None = None
    best_loss = math.inf
    best_restart = 0
    total_iters = 0

    def outcome(status: str, vec: np.ndarray, restart: int, min_margin: float) -> SolveOutcome:
        return SolveOutcome(status, dict(zip(system.variables, map(float, vec))),
                            min_margin, total_iters, restart)

    for restart in range(config.restarts + 1):
        vec = start_vector(restart)
        ok, min_margin = satisfied(system, vec, MARGIN)
        if ok:
            return outcome("SATISFIED_FLOAT", vec, restart, min_margin)
        loss, grad = penalty_grad(system, vec, MARGIN)
        # conjugate descent direction (Polak-Ribiere, reset on non-descent);
        # the initial trial step targets loss 0 along the direction and
        # backtracking keeps accepted losses strictly decreasing
        direction = -grad
        steepest = True
        for _ in range(config.max_iterations):
            total_iters += 1
            if time.monotonic() > deadline:
                break
            gd = float(grad @ direction)
            if gd >= 0:
                direction = -grad
                steepest = True
                gd = -float(grad @ grad)
                if gd == 0:
                    break
            alpha = -2.0 * loss / gd if gd < 0 else INITIAL_STEP
            accepted = False
            for _ in range(40):
                cand = vec + alpha * direction
                stencil, hinges = _hinges(system, cand, MARGIN)
                closs = _sum_squares(hinges)
                if closs < loss:
                    accepted = True
                    break
                # a trial's stencil is dropped before the next one is built
                del stencil, hinges
                alpha *= 0.5
            if not accepted:
                if steepest:
                    break
                direction = -grad
                steepest = True
                continue
            vec, loss = cand, closs
            # ConstSqu has no equality rows, so it is satisfied only at zero
            # loss; the check is still needed, as a tiny hinge squares to 0
            if loss == 0.0:
                ok, min_margin = satisfied(system, vec, MARGIN)
                if ok:
                    return outcome("SATISFIED_FLOAT", vec, restart, min_margin)
            # the accepted trial's stencil and hinges give the gradient
            new_grad = system.vjp(vec, stencil, *(h * (-2.0 * s) for h, s in hinges))
            del stencil, hinges
            g2 = float(grad @ grad)
            beta = max(0.0, float(new_grad @ (new_grad - grad)) / g2) if g2 > 0 else 0.0
            direction = -new_grad + beta * direction
            steepest = False
            grad = new_grad
        if loss < best_loss:
            best_loss = loss
            best_vec = vec.copy()
            best_restart = restart
        if time.monotonic() > deadline:
            break

    assert best_vec is not None
    mm = satisfied(system, best_vec, MARGIN)[1]
    return outcome("EXHAUSTED", best_vec, best_restart, mm)


def round_candidates(assignment: dict[VarId, float]) -> Iterator[dict[VarId, Fraction]]:
    """Exact rational candidates, one per denominator bound in DENOMINATORS."""
    for d in DENOMINATORS:
        yield {v: rationalize(x, d) for v, x in assignment.items()}
