"""The benchmark's three workloads: inputs built from the seed, the call each
input makes into dtrealize, and the independent judgement of its output.

realize-mix   realize() with the default RealizeConfig on the random inputs
              of the acceptance corpus for n = 5..9 plus the fan of 6
              vertices. Acceptance-sized traffic; ConstSqu construction
              dominates. The seed relabels every graph.
verify-large  certify() on a fresh n = 20 point set with ~20-bit coordinates
              (the size of the certificates realize() emits): the genuine
              points, a label swap and one point moved far out. Certification
              at scale with no constraint building or search; each rejection
              must name the failed step predicted in set-up.
unrealizable  realize() with time_budget = 2 s on the Kleetope of the
              triangular bipyramid, which is not 1-tough and so (Dillencourt,
              DCG 1990) not Delaunay-realizable. Search- and budget-bound; it
              never reaches certify(). The seed relabels the graph and picks
              the designated outer face.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from functools import cmp_to_key
from itertools import combinations
from typing import Callable, Sequence

import numpy as np

from dtrealize import formats, realizer
from dtrealize.instances import fan_triangulation
from dtrealize.plane_graph import PlaneTriangulation, build_triangulation, validate_triangulation

import exact

# (n, seed) of the acceptance corpus entries with n = 5..9, i.e. the
# random_instance(n, 996 + n) of tests/test_acceptance.py. The larger
# entries (up to 6 s each) and fans 9 and 12 are left out: every input takes
# at most about 1.5 s, so a run times each of them several times.
CORPUS = tuple((n, 996 + n) for n in range(5, 10))
FANS = (6,)
VERIFY_N = 20
VERIFY_BOUND = 2 ** 20
UNREALIZABLE_BUDGET = 2.0

# Vertices 1, 2, 3 form the equator, 4 and 5 are the apexes; every face is
# listed counterclockwise as seen from outside.
BIPYRAMID_FACES = ((4, 1, 2), (4, 2, 3), (4, 3, 1), (5, 2, 1), (5, 3, 2), (5, 1, 3))


class SetupError(RuntimeError):
    """A generated input failed its ground-truth check."""


@dataclass(frozen=True)
class Input:
    name: str
    G: PlaneTriangulation
    # REALIZED, NOT_REALIZABLE, ACCEPT, or the failed step a rejection must name
    expect: str
    points: tuple[exact.Point, ...] = ()      # certify() inputs only


@dataclass(frozen=True)
class Outcome:
    decided: bool            # a correct definitive verdict
    error: str | None        # why the operation failed, None if it did not
    digest: str              # sha256 of the output's canonical bytes
    coord_bits: int = 0      # largest certificate coordinate, in bits


@dataclass(frozen=True)
class Workload:
    build: Callable[[int], list[Input]]
    run: Callable[[Input], object]
    judge: Callable[[Input, object], Outcome]
    time_limit: float        # seconds one input may take before it is abandoned
    budget: float | None = None


# --- inputs ---------------------------------------------------------------

def random_points(n: int, seed: int, bound: int) -> list[exact.Point]:
    """The points of dtrealize.instances.random_instance(n, seed, bound).

    Same generator, same draws and the same rejection rules (general position,
    no point on a hull edge), decided here in integer arithmetic.
    """
    rng = np.random.default_rng(seed)
    for _ in range(1000):
        raw = rng.integers(0, bound + 1, size=(n, 2))
        points = [(int(x), int(y)) for x, y in raw]
        if exact.general_position(points) and not exact.convex_hull(points)[1]:
            return points
    raise SetupError(f"no general-position sample of {n} points for seed {seed}")


def _ccw_order(points: Sequence[exact.Point], center: int, nbrs: list[int]) -> list[int]:
    px, py = points[center]

    def half(i: int) -> int:
        x, y = points[i]
        return 0 if y > py or (y == py and x > px) else 1

    def cmp(i: int, j: int) -> int:
        if half(i) != half(j):
            return half(i) - half(j)
        o = exact.orient(points[center], points[i], points[j])
        return (o < 0) - (o > 0)

    return sorted(nbrs, key=cmp_to_key(cmp))


def delaunay_graph(points: Sequence[exact.Point]) -> PlaneTriangulation:
    """The Delaunay triangulation of points in general position, labeled 1..n,
    embedded as dtrealize.oracle.as_plane_triangulation embeds it."""
    n = len(points)
    adj: dict[int, set[int]] = {i: set() for i in range(n)}
    for face in exact.delaunay_faces(points):
        for a, b in combinations(face, 2):
            adj[a].add(b)
            adj[b].add(a)
    rotation = {i + 1: [j + 1 for j in _ccw_order(points, i, sorted(adj[i]))] for i in range(n)}
    outer = [i + 1 for i in exact.convex_hull(points)[0]]
    return build_triangulation(n, rotation, outer)


def relabel(G: PlaneTriangulation, rng: random.Random) -> tuple[PlaneTriangulation, dict[int, int]]:
    """An isomorphic copy of G under a seeded vertex permutation."""
    new = list(range(1, G.n + 1))
    rng.shuffle(new)
    perm = dict(zip(range(1, G.n + 1), new))
    rotation = {perm[u]: [perm[v] for v in G.rotation[u]] for u in G.rotation}
    rotation = dict(sorted(rotation.items()))
    return build_triangulation(G.n, rotation, [perm[u] for u in G.outer_face]), perm


def rotation_from_faces(faces: Sequence[tuple[int, int, int]]) -> dict[int, list[int]]:
    """Rotation system of a triangulated sphere given consistently oriented faces.

    Face (u, v, w) makes w follow u around v, which is the successor rule
    that dtrealize.plane_graph.faces_from_rotation walks.
    """
    succ: dict[int, dict[int, int]] = {}
    for u, v, w in faces:
        for a, b, c in ((u, v, w), (v, w, u), (w, u, v)):
            succ.setdefault(b, {})[a] = c
    rotation = {}
    for v in sorted(succ):
        start = min(succ[v])
        ring = [start]
        while succ[v][ring[-1]] != start:
            ring.append(succ[v][ring[-1]])
        if len(ring) != len(succ[v]):
            raise SetupError(f"faces around vertex {v} do not close into one ring")
        rotation[v] = ring
    return rotation


def kleetope_faces(faces: Sequence[tuple[int, int, int]], n: int) -> list[tuple[int, int, int]]:
    """Stack a new vertex n+1, n+2, ... in every face."""
    out = []
    for k, (x, y, z) in enumerate(faces, start=n + 1):
        out += [(x, y, k), (y, z, k), (z, x, k)]
    return out


def components_without(rotation: dict[int, list[int]], removed: set[int]) -> int:
    """Connected components left after deleting the removed vertices."""
    left = set(rotation) - removed
    count = 0
    while left:
        count += 1
        stack = [left.pop()]
        while stack:
            for v in rotation[stack.pop()]:
                if v in left:
                    left.remove(v)
                    stack.append(v)
    return count


def bipyramid_kleetope(seed: int) -> tuple[PlaneTriangulation, set[int]]:
    """The seeded copy of the Kleetope and the labels of its 5 base vertices.

    Raises SetupError unless the graph is a valid triangulation with 11
    vertices, 27 edges and 18 faces whose 5 base vertices leave 6 components
    when removed, so that it is not 1-tough.
    """
    faces = kleetope_faces(BIPYRAMID_FACES, 5)
    rng = random.Random(f"unrealizable/{seed}")
    outer = rng.choice(faces)
    G, perm = relabel(build_triangulation(11, rotation_from_faces(faces), outer), rng)
    base = {perm[v] for v in range(1, 6)}
    report = validate_triangulation(G)
    if not report.ok:
        raise SetupError(f"Kleetope fails validation: {report.violations}")
    if (G.n, len(exact.edge_pairs(G.rotation)), len(exact.face_cycles(G.rotation))) != (11, 27, 18):
        raise SetupError("Kleetope does not have 11 vertices, 27 edges and 18 faces")
    parts = components_without(G.rotation, base)
    if parts <= len(base):
        raise SetupError(f"removing {len(base)} vertices leaves {parts} components")
    return G, base


def build_realize_mix(seed: int) -> list[Input]:
    inputs = []
    for n, corpus_seed in CORPUS:
        points = random_points(n, corpus_seed, 1000)
        rng = random.Random(f"realize-mix/{seed}/random{n}")
        G, perm = relabel(delaunay_graph(points), rng)
        moved = [None] * n
        for old, new in perm.items():
            moved[new - 1] = points[old - 1]
        err = exact.check_realization(G.rotation, G.outer_face, moved, reflect=False)
        if err:
            raise SetupError(f"random{n}: generating points do not realize the graph: {err}")
        inputs.append(Input(f"random{n}", G, "REALIZED"))
    for n in FANS:
        rng = random.Random(f"realize-mix/{seed}/fan{n}")
        inputs.append(Input(f"fan{n}", relabel(fan_triangulation(n), rng)[0], "REALIZED"))
    return inputs


def _mutation(G: PlaneTriangulation, candidates) -> tuple[list[exact.Point], str]:
    for points in candidates:
        step = exact.predict_failed_step(G.n, G.rotation, G.outer_face, points)
        if step is not None:
            return points, step
    raise SetupError("every candidate mutation still realizes the graph")


def build_verify_large(seed: int) -> list[Input]:
    points = random_points(VERIFY_N, seed, VERIFY_BOUND)
    G = delaunay_graph(points)
    if exact.predict_failed_step(G.n, G.rotation, G.outer_face, points) is not None:
        raise SetupError("generating points do not realize their own Delaunay graph")
    n = len(points)

    def swapped():
        for i, j in combinations(range(n), 2):
            p = list(points)
            p[i], p[j] = p[j], p[i]
            yield p

    def moved_far():
        span = max(abs(c) for p in points for c in p)
        for i in range(n):
            p = list(points)
            p[i] = (3 * span, 3 * span)
            yield p

    swap, swap_step = _mutation(G, swapped())
    far, far_step = _mutation(G, moved_far())
    return [Input("genuine", G, "ACCEPT", tuple(points)),
            Input("swap", G, swap_step, tuple(swap)),
            Input("far", G, far_step, tuple(far))]


def build_unrealizable(seed: int) -> list[Input]:
    return [Input("kleetope", bipyramid_kleetope(seed)[0], "NOT_REALIZABLE")]


# --- calls into the program (through module attributes, so tracing sees them)

def run_realize_default(inp: Input):
    return realizer.realize(inp.G)


def run_realize_budget(inp: Input):
    return realizer.realize(inp.G, realizer.RealizeConfig(time_budget=UNREALIZABLE_BUDGET))


def run_certify(inp: Input):
    return realizer.certify(inp.G, inp.G.outer_face, list(inp.points))


# --- judgement --------------------------------------------------------------

def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _transcript_ok(transcript: Sequence[str]) -> bool:
    return (len(transcript) == 4 and transcript[0] == "general_position"
            and transcript[1] == "edge_set"
            and transcript[2] in ("hull_cycle", "hull_cycle_reflected")
            and transcript[3] == "witness_discs")


def judge_realize(inp: Input, res) -> Outcome:
    if res.status == "UNKNOWN":
        return Outcome(False, None, _sha(f"UNKNOWN/{len(res.diagnostics)}"))
    if res.status != "REALIZED":
        return Outcome(False, f"status {res.status}", _sha(res.status))
    cert = res.certificate
    digest = _sha(formats.certificate_to_json(cert))
    if inp.expect == "NOT_REALIZABLE":
        return Outcome(False, "REALIZED on a graph that is not realizable", digest)
    err = (exact.check_realization(inp.G.rotation, cert.outer_face, cert.points)
           or exact.check_witness_centers(inp.G.rotation, cert.points, cert.witness_centers))
    if err is None and not _transcript_ok(cert.transcript):
        err = f"unexpected transcript {cert.transcript}"
    return Outcome(err is None, err, digest, exact.coord_bits(cert.points))


def judge_certify(inp: Input, res) -> Outcome:
    digest = _sha(json.dumps([res.ok, list(res.transcript), res.failed_step, res.detail,
                              [[str(x), str(y)] for x, y in res.witness_centers]]))
    if inp.expect == "ACCEPT":
        if not res.ok:
            return Outcome(False, f"genuine points rejected at {res.failed_step}", digest)
        err = exact.check_witness_centers(inp.G.rotation, inp.points, res.witness_centers)
        if err is None and not _transcript_ok(res.transcript):
            err = f"unexpected transcript {res.transcript}"
    elif res.ok:
        err = "mutated points accepted"
    elif res.failed_step != inp.expect:
        err = f"rejected at {res.failed_step}, predicted {inp.expect}"
    else:
        err = None
    return Outcome(err is None, err, digest)


WORKLOADS = {
    "realize-mix": Workload(build_realize_mix, run_realize_default, judge_realize,
                            time_limit=30.0),
    "verify-large": Workload(build_verify_large, run_certify, judge_certify,
                             time_limit=30.0),
    "unrealizable": Workload(build_unrealizable, run_realize_budget, judge_realize,
                             time_limit=75.0, budget=UNREALIZABLE_BUDGET),
}
