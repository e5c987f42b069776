"""Combinatorial plane triangulations: representation, validation, embedding.

A triangulation is given by its rotation system (clockwise neighbor order
per vertex) plus a designated outer face stored as a clockwise cycle.
Faces are always derived from the rotation system, never trusted from input.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence


class PlaneGraphError(ValueError):
    pass


class AsymmetricEdge(PlaneGraphError):
    pass


class NotConnected(PlaneGraphError):
    pass


class FaceNotFound(PlaneGraphError):
    pass


def _canon_cycle(cycle: Sequence[int]) -> tuple[int, ...]:
    """Rotate a cycle so its smallest vertex comes first (orientation kept)."""
    k = cycle.index(min(cycle))
    return tuple(cycle[k:]) + tuple(cycle[:k])


def faces_from_rotation(rotation: dict[int, list[int]]) -> list[list[int]]:
    """All face cycles of the combinatorial embedding.

    The face permutation maps a dart (u, v) to (v, w) where w follows u in
    the rotation at v; each directed edge then lies on exactly one face
    orbit. With clockwise rotations the outer face orbit comes out clockwise
    too, and inner faces counterclockwise.
    """
    for u, nbrs in rotation.items():
        if len(set(nbrs)) != len(nbrs) or u in nbrs:
            raise PlaneGraphError(f"rotation at {u} has duplicates or a self-loop")
        for v in nbrs:
            if v not in rotation or u not in rotation[v]:
                raise AsymmetricEdge(f"dart ({u},{v}) has no reciprocal")
    _check_connected(rotation)

    succ = {u: {nbrs[i]: nbrs[(i + 1) % len(nbrs)] for i in range(len(nbrs))}
            for u, nbrs in rotation.items()}
    seen: set[tuple[int, int]] = set()
    faces: list[list[int]] = []
    for u in sorted(rotation):
        for v in rotation[u]:
            if (u, v) in seen:
                continue
            face = []
            a, b = u, v
            while (a, b) not in seen:
                seen.add((a, b))
                face.append(a)
                a, b = b, succ[b][a]
            faces.append(face)
    return faces


def _check_connected(rotation: dict[int, list[int]]) -> None:
    verts = list(rotation)
    if not verts:
        raise NotConnected("empty graph")
    stack, seen = [verts[0]], {verts[0]}
    while stack:
        u = stack.pop()
        for v in rotation[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    if len(seen) != len(verts):
        raise NotConnected(f"reached {len(seen)} of {len(verts)} vertices")


@dataclass(frozen=True)
class Violation:
    rule: str
    message: str
    elements: tuple = ()


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[Violation, ...] = ()


@dataclass(frozen=True)
class PlaneTriangulation:
    """Vertices are labeled 1..n; outer_face is clockwise."""

    n: int
    rotation: dict[int, list[int]]
    outer_face: tuple[int, ...]

    # Faces and edge pairs are derived once per instance and handed out as
    # fresh lists. A malformed rotation raises on every access, since
    # cached_property caches no exception.

    @property
    def edges(self) -> frozenset[frozenset[int]]:
        return frozenset(frozenset((u, v)) for u in self.rotation for v in self.rotation[u])

    @cached_property
    def _edge_pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(tuple(sorted(e)) for e in self.edges))

    def edge_pairs(self) -> list[tuple[int, int]]:
        """Undirected edges as sorted (i, j) pairs, ordered."""
        return list(self._edge_pairs)

    @cached_property
    def _faces(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, faces_from_rotation(self.rotation)))

    @cached_property
    def _face_index(self) -> dict[tuple[int, ...], int]:
        """The position in ``_faces`` of each face, keyed by its canonical cycle
        in both orientations; a cycle that is itself a face maps to that face."""
        index = {_canon_cycle(f[::-1]): i for i, f in enumerate(self._faces)}
        index.update((_canon_cycle(f), i) for i, f in enumerate(self._faces))
        return index

    @cached_property
    def _outer_index(self) -> int | None:
        """The position in ``_faces`` of the outer face, or None when
        ``outer_face`` is no face cycle in its orientation."""
        # the faces are walked first, so a malformed rotation raises here
        index = self._face_index
        if not self.outer_face:
            return None
        outer = _canon_cycle(self.outer_face)
        k = index.get(outer)
        # the index also holds each face's reversed cycle
        return k if k is not None and _canon_cycle(self._faces[k]) == outer else None

    @property
    def faces(self) -> list[list[int]]:
        """All face cycles including the outer one."""
        return [list(f) for f in self._faces]

    def inner_faces(self) -> list[list[int]]:
        k = self._outer_index
        return [list(f) for i, f in enumerate(self._faces) if i != k]


def build_triangulation(n: int, rotation: dict[int, list[int]],
                        outer_face: Sequence[int]) -> PlaneTriangulation:
    """Construct with orientation normalization.

    Rotations may be given in either sense: if the supplied outer face
    appears reversed among the derived face cycles, all rotations are
    flipped, so the stored ones turn the same way as the clockwise outer face.
    The instance returned keeps the faces walked to check this.
    """
    outer = tuple(outer_face)
    G = PlaneTriangulation(n, {u: list(v) for u, v in rotation.items()}, outer)
    if G._outer_index is not None:
        return G
    G = PlaneTriangulation(n, {u: list(reversed(v)) for u, v in rotation.items()}, outer)
    if G._outer_index is not None:
        return G
    raise PlaneGraphError("outer_face is not a face of the embedding")


def validate_triangulation(G: PlaneTriangulation) -> ValidationReport:
    """Check every structural invariant; failures become report entries."""
    v: list[Violation] = []
    labels = sorted(G.rotation)
    if labels != list(range(1, G.n + 1)):
        v.append(Violation("BAD_LABELS", f"vertex labels are not 1..{G.n}", tuple(labels)))
        return ValidationReport(False, tuple(v))
    if G.n < 4:
        v.append(Violation("TOO_SMALL", f"n = {G.n} < 4", (G.n,)))

    try:
        faces = G.faces
    except PlaneGraphError as e:
        v.append(Violation("BAD_ROTATION", str(e)))
        return ValidationReport(False, tuple(v))

    edges = G.edge_pairs()
    ne, nf = len(edges), len(faces)
    if G.n - ne + nf != 2:
        v.append(Violation("EULER", f"V - E + F = {G.n - ne + nf}, expected 2"))
    if G._outer_index is None:
        v.append(Violation("OUTER_FACE_NOT_A_FACE",
                           "designated outer face is not a face cycle",
                           tuple(G.outer_face)))
        return ValidationReport(False, tuple(v))

    for f in faces:
        if len(set(f)) != len(f):
            v.append(Violation("FACE_NOT_A_CYCLE", "face repeats a vertex", tuple(f)))
    for f in G.inner_faces():
        if len(f) != 3:
            v.append(Violation("NONTRIANGULAR_INNER_FACE",
                               f"inner face has {len(f)} vertices", tuple(f)))

    outer = set(G.outer_face)
    for u in labels:
        deg = len(G.rotation[u])
        if deg < 2:
            v.append(Violation("LOW_DEGREE", f"vertex {u} has degree {deg}", (u,)))
        elif deg == 2 and u not in outer:
            v.append(Violation("DEGREE2_INTERIOR",
                               f"degree-2 vertex {u} is not on the outer face", (u,)))

    for u in cut_vertices(G.rotation):
        v.append(Violation("NOT_2_CONNECTED", f"vertex {u} is a cut vertex", (u,)))

    return ValidationReport(not v, tuple(v))


def cut_vertices(rotation: dict[int, list[int]]) -> list[int]:
    """The cut vertices of a connected graph with at least two vertices,
    given by its rotation, sorted: one depth-first search with lowpoints,
    O(n + m). The root is one when it has two or more tree children, any
    other vertex u when a child's subtree reaches no vertex above u."""
    root = min(rotation)
    depth, low, parent = {root: 0}, {root: 0}, {root: root}
    cut, root_children = set(), 0
    # each entry: a vertex and the iterator over its neighbours left to visit
    stack = [(root, iter(rotation[root]))]
    while stack:
        u, rest = stack[-1]
        for w in rest:
            if w not in depth:
                depth[w] = low[w] = depth[u] + 1
                parent[w] = u
                stack.append((w, iter(rotation[w])))
                break
            if w != parent[u]:
                low[u] = min(low[u], depth[w])
        else:
            stack.pop()
            p = parent[u]
            if p == root and u != root:
                root_children += 1
            elif u != root:
                low[p] = min(low[p], low[u])
                if low[u] >= depth[p]:
                    cut.add(p)
    if root_children >= 2:
        cut.add(root)
    return sorted(cut)


# the most one-vertex moves tough_set_near makes from one candidate set
TOUGH_SET_MOVES = 4


def components_without(G: PlaneTriangulation, S: Iterable[int]) -> int:
    """The number of components of G - S, by breadth-first search over G's
    rotation."""
    seen = set(S)
    count = 0
    for v in G.rotation:
        if v in seen:
            continue
        count += 1
        seen.add(v)
        queue = [v]
        for u in queue:
            for w in G.rotation[u]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
    return count


def is_tough_set(G: PlaneTriangulation, S: Sequence[int]) -> bool:
    """Whether ``S`` is a tough set of G: at least two distinct vertices of G,
    none listed twice, whose removal leaves at least len(S) components. A
    tough set of a maximal planar graph refutes every outer face (README,
    "Refutation")."""
    return (len(S) >= 2 and len(set(S)) == len(S) and set(S) <= G.rotation.keys()
            and components_without(G, S) >= len(S))


def tough_set_near(G: PlaneTriangulation, candidates: Iterable[Iterable[int]],
                   moves: int = TOUGH_SET_MOVES) -> list[int] | None:
    """The first tough set found from ``candidates``, sorted, or None.

    Each candidate vertex set is checked as it is; then, candidate by
    candidate, up to ``moves`` greedy moves are made from it, each
    adding or removing the one vertex that raises c(G - S) - |S| the most
    (the smallest label on a tie) while one raises it, and the set is
    checked after each move. Every set returned has passed ``is_tough_set``.
    """
    candidates = [set(S) for S in candidates]
    for S in candidates:
        if is_tough_set(G, sorted(S)):
            return sorted(S)
    for S in candidates:
        excess = components_without(G, S) - len(S)
        for _ in range(moves):
            best = None
            for v in sorted(G.rotation):
                T = S ^ {v}
                gain = components_without(G, T) - len(T)
                if gain > excess:
                    best, excess = T, gain
            if best is None:
                break
            S = best
            if is_tough_set(G, sorted(S)):
                return sorted(S)
    return None


def candidate_outer_faces(G: PlaneTriangulation) -> list[list[int]]:
    """Outer faces worth trying for realization.

    A non-maximal triangulation fixes its own outer face; a maximal planar
    one may be realized with any face outside, so every face is a candidate
    (current outer face first).
    """
    if len(G.outer_face) >= 4:
        return [list(G.outer_face)]
    faces = G.faces
    k = G._outer_index
    if k is None:
        return faces
    return [faces.pop(k)] + faces


def reembed_with_outer_face(G: PlaneTriangulation, face: Sequence[int]) -> PlaneTriangulation:
    """Same rotation system, new outer face (maximal planar graphs only).

    ``face`` may be given in either orientation; the new outer face is G's
    face cycle. Re-rooting leaves the face orbits of the rotation system
    unchanged, so the result takes G's derived faces and their index, and only
    the designated outer cycle and its position among the faces move.
    """
    k = G._face_index.get(_canon_cycle(face)) if len(face) else None
    if k is None:
        raise FaceNotFound(f"{list(face)} is not a face of the triangulation")
    if k == G._outer_index:
        return G
    H = PlaneTriangulation(G.n, G.rotation, G._faces[k])
    # cached_property reads the instance dict before computing
    H.__dict__.update(_faces=G._faces, _face_index=G._face_index, _outer_index=k)
    return H
