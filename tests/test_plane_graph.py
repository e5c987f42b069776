"""Rotation systems, face traversal, validation, re-embedding."""

import random

import pytest

from dtrealize import plane_graph
from dtrealize.instances import fan_triangulation, stacked_triangulation
from dtrealize.plane_graph import (AsymmetricEdge, FaceNotFound, NotConnected,
                                   PlaneGraphError, PlaneTriangulation, Violation, _canon_cycle,
                                   build_triangulation, candidate_outer_faces,
                                   faces_from_rotation, reembed_with_outer_face,
                                   validate_triangulation)

# K4 with vertex 4 in the middle of triangle 1-2-3; outer face (1,3,2) clockwise.
K4_ROT = {1: [2, 4, 3], 2: [3, 4, 1], 3: [1, 4, 2], 4: [1, 2, 3]}
K4_OUTER = (1, 3, 2)


def k4():
    return build_triangulation(4, K4_ROT, K4_OUTER)


def fan5():
    rot = {1: [5, 4, 3, 2], 2: [3, 1], 3: [4, 2, 1], 4: [5, 3, 1], 5: [4, 1]}
    return build_triangulation(5, rot, (1, 2, 3, 4, 5))


def test_faces_from_rotation_k4():
    faces = faces_from_rotation(K4_ROT)
    assert len(faces) == 4
    canon = {tuple(sorted(f)) for f in faces}
    assert canon == {(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)}


def test_face_count_fan():
    G = fan5()
    assert len(G.faces) == 4          # 3 inner triangles + outer face
    assert len(G.inner_faces()) == 3
    assert sorted(len(f) for f in G.faces) == [3, 3, 3, 5]


def test_edges_and_pairs():
    G = k4()
    assert G.edge_pairs() == [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    assert fan5().edge_pairs() == [(1, 2), (1, 3), (1, 4), (1, 5),
                                   (2, 3), (3, 4), (4, 5)]


def test_asymmetric_edge_raises():
    with pytest.raises(AsymmetricEdge):
        faces_from_rotation({1: [2], 2: []})


def test_disconnected_raises():
    with pytest.raises(NotConnected):
        faces_from_rotation({1: [2], 2: [1], 3: [4], 4: [3]})


def test_faces_and_edge_pairs_are_derived_once(monkeypatch):
    """Faces are walked once per triangulation, counted from its
    construction, which walks them to check the outer face (given a rotation
    that needs no flip); callers get fresh lists, so changing one leaves the
    next access as it was."""
    rotation = k4().rotation
    walks = []
    real = plane_graph.faces_from_rotation

    def counted(rotation):
        walks.append(1)
        return real(rotation)

    monkeypatch.setattr(plane_graph, "faces_from_rotation", counted)
    G = build_triangulation(4, rotation, K4_OUTER)
    G.faces[0].append(99)
    G.edge_pairs().clear()
    assert G.faces == real(G.rotation) and len(G.inner_faces()) == 3
    assert G.edge_pairs() == [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    assert len(walks) == 1


def test_malformed_rotation_raises_on_every_access():
    G = PlaneTriangulation(2, {1: [2], 2: []}, (1, 2))
    for _ in range(2):
        with pytest.raises(AsymmetricEdge):
            G.faces


def test_build_normalizes_reflection():
    mirrored = {u: list(reversed(v)) for u, v in K4_ROT.items()}
    G = build_triangulation(4, mirrored, K4_OUTER)
    report = validate_triangulation(G)
    assert report.ok
    # outer face must appear with the requested orientation among face cycles
    assert _canon_cycle(K4_OUTER) in map(_canon_cycle, G.faces)


def test_build_rejects_non_face():
    with pytest.raises(PlaneGraphError):
        build_triangulation(4, K4_ROT, (1, 2, 4, 3))


def test_validate_good_instances():
    assert validate_triangulation(k4()).ok
    assert validate_triangulation(fan5()).ok


def test_validate_bad_labels():
    G = PlaneTriangulation(3, {1: [2, 5], 2: [5, 1], 5: [1, 2]}, (1, 2, 5))
    report = validate_triangulation(G)
    assert not report.ok
    assert report.violations[0].rule == "BAD_LABELS"


def test_validate_too_small():
    G = build_triangulation(3, {1: [2, 3], 2: [3, 1], 3: [1, 2]}, (1, 3, 2))
    report = validate_triangulation(G)
    rules = {v.rule for v in report.violations}
    assert "TOO_SMALL" in rules


def test_validate_nontriangular_inner_face():
    # plain 4-cycle: the inner face is a quadrilateral
    rot = {1: [2, 4], 2: [3, 1], 3: [4, 2], 4: [1, 3]}
    G = build_triangulation(4, rot, (1, 2, 3, 4))
    report = validate_triangulation(G)
    rules = {v.rule for v in report.violations}
    assert "NONTRIANGULAR_INNER_FACE" in rules


def test_validate_cut_vertex():
    # two triangles glued at vertex 1 (bowtie) - vertex 1 is a cut vertex
    rot = {1: [2, 3, 4, 5], 2: [3, 1], 3: [1, 2], 4: [5, 1], 5: [1, 4]}
    faces = faces_from_rotation(rot)
    outer = max(faces, key=len)
    G = PlaneTriangulation(5, rot, tuple(outer))
    report = validate_triangulation(G)
    rules = {v.rule for v in report.violations}
    assert "NOT_2_CONNECTED" in rules


def _cut_vertices_by_removal(G):
    """The cut vertices of G, sorted, by the check ``validate_triangulation``
    made before its lowpoint search: one breadth-first search of the graph
    without each vertex, over a rotation rebuilt without it."""
    labels = sorted(G.rotation)
    cut = []
    for u in labels:
        rot = {x: [y for y in G.rotation[x] if y != u] for x in labels if x != u}
        try:
            plane_graph._check_connected(rot)
        except NotConnected:
            cut.append(u)
    return cut


def _with_outer_face(rotation):
    """The graph of ``rotation``, relabelled 1..n in label order, with its
    longest face as the outer face, so that validation reaches the
    cut-vertex check."""
    label = {v: i for i, v in enumerate(sorted(rotation), start=1)}
    rot = {label[v]: [label[w] for w in nbrs] for v, nbrs in rotation.items()}
    return PlaneTriangulation(len(rot), rot, tuple(max(faces_from_rotation(rot), key=len)))


def _without(G, removed):
    return {v: [w for w in nbrs if w not in removed]
            for v, nbrs in G.rotation.items() if v not in removed}


def _glued(graphs):
    """The graphs glued in a chain, each one's vertex 1 to the last vertex of
    the one before, which becomes a cut vertex; the glued vertex's rotation
    is the two rotations one after the other, so the embedding stays plane."""
    rotation, offset = {}, 0
    for G in graphs:
        shift = {v: v + offset - (offset > 0) for v in G.rotation}
        for v, nbrs in G.rotation.items():
            rotation.setdefault(shift[v], []).extend(shift[w] for w in nbrs)
        offset = max(rotation)
    return rotation


def _random_connected(n, extra, rng):
    """A random tree on 1..n plus ``extra`` random chords, with every
    rotation shuffled (the embedding need not be plane)."""
    edges = {(rng.randrange(1, v), v) for v in range(2, n + 1)}
    for _ in range(extra):
        u, w = rng.sample(range(1, n + 1), 2)
        edges.add((min(u, w), max(u, w)))
    rotation = {v: [] for v in range(1, n + 1)}
    for u, w in edges:
        rotation[u].append(w)
        rotation[w].append(u)
    for nbrs in rotation.values():
        rng.shuffle(nbrs)
    return rotation


def test_cut_vertices_match_the_check_by_removal():
    """The lowpoint search reports the cut vertices, in label order, that a
    breadth-first search of the graph without each vertex finds, on stacked
    triangulations, fans, disks (a stacked triangulation without one
    vertex, or two), graphs glued at planted cut vertices, and random trees
    with chords."""
    rng = random.Random(0)
    graphs = [stacked_triangulation(n, s) for n in range(4, 30, 3) for s in range(5)]
    graphs += [fan_triangulation(n) for n in range(4, 13)]
    for n in (8, 10, 12, 14):
        for s in range(8):
            G = stacked_triangulation(n, s)
            graphs.append(_with_outer_face(_without(G, {n})))
            u = rng.choice(G.rotation[n])
            graphs.append(_with_outer_face(_without(G, {n, u})))
    for s in range(30):
        parts = [stacked_triangulation(rng.randrange(4, 9), s + k)
                 for k in range(rng.randrange(2, 4))]
        graphs.append(_with_outer_face(_glued(parts)))
    for s in range(60):
        graphs.append(_with_outer_face(_random_connected(rng.randrange(2, 25),
                                                         rng.randrange(0, 12), rng)))
    assert len(graphs) >= 200
    with_cut = 0
    for G in graphs:
        want = _cut_vertices_by_removal(G)
        assert plane_graph.cut_vertices(G.rotation) == want
        got = [v for v in validate_triangulation(G).violations if v.rule == "NOT_2_CONNECTED"]
        assert got == [Violation("NOT_2_CONNECTED", f"vertex {u} is a cut vertex", (u,))
                       for u in want]
        with_cut += bool(want)
    assert with_cut >= 70


def test_validate_outer_not_a_face():
    G = PlaneTriangulation(4, K4_ROT, (1, 2, 4, 3))
    report = validate_triangulation(G)
    assert not report.ok
    assert any(v.rule == "OUTER_FACE_NOT_A_FACE" for v in report.violations)


def test_the_outer_face_is_found_in_its_orientation(monkeypatch):
    """An outer face that is K4's reversed, empty or no face cycle is
    reported as OUTER_FACE_NOT_A_FACE, alone and with the cycle as given.
    ``build_triangulation`` walks the faces once when the given rotation
    turns with the outer face and twice when it must flip it, and the
    instance it returns walks them no more."""
    rotation = k4().rotation
    for outer in [(1, 2, 3), (), (1, 2, 4, 3)]:
        report = validate_triangulation(PlaneTriangulation(4, rotation, outer))
        assert not report.ok and report.violations == (Violation(
            "OUTER_FACE_NOT_A_FACE", "designated outer face is not a face cycle", outer),)
    walks = []
    real = plane_graph.faces_from_rotation

    def counted(rotation):
        walks.append(1)
        return real(rotation)

    monkeypatch.setattr(plane_graph, "faces_from_rotation", counted)
    flipped = {u: v[::-1] for u, v in rotation.items()}
    for given, walked in ((rotation, 1), (flipped, 2)):
        walks.clear()
        G = build_triangulation(4, given, K4_OUTER)
        assert G.rotation == rotation and validate_triangulation(G).ok
        assert _canon_cycle(candidate_outer_faces(G)[0]) == _canon_cycle(K4_OUTER)
        assert len(walks) == walked


@pytest.mark.parametrize("n, rot, outer, rule, elements", [
    # K4 with every rotation in label order: a torus embedding, V - E + F = 0
    (4, {1: [2, 3, 4], 2: [1, 3, 4], 3: [1, 2, 4], 4: [1, 2, 3]}, (1, 2, 3, 4), "EULER", ()),
    # vertex 4 hangs off vertex 1 by a single edge
    (4, {1: [2, 4, 3], 2: [3, 1], 3: [1, 2], 4: [1]}, (1, 2, 3), "LOW_DEGREE", (4,)),
    # vertex 5 sits inside the quadrilateral 1-2-3-4 on the path 1-5-3
    (5, {1: [2, 5, 4], 2: [3, 1], 3: [4, 5, 2], 4: [1, 3], 5: [3, 1]}, (1, 2, 3, 4),
     "DEGREE2_INTERIOR", (5,)),
], ids=["euler", "low_degree", "degree2_interior"])
def test_validate_reports_rule(n, rot, outer, rule, elements):
    report = validate_triangulation(PlaneTriangulation(n, rot, outer))
    assert not report.ok
    assert (rule, elements) in {(v.rule, v.elements) for v in report.violations}


def test_candidate_outer_faces():
    # maximal planar: every face is a candidate, current outer first
    cands = candidate_outer_faces(k4())
    assert len(cands) == 4
    assert _canon_cycle(cands[0]) == _canon_cycle(K4_OUTER)
    # longer outer face: fixed
    assert candidate_outer_faces(fan5()) == [[1, 2, 3, 4, 5]]


def test_reembed_with_outer_face():
    G = k4()
    other = next(f for f in G.faces if _canon_cycle(f) != _canon_cycle(G.outer_face))
    H = reembed_with_outer_face(G, other)
    assert H.rotation == G.rotation
    assert _canon_cycle(H.outer_face) == _canon_cycle(other)
    assert validate_triangulation(H).ok
    # the reversed cycle names the same face, kept in G's orientation
    assert reembed_with_outer_face(G, other[::-1]).outer_face == H.outer_face
    assert reembed_with_outer_face(G, list(reversed(K4_OUTER))) is G
    for cycle in ([1, 2, 4, 3], [1, 2, 5], [1, 2], []):
        with pytest.raises(FaceNotFound):
            reembed_with_outer_face(G, cycle)
