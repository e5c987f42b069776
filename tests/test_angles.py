"""The angle LP, Rivin's volume maximisation and the face-by-face layout."""

import cmath
import math

import numpy as np
import pytest

from dtrealize import angles
from dtrealize.instances import fan_triangulation, random_instance
from dtrealize.plane_graph import candidate_outer_faces, reembed_with_outer_face

from test_acceptance import CASES
from test_realizer import bipyramid_kleetope


def _corner_angles(cs, points):
    """Per corner, the angle of a placement at that corner, in radians."""
    out = []
    for f in cs.faces:
        for k in range(3):
            p, q, r = (complex(*points[f[(k + d) % 3] - 1]) for d in range(3))
            out.append(abs(cmath.phase((r - p) / (q - p))))
    return np.array(out)


def _lp_graphs():
    graphs = [random_instance(n, seed)[1] for n, seed in CASES]
    graphs += [fan_triangulation(n) for n in range(4, 13)]
    return graphs + [bipyramid_kleetope()]


def test_a_realization_is_a_feasible_point_of_the_lp():
    """The generating points' own angles, with t their smallest slack, meet
    every row of the standard-form LP."""
    for n, seed in CASES[:12]:
        points, H = random_instance(n, seed)
        cs = angles.corners(H)
        lp = angles.angle_lp(H, cs)
        alpha = _corner_angles(cs, points) / math.pi
        hull = set(H.outer_face)
        slacks = [1 - alpha[cs.at_vertex[v]].sum() for v in sorted(hull)]
        slacks += [1 - alpha[cs.opposite[e]].sum() for e in sorted(cs.opposite)
                   if len(cs.opposite[e]) == 2]
        t = min(alpha.min(), *slacks, angles.T_CAP)
        assert t > 0
        row_slacks = [s - t for s in slacks] + [angles.T_CAP - t]
        x = np.concatenate([alpha - t, [t + 1], row_slacks])
        assert np.all(x >= 0)
        assert np.allclose(lp.A @ x, lp.b, atol=1e-9)


def test_t_star_agrees_with_linprog():
    optimize = pytest.importorskip("scipy.optimize")
    for G in _lp_graphs():
        for face in candidate_outer_faces(G):
            H = reembed_with_outer_face(G, face)
            cs = angles.corners(H)
            lp = angles.angle_lp(H, cs)
            ref = optimize.linprog(lp.c, A_eq=lp.A, b_eq=lp.b, bounds=(0, None),
                                   method="highs")
            assert ref.status == 0
            res = angles.solve_angle_lp(H, cs)
            assert res.converged
            assert abs(res.t_star - (ref.x[lp.tau] - 1)) < 1e-6


@pytest.mark.parametrize("G", [random_instance(12, 1008)[1], random_instance(9, 4007)[1],
                               fan_triangulation(8)], ids=["random12", "random9", "fan8"])
def test_volume_maximum_lays_out_every_face_with_its_angles(G):
    """At Rivin's maximum the law-of-sines lengths agree across faces, so the
    breadth-first layout reproduces the angles of every face, also of faces
    it never placed from, and keeps each face counterclockwise."""
    cs = angles.corners(G)
    lp = angles.solve_angle_lp(G, cs)
    assert lp.t_star > 0
    x = angles.maximise_volume(cs, lp.angles)
    assert x is not None and np.all(x > 0)
    sums = x.reshape(-1, 3).sum(axis=1)
    assert np.allclose(sums, math.pi, atol=1e-12)
    start = math.pi * lp.angles.reshape(-1, 3)
    start = (start / start.sum(axis=1, keepdims=True)).ravel() * math.pi
    for e, cs_e in cs.opposite.items():
        assert x[cs_e].sum() == pytest.approx(start[cs_e].sum(), abs=1e-9)
    points = angles.layout(G.n, cs, x)
    assert np.allclose(_corner_angles(cs, points), x, atol=1e-8)
    for f in cs.faces:
        (ax, ay), (bx, by), (cx, cy) = (points[v - 1] for v in f)
        assert (bx - ax) * (cy - ay) - (by - ay) * (cx - ax) > 0
