"""Tough sets by exhaustive search, the oracle ``dtrealize``'s refutations are
checked against.

A tough set of a graph is a vertex set S with |S| >= 2 whose removal leaves
at least |S| components. This module reads a graph only as a rotation dict
(vertex -> neighbours), holds vertex sets as bitmasks and counts components
by its own search over them; it imports nothing from ``dtrealize``.
"""


def _neighbours(rotation):
    """Vertex v's neighbours as a bitmask, bit v - 1 for vertex v."""
    return {v: sum(1 << (w - 1) for w in nbrs) for v, nbrs in rotation.items()}


def _components(adjacent, n, removed):
    """The number of components of the graph on the vertices not in the
    bitmask ``removed``."""
    left = ((1 << n) - 1) & ~removed
    count = 0
    while left:
        reached = left & -left
        frontier = reached
        while frontier:
            grown = 0
            while frontier:
                low = frontier & -frontier
                grown |= adjacent[low.bit_length()]
                frontier ^= low
            frontier = grown & left & ~reached
            reached |= frontier
        left &= ~reached
        count += 1
    return count


def is_tough(rotation, S):
    """Whether the labels ``S`` are a tough set: at least two, none repeated,
    each a vertex of the graph, leaving at least len(S) components."""
    if len(S) < 2 or len(set(S)) != len(S) or not set(S) <= set(rotation):
        return False
    mask = sum(1 << (v - 1) for v in S)
    return _components(_neighbours(rotation), len(rotation), mask) >= len(S)


def closed(rotation, outer_face):
    """The graph that a realization's refutation argument is about: the
    graph itself when its outer face is a triangle, otherwise the graph plus
    an apex n + 1 joined to every vertex of the outer cycle."""
    if len(outer_face) == 3:
        return rotation
    apex = len(rotation) + 1
    out = {v: list(nbrs) + [apex] * (v in outer_face) for v, nbrs in rotation.items()}
    out[apex] = list(outer_face)
    return out


def find_tough_set(rotation):
    """A tough set of the graph on vertices 1..n, as sorted labels, or None,
    by trying every vertex set with at most n / 2 vertices (more leave fewer
    vertices than they number)."""
    n = len(rotation)
    adjacent = _neighbours(rotation)
    for mask in range(1 << n):
        size = bin(mask).count("1")
        if 2 <= size <= n // 2 and _components(adjacent, n, mask) >= size:
            return [v for v in range(1, n + 1) if mask >> (v - 1) & 1]
    return None
