"""Circle predicates the tests check ``dtrealize`` against.

``dtrealize`` answers every circle question with the homogeneous
circumcenter and squared distances. ``in_circle_sign`` reaches the same
answer by another formula, the lifted 3x3 determinant, and is the reference
the oracle is cross-checked against. ``circumcenter`` divides the
homogeneous center out, for Fraction-valued reference centers.
"""

from dtrealize.geometry import RatPoint, circumcenter_homogeneous, con_poly


class CollinearTriple(ValueError):
    """Raised where a predicate needs three non-collinear points."""


def in_circle_sign(a: RatPoint, b: RatPoint, c: RatPoint, q: RatPoint) -> int:
    """Exact position of q relative to the circumcircle of {a, b, c}.

    Returns +1 strictly inside, 0 on the circle, -1 strictly outside.
    The result does not depend on the order of a, b, c.
    """
    orient = con_poly(a, b, c)
    if orient == 0:
        raise CollinearTriple(f"collinear triple {a}, {b}, {c}")
    # 3x3 determinant of lifted difference vectors; its sign times the
    # orientation sign of (a,b,c) is the in-circle test. With con_poly > 0
    # meaning clockwise, det > 0 for q inside when (a,b,c) is counterclockwise.
    ax, ay = a.x - q.x, a.y - q.y
    bx, by = b.x - q.x, b.y - q.y
    cx, cy = c.x - q.x, c.y - q.y
    det = (
        (ax * ax + ay * ay) * (bx * cy - cx * by)
        - (bx * bx + by * by) * (ax * cy - cx * ay)
        + (cx * cx + cy * cy) * (ax * by - bx * ay)
    )
    # con_poly > 0 is clockwise, i.e. negative ccw orientation.
    det = det if orient < 0 else -det
    if det > 0:
        return 1
    if det < 0:
        return -1
    return 0


def circumcenter(a: RatPoint, b: RatPoint, c: RatPoint) -> RatPoint:
    """Exact point equidistant from a, b and c."""
    ux, uy, d = circumcenter_homogeneous(a, b, c)
    if d == 0:
        raise CollinearTriple(f"collinear triple {a}, {b}, {c}")
    return RatPoint(ux / d, uy / d)
