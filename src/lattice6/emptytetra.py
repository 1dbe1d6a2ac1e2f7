"""Empty lattice tetrahedra and their (p, q) normal forms.

A lattice tetrahedron is empty when its only lattice points are its four
vertices.  By White's theorem every empty tetrahedron is equivalent to
T(p,q) = conv{(0,0,0), (1,0,0), (0,0,1), (p,q,1)} with q = its volume and
gcd(p,q) = 1, and T(p,q) ~ T(p',q) iff p' = +-p^{+-1} (mod q).

Emptiness is decided without point enumeration: a nondegenerate
tetrahedron is empty iff some pair of opposite edges is primitive and
admits an integer functional constant on each edge of the pair with the
two values differing by 1 (then every lattice point lies on one of the
two edges).

The type is read off the row Hermite normal form of the edge matrix
(columns v_i - v_0).  Every facet of an empty tetrahedron is a unimodular
triangle, so that form is [[1,0,a],[0,1,b],[0,0,q]] whatever the vertex
order, and the tetrahedron is equivalent to conv{0, e1, e2, (a,b,q)}.
There e3 has barycentric coordinates (a+b-1, -a, -b, 1)/q, which for an
empty tetrahedron pair up as (p, -p, 1, -1)/q: the vertex with 1 pairs
with e1 when a = 1 (mod q), leaving p = b, and otherwise with e2 or 0,
leaving p = a.
"""

from __future__ import annotations

from math import gcd
from typing import Optional, Sequence, Tuple

from .exactlinalg import (
    check_point,
    cross,
    det4,
    dot,
    edge_form,
    gcd_all,
    is_primitive,
    sub,
)

_EDGE_PAIRS = (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2)))


def _is_empty(pts) -> bool:
    """is_empty_tetrahedron of four points that check_point has accepted:
    nondegenerate, and some opposite-edge pair is primitive with a
    width-1 functional."""
    if det4(*pts) == 0:
        return False
    for (i, j), (k, l) in _EDGE_PAIRS:
        e1 = sub(pts[j], pts[i])
        e2 = sub(pts[l], pts[k])
        if not (is_primitive(e1) and is_primitive(e2)):
            continue
        n = cross(e1, e2)
        g = gcd_all(n)
        if g == 0:
            continue  # parallel edges: degenerate tetrahedron
        if abs(dot(n, sub(pts[k], pts[i]))) == g:
            return True
    return False


def is_empty_tetrahedron(points: Sequence[Sequence[int]]) -> bool:
    """True iff the four points span a tetrahedron whose only lattice
    points are its vertices."""
    pts = [check_point(p) for p in points]
    if len(pts) != 4:
        raise ValueError(f"need 4 points, got {len(pts)}")
    return _is_empty(pts)


def white_type(points: Sequence[Sequence[int]]) -> Optional[Tuple[int, int]]:
    """Normal form (p, q) of an empty tetrahedron, None if not empty.

    q is the volume; p is reduced to the canonical representative
    min{p, q-p, p^{-1} mod q, q - (p^{-1} mod q)}.  Degenerate or
    non-empty input gives None.
    """
    if not is_empty_tetrahedron(points):
        return None
    h = edge_form(points)
    if [row[:2] for row in h] != [(1, 0), (0, 1), (0, 0)]:
        raise RuntimeError(f"edge matrix Hermite form {h} is not [[1,0,a],[0,1,b],[0,0,q]]")
    a, b, q = h[0][2], h[1][2], h[2][2]
    # 0 <= a, b < q, so a = 1 (mod q) is a == 1 for q > 1; for q = 1, a = b = 0
    return canonical_type(b if a == 1 else a, q)


def canonical_type(p: int, q: int) -> Tuple[int, int]:
    """Reduce (p, q) to the canonical orbit representative."""
    if q < 1:
        raise ValueError("q must be positive")
    p %= q
    if q == 1:
        return (0, 1)
    if gcd(p, q) != 1:
        raise ValueError(f"p={p} not a unit modulo q={q}")
    inv = pow(p, -1, q)
    return (min(p, q - p, inv, q - inv), q)
