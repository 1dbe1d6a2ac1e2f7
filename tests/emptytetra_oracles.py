"""White's theorem stated directly, as oracles for emptytetra.white_type
and canonical_type: the tetrahedron T(p,q), the orbit of residues naming
one tetrahedron, equivalence of types, and the canonical types of a volume.
Also the two tests that emptytetra's frame kernels replaced, as their
oracles: emptiness by a pair of opposite edges (is_empty_by_edges, for
_framed_empty) and a walk over the cosets of the edge lattice for a point
strictly inside (has_interior_point, for _framed_has_interior_point).
"""

from __future__ import annotations

import itertools
from math import gcd
from typing import Tuple

from lattice6.emptytetra import canonical_type
from lattice6.exactlinalg import cross, det4, dot, sub
from lattice6.polytope import _cosets

_EDGE_PAIRS = (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2)))


def is_empty_by_edges(pts) -> bool:
    """Whether four points span an empty tetrahedron: nondegenerate, and
    some pair of opposite edges is primitive and admits an integer
    functional constant on each edge with values differing by 1, so that
    every lattice point of the tetrahedron lies on one of the two edges."""
    if det4(*pts) == 0:
        return False
    for (i, j), (k, l) in _EDGE_PAIRS:
        e1 = sub(pts[j], pts[i])
        e2 = sub(pts[l], pts[k])
        if not (gcd(*e1) == 1 and gcd(*e2) == 1):
            continue
        n = cross(e1, e2)
        g = gcd(*n)
        if g == 0:
            continue  # parallel edges: degenerate tetrahedron
        if abs(dot(n, sub(pts[k], pts[i]))) == g:
            return True
    return False


def has_interior_point(v0, a, b, c) -> bool:
    """Whether a lattice point lies strictly inside the tetrahedron
    conv(v0, a, b, c): whether some coset of polytope._cosets has all four
    barycentric coordinates positive, lambda_i > 0 and sum(lambda) < D.

    False at once when D < 4: a lattice point strictly inside cones the
    tetrahedron into four lattice tetrahedra of normalized volume >= 1.
    """
    volume = det4(v0, a, b, c)
    if abs(volume) < 4:
        return False
    d, _, adj, pivots = _cosets(volume, v0, a, b, c)
    (c00, c01, c02), (c10, c11, c12), (c20, c21, c22) = adj
    for r0, r1, r2 in itertools.product(*pivots):
        l0 = (c00 * r0 + c01 * r1 + c02 * r2) % d
        l1 = (c10 * r0 + c11 * r1 + c12 * r2) % d
        l2 = (c20 * r0 + c21 * r1 + c22 * r2) % d
        if l0 and l1 and l2 and l0 + l1 + l2 < d:
            return True
    return False


def type_orbit(p: int, q: int) -> frozenset:
    """Residues +-p^{+-1} (mod q) that describe the same tetrahedron."""
    if q < 1:
        raise ValueError("q must be positive")
    p %= q
    if q == 1:
        return frozenset({0})
    inv = pow(p, -1, q)
    return frozenset({p, (q - p) % q, inv, (q - inv) % q})


def types_equivalent(t1: Tuple[int, int], t2: Tuple[int, int]) -> bool:
    """True when T(p1,q1) and T(p2,q2) are unimodularly equivalent."""
    p1, q1 = t1
    p2, q2 = t2
    if q1 != q2:
        return False
    orbit = type_orbit(p1, q1)  # first: it rejects q < 1 before p2 % q2 divides
    return p2 % q2 in orbit


def standard_tetrahedron(p: int, q: int):
    """Vertices of T(p,q)."""
    return ((0, 0, 0), (1, 0, 0), (0, 0, 1), (p, q, 1))


def white_classes(q: int) -> Tuple[Tuple[int, int], ...]:
    """All canonical (p, q) normal forms of empty tetrahedra of volume q."""
    if q == 1:
        return ((0, 1),)
    reps = sorted(
        {canonical_type(p, q) for p in range(1, q) if gcd(p, q) == 1}
    )
    return tuple(reps)
