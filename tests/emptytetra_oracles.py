"""White's theorem stated directly, as oracles for emptytetra.white_type
and canonical_type: the tetrahedron T(p,q), the orbit of residues naming
one tetrahedron, equivalence of types, and the canonical types of a volume.
"""

from __future__ import annotations

from math import gcd
from typing import Tuple

from lattice6.emptytetra import canonical_type


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
