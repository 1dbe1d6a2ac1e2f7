"""Empty lattice tetrahedra and their (p, q) normal forms.

A lattice tetrahedron is empty when its only lattice points are its four
vertices.  By White's theorem every empty tetrahedron is equivalent to
T(p,q) = conv{(0,0,0), (1,0,0), (0,0,1), (p,q,1)} with q = its volume and
gcd(p,q) = 1, and T(p,q) ~ T(p',q) iff p' = +-p^{+-1} (mod q).

Emptiness is decided without point enumeration, in the unimodular frame
of a facet.  A lattice triangle abc is empty exactly when its normal
n = (b - a) x (c - a) is primitive; then some integer t has n.t = 1, the
matrix [b - a, c - a, t] has determinant 1, and its integer inverse U
(_facet_frame) is an affine unimodular map that sends a, b, c to 0, e1, e2
and a fourth point p to (x, y, h) = U (p - a), with h = n.(p - a) =
det4(a, b, c, p).  By White ("Lattice tetrahedra", 1964), conv(0, e1, e2,
(x, y, h)) with q = |h| > 0 is empty iff, modulo q, x = 1 with
gcd(y, q) = 1, or y = 1 with gcd(x, q) = 1, or x + y = 0 with
gcd(x, q) = 1 (_framed_empty); and a lattice point at height k lies
strictly inside it iff (-k x) mod q and (-k y) mod q are both nonzero and
their sum is below q - k (_framed_has_interior_point).

The key of an ordered tetrahedron abcd (_ordered_key) is
(x mod q, y mod q, q) for d = (x, y, h) in the frame of abc and q = |h|,
or None unless abc is a unimodular triangle and d lies off its plane.
Two ordered tetrahedra with keys have equal keys exactly when an
integral unimodular map carries the one onto the other, vertex by
vertex: in the frames such a map fixes 0, e1 and e2, so it is linear
with columns e1, e2 and (s, t, +-1), a shear (x, y, z) -> (x + s z,
y + t z, z), possibly after the reflection z -> -z, which sends
(x, y, h) to (x + s h, y + t h, +-h); those maps keep the key and reach
every point with it.  Every facet of an empty tetrahedron is a
unimodular triangle, so each of its 24 orders has a key; a tetrahedron
whose first facet is not unimodular is not empty.  white_type, the fine
cells of polytope.holds_only_its_points, size5's (2,1) read-off and the
G/H gluing of classify6 read this key.  white_type is the one public
emptiness test: it returns None exactly for a tetrahedron that is not
empty.

The type is read off the key (a, b, q): conv{0, e1, e2, (a, b, q)} has
e3 at barycentric coordinates (a+b-1, -a, -b, 1)/q, which for an empty
tetrahedron pair up as (p, -p, 1, -1)/q: the vertex with 1 pairs with e1
when a = 1 (mod q), leaving p = b, and otherwise with e2 or 0, leaving
p = a.
"""

from __future__ import annotations

from math import gcd
from typing import Optional, Sequence, Tuple

from .exactlinalg import (
    IntVec3,
    _adjugate,
    _mat_vec,
    _xgcd,
    check_point,
    cross,
    sub,
)

#: A facet frame: the rows of the integer inverse U of [b - a, c - a, t].
Frame = Tuple[IntVec3, IntVec3, IntVec3]


def _facet_frame(a: IntVec3, b: IntVec3, c: IntVec3) -> Optional[Frame]:
    """The unimodular frame U of the triangle abc, so that U (p - a) is
    (x, y, h) with p = a + x (b - a) + y (c - a) + h t; None unless abc is
    a unimodular triangle (n = (b - a) x (c - a) primitive).

    t solves n.t = 1 by two extended gcds, so [b - a, c - a, t] has
    determinant n.t = 1 and its adjugate is its inverse; the last row of
    that inverse is n, so h = det4(a, b, c, p).
    """
    u, v = sub(b, a), sub(c, a)
    n = cross(u, v)
    g01, s0, s1 = _xgcd(n[0], n[1])
    g, r01, r2 = _xgcd(g01, n[2])
    if g != 1:
        return None
    return _adjugate(tuple(zip(u, v, (r01 * s0, r01 * s1, r2))))


def _ordered_key(a: IntVec3, b: IntVec3, c: IntVec3, d: IntVec3) -> Optional[Tuple[int, int, int]]:
    """The key (x mod q, y mod q, q) of the ordered tetrahedron abcd, with
    (x, y, h) = U (d - a) in the frame of abc (_facet_frame) and q = |h|;
    None unless abc is a unimodular triangle and d lies off its plane.
    Equal keys say that an integral unimodular map carries the one
    tetrahedron onto the other, vertex by vertex (module docstring)."""
    frame = _facet_frame(a, b, c)
    x, y, h = _mat_vec(frame, sub(d, a)) if frame else (0, 0, 0)
    q = abs(h)
    return (x % q, y % q, q) if q else None


def _framed_empty(x: int, y: int, h: int) -> bool:
    """Whether conv(0, e1, e2, (x, y, h)) is an empty tetrahedron: h != 0
    and White's congruence modulo q = |h| holds (x = 1 with gcd(y, q) = 1,
    y = 1 with gcd(x, q) = 1, or x + y = 0 with gcd(x, q) = 1)."""
    q = abs(h)
    if q == 0:
        return False
    return ((x - 1) % q == 0 and gcd(y, q) == 1
            or (y - 1) % q == 0 and gcd(x, q) == 1
            or (x + y) % q == 0 and gcd(x, q) == 1)


def _framed_has_interior_point(x: int, y: int, h: int) -> bool:
    """Whether a lattice point lies strictly inside conv(0, e1, e2,
    (x, y, h)).  With q = |h|, the points at height k (1 <= k <= q - 2)
    have barycentric coordinates (q - k - a - b, a, b, k) / q with
    a = -k x and b = -k y modulo q, so the least positive choice is
    strictly inside iff a and b are nonzero and a + b + k < q."""
    q = abs(h)
    for k in range(1, q - 1):
        a, b = -k * x % q, -k * y % q
        if a and b and a + b + k < q:
            return True
    return False


def white_type(points: Sequence[Sequence[int]]) -> Optional[Tuple[int, int]]:
    """Normal form (p, q) of an empty tetrahedron, None if not empty.

    The four points are checked by check_point.  The tetrahedron is empty
    iff its key (_ordered_key) exists and White's congruence holds on it
    (_framed_empty); so white_type(points) is not None is the emptiness
    test.  q is the volume; p is read off the key (see the module
    docstring) and reduced to the canonical representative
    min{p, q-p, p^{-1} mod q, q - (p^{-1} mod q)}.
    """
    pts = [check_point(p) for p in points]
    if len(pts) != 4:
        raise ValueError(f"need 4 points, got {len(pts)}")
    key = _ordered_key(*pts)
    if key is None or not _framed_empty(*key):
        return None
    x, y, q = key
    return canonical_type(y if x == 1 else x, q)


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
