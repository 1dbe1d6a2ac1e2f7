"""Empty lattice tetrahedra and their (p, q) normal forms.

A lattice tetrahedron is empty when its only lattice points are its four
vertices.  Every empty tetrahedron is equivalent to
T(p,q) = conv{(0,0,0), (1,0,0), (0,0,1), (p,q,1)} with q = its volume and
gcd(p,q) = 1, and T(p,q) ~ T(p',q) iff p' = +-p^{+-1} (mod q).

Emptiness is decided without point enumeration: a nondegenerate
tetrahedron is empty iff some pair of opposite edges is primitive and
admits an integer functional constant on each edge of the pair with the
two values differing by 1 (then every lattice point lies on one of the
two edges).
"""

from __future__ import annotations

import itertools
from math import gcd
from typing import Optional, Sequence, Tuple

from .exactlinalg import (
    IntVec3,
    add,
    check_point,
    cross,
    det4,
    dot,
    gcd_all,
    is_primitive,
    sub,
    _adjugate,
    _mat_det,
)

_EDGE_PAIRS = (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2)))


def _ext_gcd(a: int, b: int) -> Tuple[int, int, int]:
    """(g, x, y) with a*x + b*y = g = gcd(a, b) >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def solve_dot_one(f: Sequence[int]) -> IntVec3:
    """Integer w with f . w = 1 for a primitive integer vector f."""
    f1, f2, f3 = f
    g12, a1, a2 = _ext_gcd(f1, f2)
    g, b1, b3 = _ext_gcd(g12, f3)
    if g != 1:
        raise ValueError("functional is not primitive")
    return (b1 * a1, b1 * a2, b3)


def _hnf_two_rows(rows):
    """Two basis vectors of the rank-2 lattice spanned by the given rows."""
    rows = [list(r) for r in rows if any(r)]
    # column-style Euclid: sweep each coordinate in turn
    basis = []
    for col in range(3):
        while True:
            nz = [r for r in rows if r[col] != 0]
            if len(nz) <= 1:
                break
            nz.sort(key=lambda r: abs(r[col]))
            a, b = nz[0], nz[1]
            q = b[col] // a[col]
            for i in range(3):
                b[i] -= q * a[i]
            rows = [r for r in rows if any(r)]
        nz = [r for r in rows if r[col] != 0]
        if nz:
            basis.append(nz[0])
            rows = [r for r in rows if r is not nz[0]]
    return basis


def unimodular_with_last_row(f: Sequence[int]) -> Tuple[IntVec3, IntVec3, IntVec3]:
    """Rows of a unimodular integer matrix whose last row is the primitive f.

    Built from a vector w with f.w = 1 and a lattice basis (b1, b2) of
    ker(f): the inverse of the column matrix [b1 b2 w] has rows
    (g1, g2, f).
    """
    w = solve_dot_one(f)
    gens = []
    for i in range(3):
        e = [0, 0, 0]
        e[i] = 1
        gens.append(tuple(e[j] - f[i] * w[j] for j in range(3)))
    b1, b2 = _hnf_two_rows(gens)
    cols = (tuple(b1), tuple(b2), tuple(w))
    B = tuple(zip(*cols))  # matrix with columns b1, b2, w
    d = _mat_det(B)
    if d not in (1, -1):
        raise RuntimeError(f"basis of ker {tuple(f)} plus w has determinant {d}")
    adj = _adjugate(B)
    M = tuple(tuple(v // d for v in row) for row in adj)
    if M[2] != tuple(f):
        raise RuntimeError(f"last row {M[2]} differs from {tuple(f)}")
    return M


def _width_one_pair(pts) -> Optional[Tuple[Tuple[int, int], Tuple[int, int], IntVec3]]:
    """Opposite-edge pair with primitive edges and a width-1 functional."""
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
            f = (n[0] // g, n[1] // g, n[2] // g)
            return (i, j), (k, l), f
    return None


def is_empty_tetrahedron(points: Sequence[Sequence[int]]) -> bool:
    """True iff the four points span a tetrahedron whose only lattice
    points are its vertices."""
    pts = [check_point(p) for p in points]
    if len(pts) != 4:
        raise ValueError(f"need 4 points, got {len(pts)}")
    if det4(*pts) == 0:
        return False
    return _width_one_pair(pts) is not None


def white_type(points: Sequence[Sequence[int]]) -> Optional[Tuple[int, int]]:
    """Normal form (p, q) of an empty tetrahedron, None if not empty.

    q is the volume; p is reduced to the canonical representative
    min{p, q-p, p^{-1} mod q, q - (p^{-1} mod q)}.  Degenerate or
    non-empty input gives None.
    """
    pts = [check_point(p) for p in points]
    if len(pts) != 4:
        raise ValueError(f"need 4 points, got {len(pts)}")
    q = abs(det4(*pts))
    if q == 0:
        return None
    pair = _width_one_pair(pts)
    if pair is None:
        return None
    (i, j), (k, l), f = pair
    if dot(f, sub(pts[k], pts[i])) < 0:
        f = (-f[0], -f[1], -f[2])
    rows = unimodular_with_last_row(f)

    def apply(p):
        return tuple(dot(rows[r], p) for r in range(3))

    a, b = apply(pts[i]), apply(pts[j])
    c, d = apply(pts[k]), apply(pts[l])
    # translate a to the origin; now a,b at height 0 and c,d at height 1
    b, c, d = sub(b, a), sub(c, a), sub(d, a)
    if (b[2], c[2], d[2]) != (0, 1, 1):
        raise RuntimeError(f"edge heights {(b[2], c[2], d[2])}, expected (0, 1, 1)")
    # 2D unimodular move sending b to (1,0,0)
    g, x, y = _ext_gcd(b[0], b[1])
    if g != 1:
        raise RuntimeError(f"edge vector {b} is not primitive")
    u2 = (x, y)
    v2 = (-b[1], b[0])
    twod = lambda p: (u2[0] * p[0] + u2[1] * p[1], v2[0] * p[0] + v2[1] * p[1], p[2])
    b, c, d = twod(b), twod(c), twod(d)
    if b != (1, 0, 0):
        raise RuntimeError(f"edge vector moved to {b}, expected (1, 0, 0)")
    # shear so that c becomes (0,0,1)
    shear = lambda p: (p[0] - c[0] * p[2], p[1] - c[1] * p[2], p[2])
    d = shear(d)
    p_raw, q_raw = d[0], d[1]
    if abs(q_raw) != q:
        raise RuntimeError(f"normal form height {q_raw} differs from volume {q}")
    if q_raw < 0:
        q_raw, p_raw = -q_raw, p_raw  # negate y; x untouched
    return canonical_type(p_raw, q)


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


def type_orbit(p: int, q: int) -> frozenset:
    """Residues +-p^{+-1} (mod q) that describe the same tetrahedron."""
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
    return p2 % q1 in type_orbit(p1, q1)


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
