"""Exact integer linear algebra for lattice point configurations.

Everything here is exact: points are integer triples and determinants are
Python ints.  No floats and no rationals anywhere.  unimodular_map finds
the affine map fixed by four point pairs in integers, when that map is
integral with determinant +-1 (a determinant comparison, an adjugate
product and a divisibility test).  hermite_normal_form is the normal form
of an integer matrix under left multiplication by GL_n(Z); edge_form
applies it to the edge vectors of an ordered point tuple, so equal forms
mean exactly that an integral unimodular map sends one tuple onto the
other.  Coordinates are validated once, where points enter (check_point,
called by PointConfig); det4 and unimodular_map trust their input.

The basic quantity is the normalized 4x4 determinant of four lattice
points (top row of ones, points as columns), which equals the signed
volume of their tetrahedron normalized so that a unimodular simplex has
volume 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterable, Optional, Sequence, Tuple

IntVec3 = Tuple[int, int, int]

#: Coordinates are validated against this bound; the classification never
#: needs anything close to it, and keeping inputs bounded rules out
#: accidental use of floats or huge garbage values.
COORD_BOUND = 10**4


class DegenerateSource(ValueError):
    """Raised when solving an affine map from a coplanar source quadruple."""


def check_point(p: Sequence[int]) -> IntVec3:
    """Validate one lattice point: three ints with |coordinate| <= 10^4."""
    if len(p) != 3:
        raise ValueError(f"expected 3 coordinates, got {len(p)}")
    x, y, z = p
    for c in (x, y, z):
        if not isinstance(c, int) or isinstance(c, bool):
            raise TypeError(f"non-integer coordinate {c!r}")
        if abs(c) > COORD_BOUND:
            raise ValueError(f"coordinate {c} exceeds bound {COORD_BOUND}")
    return (x, y, z)


def sub(p: Sequence[int], q: Sequence[int]) -> IntVec3:
    return (p[0] - q[0], p[1] - q[1], p[2] - q[2])


def add(p: Sequence[int], q: Sequence[int]) -> IntVec3:
    return (p[0] + q[0], p[1] + q[1], p[2] + q[2])


def dot(p: Sequence[int], q: Sequence[int]) -> int:
    return p[0] * q[0] + p[1] * q[1] + p[2] * q[2]


def cross(u: Sequence[int], v: Sequence[int]) -> IntVec3:
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def det3(u: Sequence[int], v: Sequence[int], w: Sequence[int]) -> int:
    """Determinant of the 3x3 matrix with columns u, v, w."""
    return dot(u, cross(v, w))


def det4(p1, p2, p3, p4) -> int:
    """Normalized volume determinant of four lattice points.

    det of [[1,1,1,1],[p1 p2 p3 p4 as columns]]; equals det3 of the
    difference vectors, so a unimodular tetrahedron gives +-1 and four
    coplanar points give 0.  The points are not validated here: callers
    pass points that check_point has accepted, such as PointConfig points.
    """
    return det3(sub(p2, p1), sub(p3, p1), sub(p4, p1))


def gcd_all(values: Iterable[int]) -> int:
    """gcd of arbitrarily many integers; 0 for an empty or all-zero input."""
    g = 0
    for v in values:
        g = gcd(g, v)
    return g


def is_primitive(v: Iterable[int]) -> bool:
    """True for an integer vector whose entries have gcd 1 (never for 0)."""
    return gcd_all(v) == 1


def hermite_normal_form(rows: Sequence[Sequence[int]]) -> Tuple[Tuple[int, ...], ...]:
    """Row Hermite normal form of an integer matrix (Cohen, GTM 138, 2.4).

    The unique U @ rows, U in GL_n(Z), in row echelon form with positive
    pivots, zero rows last and entries above each pivot in [0, pivot); so
    two matrices share it iff one is U @ the other.  Per column, Euclid's
    algorithm on the unused rows leaves one nonzero entry, the pivot.
    """
    h = [list(r) for r in rows]
    top = 0
    for col in range(len(h[0]) if h else 0):
        if top == len(h):
            break
        while True:
            live = [i for i in range(top, len(h)) if h[i][col]]
            if not live:
                break
            piv = min(live, key=lambda i: abs(h[i][col]))
            h[top], h[piv] = h[piv], h[top]
            if len(live) == 1:
                break
            for i in range(top + 1, len(h)):
                q = h[i][col] // h[top][col]
                h[i] = [a - q * b for a, b in zip(h[i], h[top])]
        if not h[top][col]:
            continue
        if h[top][col] < 0:
            h[top] = [-a for a in h[top]]
        for i in range(top):
            q = h[i][col] // h[top][col]
            h[i] = [a - q * b for a, b in zip(h[i], h[top])]
        top += 1
    return tuple(tuple(r) for r in h)


def edge_form(points: Sequence[Sequence[int]]) -> Tuple[Tuple[int, ...], ...]:
    """Row Hermite normal form of the edge matrix (columns p_i - p_0).

    An integer affine map of determinant +-1 multiplies that matrix on the
    left by its GL_3(Z) linear part, so two ordered point tuples have the
    same form iff such a map sends the one onto the other, point by point.
    """
    p0 = points[0]
    return hermite_normal_form(tuple(zip(*(sub(p, p0) for p in points[1:]))))


def _mat_vec(m, v):
    return tuple(sum(m[i][j] * v[j] for j in range(3)) for i in range(3))


def _mat_det(m):
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def _adjugate(m):
    """Adjugate of a 3x3 matrix, so that m @ adj(m) == det(m) * I."""
    return (
        (
            m[1][1] * m[2][2] - m[1][2] * m[2][1],
            m[0][2] * m[2][1] - m[0][1] * m[2][2],
            m[0][1] * m[1][2] - m[0][2] * m[1][1],
        ),
        (
            m[1][2] * m[2][0] - m[1][0] * m[2][2],
            m[0][0] * m[2][2] - m[0][2] * m[2][0],
            m[0][2] * m[1][0] - m[0][0] * m[1][2],
        ),
        (
            m[1][0] * m[2][1] - m[1][1] * m[2][0],
            m[0][1] * m[2][0] - m[0][0] * m[2][1],
            m[0][0] * m[1][1] - m[0][1] * m[1][0],
        ),
    )


@dataclass(frozen=True)
class AffineMap:
    """Integer affine map x -> matrix @ x + translation."""

    matrix: Tuple[IntVec3, IntVec3, IntVec3]
    translation: IntVec3

    @property
    def det(self) -> int:
        return _mat_det(self.matrix)

    def apply(self, p: Sequence[int]) -> IntVec3:
        return add(_mat_vec(self.matrix, p), self.translation)

    def __call__(self, p: Sequence[int]) -> IntVec3:
        return self.apply(p)


def unimodular_map(src: Sequence[Sequence[int]], dst: Sequence[Sequence[int]]) -> Optional[AffineMap]:
    """Integer affine map of determinant +-1 sending src[i] -> dst[i], or None.

    With S and D the matrices of difference vectors of src and dst, the
    linear part is D @ adj(S) / det S: it has determinant +-1 iff
    |det D| == |det S|, and integer entries iff det S divides every entry
    of D @ adj(S); the translation d_0 - M s_0 is then integral too.  The
    source quadruple must be affinely independent (else DegenerateSource).
    The points are not validated here: callers pass points that
    check_point has accepted, such as PointConfig points.
    """
    if len(src) != 4 or len(dst) != 4:
        raise ValueError("unimodular_map needs exactly 4 source and 4 destination points")
    S = tuple(zip(*(sub(src[i], src[0]) for i in (1, 2, 3))))  # columns s_i - s_0
    det_s = _mat_det(S)
    if det_s == 0:
        raise DegenerateSource("source points are coplanar")
    D = tuple(zip(*(sub(dst[i], dst[0]) for i in (1, 2, 3))))
    if abs(_mat_det(D)) != abs(det_s):
        return None
    adj = _adjugate(S)
    mat = []
    for row in D:
        num = tuple(row[0] * adj[0][j] + row[1] * adj[1][j] + row[2] * adj[2][j] for j in range(3))
        if any(v % det_s for v in num):
            return None
        mat.append(tuple(v // det_s for v in num))
    mat = tuple(mat)
    return AffineMap(mat, sub(dst[0], _mat_vec(mat, src[0])))
