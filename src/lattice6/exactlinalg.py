"""Exact integer linear algebra for lattice point configurations.

Everything here is exact: points are integer triples and determinants are
Python ints.  No floats and no rationals anywhere.  unimodular_map finds
the affine map fixed by four point pairs in integers, when that map is
integral with determinant +-1 (a determinant comparison, an adjugate
product and a divisibility test).  hermite_normal_form is the normal form
of a nonsingular 3x3 integer matrix under left multiplication by GL_3(Z)
(a singular one raises DegenerateSource); edge_form applies it to the
edge vectors of an ordered point quadruple, so equal forms mean exactly
that an integral unimodular map sends one quadruple onto the other.
Coordinates are validated once, where points enter (check_point, called
by PointConfig); det4 and unimodular_map trust their input.

The basic quantity is the normalized 4x4 determinant of four lattice
points (top row of ones, points as columns), which equals the signed
volume of their tetrahedron normalized so that a unimodular simplex has
volume 1.  det3, det4 and _mat_vec are closed-form expressions, for the
hot loops.
quad_volumes is the one loop of det4 over the index quadruples of a
configuration, and PointConfig.volumes() its one caller.  It returns one
table: the volumes of the sorted quadruples, then their negatives (a
base plus one point gets the same table from polytope.Extension, with no
det4).
Every other determinant of configuration points is an entry of that
table, at its _slots entry: det4 of an ordered label quadruple is the
volume of its sorted quadruple, negated when the order is odd.  The
hull's placing triangulation (the sides it tests and its tetrahedra's
signed volumes), volume vectors, chirotopes, circuits, the maximal
|volume| and barycentric numerators (the width's and the equivalence
normal form's) all index the table, and _relabelings reads the table
of a relabeled configuration off it (the chirotopes of cases C and E in
their points' roles).  det3 is
left to the matrices of affine maps (AffineMap.det, unimodular_map); no
other module calls it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple

IntVec3 = Tuple[int, int, int]

#: Coordinates are validated against this bound; the classification never
#: needs anything close to it, and keeping inputs bounded rules out
#: accidental use of floats or huge garbage values.
COORD_BOUND = 10**4


class DegenerateSource(ValueError):
    """Raised on affinely dependent input: a coplanar source quadruple of
    unimodular_map, or a singular matrix given to hermite_normal_form."""


class VerificationFailed(Exception):
    """An internal check of the library failed: a cross-check of the
    classification, a bundled table, a catalog lookup or an invariant of
    a computation.  The library's named failures derive from it, and the
    command line reports each as "verification failed"."""


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
    u0, u1, u2 = u
    v0, v1, v2 = v
    w0, w1, w2 = w
    return u0 * (v1 * w2 - v2 * w1) + u1 * (v2 * w0 - v0 * w2) + u2 * (v0 * w1 - v1 * w0)


def det4(p1, p2, p3, p4) -> int:
    """Normalized volume determinant of four lattice points.

    det of [[1,1,1,1],[p1 p2 p3 p4 as columns]]; equals det3 of the
    difference vectors, so a unimodular tetrahedron gives +-1 and four
    coplanar points give 0.  The points are not validated here: callers
    pass points that check_point has accepted, such as PointConfig points.
    """
    x, y, z = p1
    u0, u1, u2 = p2[0] - x, p2[1] - y, p2[2] - z
    v0, v1, v2 = p3[0] - x, p3[1] - y, p3[2] - z
    w0, w1, w2 = p4[0] - x, p4[1] - y, p4[2] - z
    return u0 * (v1 * w2 - v2 * w1) + u1 * (v2 * w0 - v0 * w2) + u2 * (v0 * w1 - v1 * w0)


@lru_cache(maxsize=None)
def _quadruples(n: int) -> Tuple[Tuple[int, int, int, int], ...]:
    """combinations(range(n), 4), built once per point count n."""
    return tuple(combinations(range(n), 4))


@lru_cache(maxsize=None)
def _slots(n: int) -> Dict[Tuple[int, int, int, int], int]:
    """Per ordered quadruple of distinct labels in range(n), its slot in
    the table of quad_volumes: the volumes of _quadruples(n) followed by
    their negatives.  det4 is alternating, so an even order reads its
    sorted quadruple's volume, at that quadruple's place m in
    _quadruples(n), and an odd order its negative, at m + C(n, 4).  The
    one place where a quadruple's parity is worked out; built once per
    point count n."""
    quads = _quadruples(n)
    orders = [(order, len(quads) * (sum(a > b for a, b in combinations(order, 2)) % 2))
              for order in permutations(range(4))]
    return {tuple(quad[t] for t in order): m + odd
            for m, quad in enumerate(quads) for order, odd in orders}


def _relabelings(perms: Sequence[Tuple[int, ...]]) -> List[itemgetter]:
    """Per relabeling perm of n points, new point k being old point
    perm[k], the getter, from the table of quad_volumes of the points, of
    the table of the relabeled points: per quadruple (i, j, k, l) of
    _quadruples(n), the _slots entry of (perm[i], perm[j], perm[k],
    perm[l]).  It reads any table indexed like the volumes, such as their
    signs.  All perms relabel the same number of points."""
    slots, quads = _slots(len(perms[0])), _quadruples(len(perms[0]))
    return [itemgetter(*[slots[perm[i], perm[j], perm[k], perm[l]] for i, j, k, l in quads])
            for perm in perms]


def quad_volumes(points: Sequence[IntVec3]) -> Tuple[int, ...]:
    """det4 of every index quadruple (i, j, k, l), i < j < k < l, of the
    points, in itertools.combinations(range(n), 4) order (_quadruples),
    followed by their negatives: the table that _slots(n) indexes, so
    that det4 of any ordered quadruple of the points is one entry."""
    quads = _quadruples(len(points))
    vols = [det4(points[i], points[j], points[k], points[l]) for i, j, k, l in quads]
    return tuple(vols + [-v for v in vols])


def _xgcd(a: int, b: int) -> Tuple[int, int, int]:
    """(g, x, y) with g = gcd(a, b) >= 0 and x a + y b = g."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return (a, x0, y0) if a >= 0 else (-a, -x0, -y0)


def hermite_normal_form(rows: Sequence[Sequence[int]]) -> Tuple[IntVec3, IntVec3, IntVec3]:
    """Row Hermite normal form of a nonsingular 3x3 integer matrix.

    The unique U @ rows, U in GL_3(Z), that is upper triangular with
    positive pivots and entries above each pivot in [0, pivot); so two
    matrices share it iff one is U @ the other.  Per column, each row
    below the diagonal is cleared against the diagonal row by the
    unimodular 2x2 step of the extended gcd of their entries (Cohen,
    GTM 138, 2.4).  A zero pivot means the matrix is singular: it raises
    DegenerateSource.
    """
    (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = rows
    h = [(a0, a1, a2), (b0, b1, b2), (c0, c1, c2)]
    for col in range(3):
        t = h[col]
        for i in range(col + 1, 3):
            r = h[i]
            v = r[col]
            if v:
                g, x, y = _xgcd(t[col], v)
                u, v = t[col] // g, v // g
                h[i] = (u * r[0] - v * t[0], u * r[1] - v * t[1], u * r[2] - v * t[2])
                t = (x * t[0] + y * r[0], x * t[1] + y * r[1], x * t[2] + y * r[2])
        p = t[col]
        if not p:
            raise DegenerateSource(f"matrix {tuple(map(tuple, rows))} is singular")
        if p < 0:
            t, p = (-t[0], -t[1], -t[2]), -p
        h[col] = t
        for i in range(col):
            r = h[i]
            q = r[col] // p
            h[i] = (r[0] - q * t[0], r[1] - q * t[1], r[2] - q * t[2])
    return tuple(h)


def edge_form(points: Sequence[Sequence[int]]) -> Tuple[IntVec3, IntVec3, IntVec3]:
    """Row Hermite normal form of the edge matrix (columns p_i - p_0) of
    four points.

    An integer affine map of determinant +-1 multiplies that matrix on the
    left by its GL_3(Z) linear part, so two ordered point tuples have the
    same form iff such a map sends the one onto the other, point by point.
    """
    p0 = points[0]
    return hermite_normal_form(tuple(zip(*(sub(p, p0) for p in points[1:]))))


def _mat_vec(m, v):
    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = m
    x, y, z = v
    return (m00 * x + m01 * y + m02 * z, m10 * x + m11 * y + m12 * z,
            m20 * x + m21 * y + m22 * z)


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
        return det3(*self.matrix)

    def apply(self, p: Sequence[int]) -> IntVec3:
        return add(_mat_vec(self.matrix, p), self.translation)


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
    det_s = det3(*S)
    if det_s == 0:
        raise DegenerateSource("source points are coplanar")
    D = tuple(zip(*(sub(dst[i], dst[0]) for i in (1, 2, 3))))
    if abs(det3(*D)) != abs(det_s):
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
