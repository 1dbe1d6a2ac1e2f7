"""Fraction-elimination reference implementations, kept as test oracles.

The library computes circuits, vertices and equivalence witnesses in
integers only.  These are the straightforward rational versions they
replaced: Gaussian elimination over Fraction for affine dependences and
barycentric coordinates, the affine map fixed by four point pairs with
Fraction entries whatever its determinant (the reference for
exactlinalg.unimodular_map), and a witness search that tries every
permutation in lexicographic order.  Slow, but simple enough to trust.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import List, Optional, Sequence, Tuple

from lattice6.exactlinalg import (
    AffineMap,
    DegenerateSource,
    IntVec3,
    _adjugate,
    check_point,
    det3,
    det4,
    sub,
)
from lattice6.invariants import SignedCircuit
from lattice6.polytope import NotFullDimensional, PointConfig


def _affine_kernel(points: Sequence[IntVec3]) -> List[List[Fraction]]:
    """Basis of affine dependences among the given points (RREF kernel)."""
    m = len(points)
    rows = [[Fraction(1)] * m]
    for c in range(3):
        rows.append([Fraction(p[c]) for p in points])
    pivots = []
    r = 0
    for c in range(m):
        pr = next((i for i in range(r, 4) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        piv = rows[r][c]
        rows[r] = [v / piv for v in rows[r]]
        for i in range(4):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    free = [c for c in range(m) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * m
        vec[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            vec[pc] = -rows[i][fc]
        basis.append(vec)
    return basis


def _primitive_signed(vec: Sequence[Fraction]) -> List[int]:
    mult = lcm(*(f.denominator for f in vec))
    ints = [int(f * mult) for f in vec]
    g = gcd(*ints)
    ints = [v // g for v in ints]
    lead = next(v for v in ints if v != 0)
    if lead < 0:
        ints = [-v for v in ints]
    return ints


def circuits(config: PointConfig) -> Tuple[SignedCircuit, ...]:
    """Circuits from the one-dimensional kernels of all 3-, 4- and 5-subsets."""
    pts = config.points
    found = {}
    for m in (3, 4, 5):
        for idxs in itertools.combinations(range(len(pts)), m):
            basis = _affine_kernel([pts[i] for i in idxs])
            if len(basis) != 1:
                continue
            vec = basis[0]
            if any(v == 0 for v in vec):
                continue  # dependence not supported on the whole subset
            ints = _primitive_signed(vec)
            pos = tuple(idxs[i] for i, v in enumerate(ints) if v > 0)
            neg = tuple(idxs[i] for i, v in enumerate(ints) if v < 0)
            c = SignedCircuit(pos, neg)
            found[c.support] = c
    return tuple(sorted(found.values(), key=lambda c: (c.support, c.key())))


def _solve_barycentric(q, simplex):
    """Affine coefficients of q over an affinely independent simplex, or None."""
    k = len(simplex)
    rows = [[Fraction(p[i]) for p in simplex] + [Fraction(q[i])] for i in range(3)]
    rows.append([Fraction(1)] * k + [Fraction(1)])
    pivot_cols = []
    r = 0
    for c in range(k):
        pr = next((i for i in range(r, 4) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        piv = rows[r][c]
        rows[r] = [v / piv for v in rows[r]]
        for i in range(4):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivot_cols.append(c)
        r += 1
    for i in range(r, 4):
        if rows[i][k] != 0:
            return None  # q not in the affine span
    if r < k:
        return None  # simplex was not affinely independent
    coeffs = [Fraction(0)] * k
    for i, c in enumerate(pivot_cols):
        coeffs[c] = rows[i][k]
    return coeffs


def point_in_hull(q: Sequence[int], points: Sequence[Sequence[int]]) -> bool:
    """Exact membership test q in conv(points), by Caratheodory: q is in
    the hull iff some simplex of <= 4 points holds it with nonnegative
    barycentric coordinates."""
    q = check_point(q)
    pts = [check_point(p) for p in points]
    if q in pts:
        return True
    for k in (2, 3, 4):
        for simplex in itertools.combinations(pts, k):
            coeffs = _solve_barycentric(q, simplex)
            if coeffs is not None and all(c >= 0 for c in coeffs):
                return True
    return False


def vertices(config: PointConfig) -> Tuple[IntVec3, ...]:
    """Points outside the hull of the others, in input order."""
    pts = config.points
    return tuple(p for i, p in enumerate(pts) if not point_in_hull(p, pts[:i] + pts[i + 1:]))


@dataclass(frozen=True)
class RationalAffineMap:
    """Rational affine map x -> matrix @ x + translation, Fraction entries.

    Fractions are kept in lowest terms with positive denominators (the
    fractions module guarantees both).
    """

    matrix: Tuple[Tuple[Fraction, Fraction, Fraction], ...]
    translation: Tuple[Fraction, Fraction, Fraction]

    @property
    def det(self) -> Fraction:
        return det3(*self.matrix)

    def apply(self, p: Sequence[int]) -> Tuple[Fraction, Fraction, Fraction]:
        return tuple(
            sum(self.matrix[i][j] * p[j] for j in range(3)) + self.translation[i]
            for i in range(3)
        )

    def __call__(self, p):
        return self.apply(p)

    def is_integer(self) -> bool:
        entries = [e for row in self.matrix for e in row] + list(self.translation)
        return all(e.denominator == 1 for e in entries)

    def to_integer_map(self) -> AffineMap:
        if not self.is_integer():
            raise ValueError("map has non-integer entries")
        mat = tuple(tuple(int(e) for e in row) for row in self.matrix)
        tr = tuple(int(e) for e in self.translation)
        return AffineMap(mat, tr)


def solve_affine(src: Sequence[Sequence[int]], dst: Sequence[Sequence[int]]) -> RationalAffineMap:
    """Unique rational affine map sending src[i] -> dst[i] for 4 point pairs.

    The source quadruple must be affinely independent; otherwise
    DegenerateSource is raised.  The destination may be anything (the
    solved map can be singular).
    """
    if len(src) != 4 or len(dst) != 4:
        raise ValueError("solve_affine needs exactly 4 source and 4 destination points")
    s = [check_point(p) for p in src]
    d = [check_point(p) for p in dst]
    S = tuple(zip(*(sub(s[i], s[0]) for i in (1, 2, 3))))  # columns s_i - s_0
    det_s = det3(*S)
    if det_s == 0:
        raise DegenerateSource("source points are coplanar")
    D = tuple(zip(*(sub(d[i], d[0]) for i in (1, 2, 3))))
    adj = _adjugate(S)
    # M = D @ S^{-1} = D @ adj(S) / det(S)
    mat = tuple(
        tuple(
            Fraction(sum(D[i][k] * adj[k][j] for k in range(3)), det_s)
            for j in range(3)
        )
        for i in range(3)
    )
    tr = tuple(
        d[0][i] - sum(mat[i][j] * s[0][j] for j in range(3)) for i in range(3)
    )
    return RationalAffineMap(mat, tr)




def unimodular_map(src, dst) -> Optional[AffineMap]:
    """The solved Fraction map when it is integral with determinant +-1."""
    phi = solve_affine(src, dst)
    if phi.det not in (1, -1) or not phi.is_integer():
        return None
    return phi.to_integer_map()


def independent_quadruple(config: PointConfig) -> Tuple[int, int, int, int]:
    """First (lexicographic) affinely independent index quadruple."""
    for quad in itertools.combinations(range(len(config)), 4):
        if det4(*(config[i] for i in quad)) != 0:
            return quad
    raise NotFullDimensional("all quadruples are coplanar")


def equivalence_witness(a: PointConfig, b: PointConfig):
    """First permutation in lexicographic order whose solved map is an
    integral unimodular map of a onto b, with that map; None if none is.
    The map is solved once per image of the independent quadruple and
    reused by the permutations that share it."""
    n = len(a)
    if len(b) != n:
        return None
    quad = independent_quadruple(a)
    src = [a[i] for i in quad]
    maps = {}
    for perm in itertools.permutations(range(n)):
        image = tuple(perm[i] for i in quad)
        if image not in maps:
            maps[image] = unimodular_map(src, [b[j] for j in image])
        m = maps[image]
        if m is not None and all(m.apply(a[i]) == b[perm[i]] for i in range(n)):
            return perm, m
    return None
