"""Z-equivalence invariants of lattice point configurations.

Volume vectors (ordered tuples of normalized 4x4 determinants), circuit
sign patterns, coplanarity classes, lattice width with an explicit witness
functional, and the distinct-pair-sums property.  All exact.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence, Tuple

from .exactlinalg import IntVec3, _adjugate, det3, det4, dot, gcd_all, sub
from .polytope import NotFullDimensional, PointConfig, lattice_points


class WrongSize(ValueError):
    """Raised when an invariant needs a configuration of a specific size."""


#: Index quadruples of the 15-entry volume vector of a 6-point
#: configuration, in lexicographic order.
QUADS6: Tuple[Tuple[int, int, int, int], ...] = tuple(
    itertools.combinations(range(6), 4)
)


def volume_vector6(config: PointConfig) -> Tuple[int, ...]:
    """15-entry volume vector (w_1234, w_1235, ..., w_3456), lex order."""
    if len(config) != 6:
        raise WrongSize(f"need 6 points, got {len(config)}")
    p = config.points
    return tuple(det4(p[i], p[j], p[k], p[l]) for i, j, k, l in QUADS6)


def volume_vector5(config: PointConfig) -> Tuple[int, ...]:
    """Signed 5-entry volume vector (w_2345, -w_1345, w_1245, -w_1235, w_1234).

    With these signs the entries are the coefficients of the unique (up to
    scale) affine dependence: sum_k v_k p_k = 0 and sum_k v_k = 0.
    """
    if len(config) != 5:
        raise WrongSize(f"need 5 points, got {len(config)}")
    p = config.points
    out = []
    for k in range(5):
        rest = [p[i] for i in range(5) if i != k]
        out.append((-1) ** k * det4(*rest))
    return tuple(out)


def signature5(config: PointConfig) -> Tuple[int, int]:
    """Sign counts (i, j), i >= j, of the 5-point volume vector."""
    v = volume_vector5(config)
    pos = sum(1 for x in v if x > 0)
    neg = sum(1 for x in v if x < 0)
    return (max(pos, neg), min(pos, neg))


# ---------------------------------------------------------------------------
# circuits


@dataclass(frozen=True)
class SignedCircuit:
    """Minimal affine dependence: positive/negative index sets (0-based).

    Normalized so the smallest index in the support carries a positive
    coefficient.
    """

    positive: Tuple[int, ...]
    negative: Tuple[int, ...]

    @property
    def support(self) -> Tuple[int, ...]:
        return tuple(sorted(self.positive + self.negative))

    @property
    def signature(self) -> Tuple[int, int]:
        a, b = len(self.positive), len(self.negative)
        return (max(a, b), min(a, b))

    def key(self) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        return (self.positive, self.negative)


def circuits(config: PointConfig) -> Tuple[SignedCircuit, ...]:
    """All circuits (minimal affine dependences) of the configuration.

    Returned sorted by (support, sign pattern); element labels are 0-based
    point indices.  The configuration must have affine rank 4 (else
    NotFullDimensional).  Then every circuit extends to a 5-subset of
    rank 4, whose only affine dependence is, by Cramer's rule, its vector
    of signed minors (-1)^k det4(subset without its k-th point); the
    circuit is that vector's support and signs.  Cost: C(n,4) det4 values
    and C(n,5) sign vectors, integers only.
    """
    pts = config.points
    dets = {
        quad: det4(*(pts[i] for i in quad))
        for quad in itertools.combinations(range(len(pts)), 4)
    }
    if not any(dets.values()):
        raise NotFullDimensional("circuits need a full-dimensional configuration")
    found = {}
    for five in itertools.combinations(range(len(pts)), 5):
        vec = [dets[five[:k] + five[k + 1:]] for k in range(5)]
        vec[1], vec[3] = -vec[1], -vec[3]
        support = tuple(i for i, v in zip(five, vec) if v)
        if not support or support in found:
            continue
        lead = next(v for v in vec if v)
        pos = tuple(i for i, v in zip(five, vec) if v * lead > 0)
        neg = tuple(i for i, v in zip(five, vec) if v * lead < 0)
        found[support] = SignedCircuit(pos, neg)
    return tuple(found[s] for s in sorted(found))


# ---------------------------------------------------------------------------
# coplanarity classes

FIVE_COPLANAR = "five-coplanar"
C31 = "(3,1)"
C22 = "(2,2)"
C21 = "(2,1)"
NO_COPLANARITY = "none"


def coplanarity_class(config: PointConfig) -> str:
    """Coarsest coplanarity present, with precedence
    five-coplanar > (3,1) > (2,2) > (2,1) > none.

    Six coplanar points count as five-coplanar."""
    if len(config) != 6:
        raise WrongSize(f"need 6 points, got {len(config)}")
    try:
        circs = circuits(config)
    except NotFullDimensional:
        return FIVE_COPLANAR
    return coplanarity_from_circuits(circs)


def coplanarity_from_circuits(circs: Sequence[SignedCircuit], n: int = 6) -> str:
    """Coplanarity class of a 6-element configuration from its circuits.

    An element missing from every circuit means the other five span only a
    plane (its dual vector vanishes), i.e. five coplanar points.
    """
    covered = set()
    for c in circs:
        covered.update(c.support)
    if len(covered) < n:
        return FIVE_COPLANAR
    sigs = {c.signature for c in circs}
    if (3, 1) in sigs:
        return C31
    if (2, 2) in sigs:
        return C22
    if (2, 1) in sigs:
        return C21
    return NO_COPLANARITY


# ---------------------------------------------------------------------------
# width


def _functional_range(f: IntVec3, pts: Sequence[IntVec3]) -> int:
    values = [dot(f, p) for p in pts]
    return max(values) - min(values)


def _normalize_sign(f: IntVec3) -> IntVec3:
    lead = next((v for v in f if v != 0), 0)
    return f if lead >= 0 else (-f[0], -f[1], -f[2])


def width(config: PointConfig) -> Tuple[int, IntVec3]:
    """Lattice width and a primitive witness functional.

    Search: seed an upper bound U with the best coordinate functional,
    pick an affinely independent quadruple of minimal |volume| with
    difference vectors d1,d2,d3, then for W = 1..U enumerate target values
    (t1,t2,t3) in [-W,W]^3, solve f . d_k = t_k for integral f, and return
    the first level admitting a witness.  A functional of range W takes
    the values (0, t1, t2, t3) on the quadruple, relative to q0, inside a
    window of length W, so targets spread wider than W are skipped.  Ties
    among witnesses are broken by normalizing the leading coefficient
    positive and taking the lexicographically smallest.
    """
    pts = config.points
    best = None
    for quad in itertools.combinations(range(len(pts)), 4):
        d = abs(det4(*(pts[i] for i in quad)))
        if d != 0 and (best is None or d < best[0]):
            best = (d, quad)
    if best is None:
        raise NotFullDimensional("width needs a full-dimensional configuration")
    U = min(
        _functional_range(f, pts) for f in ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    )
    q = [pts[i] for i in best[1]]
    d1, d2, d3 = sub(q[1], q[0]), sub(q[2], q[0]), sub(q[3], q[0])
    M = tuple(zip(d1, d2, d3))  # columns d1,d2,d3
    D = det3(d1, d2, d3)
    adjT = tuple(zip(*_adjugate(M)))
    cache = {}

    def solve(t):
        # f with f . d_k = t_k, or None if not integral
        num = tuple(sum(adjT[i][j] * t[j] for j in range(3)) for i in range(3))
        if any(v % D for v in num):
            return None
        return tuple(v // D for v in num)

    for W in range(1, U + 1):
        witnesses = []
        for t in itertools.product(range(-W, W + 1), repeat=3):
            if t == (0, 0, 0) or max(0, *t) - min(0, *t) > W:
                continue
            if t not in cache:
                f = solve(t)
                cache[t] = (f, _functional_range(f, pts) if f else None)
            f, wf = cache[t]
            if f is not None and wf == W:
                witnesses.append(_normalize_sign(f))
        if witnesses:
            witness = min(witnesses)
            if gcd_all(witness) != 1:
                raise RuntimeError(f"width witness {witness} is not primitive")
            return W, witness
    raise RuntimeError("width search failed below its own upper bound")


# ---------------------------------------------------------------------------
# distinct pair sums


def is_dps(config: PointConfig) -> bool:
    """True if all pairwise sums of hull lattice points are distinct.

    Equivalent to containing neither three collinear lattice points nor
    the vertices of a nondegenerate parallelogram.
    """
    return pair_sums_distinct(lattice_points(config))


def pair_sums_distinct(pts: Sequence[IntVec3]) -> bool:
    """True if the sums p + q over all pairs i <= j of pts are distinct."""
    sums = set()
    for i in range(len(pts)):
        for j in range(i, len(pts)):
            s = (
                pts[i][0] + pts[j][0],
                pts[i][1] + pts[j][1],
                pts[i][2] + pts[j][2],
            )
            if s in sums:
                return False
            sums.add(s)
    return True
