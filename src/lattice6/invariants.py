"""Z-equivalence invariants of lattice point configurations.

Volume vectors (ordered tuples of normalized 4x4 determinants), circuit
sign patterns, coplanarity classes, lattice width with an explicit witness
functional, and the distinct-pair-sums test of a list of lattice points.
All exact.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import gcd
from operator import itemgetter
from typing import Iterator, Sequence, Tuple

from .exactlinalg import (IntVec3, VerificationFailed, _adjugate, _mat_vec, _quadruples, _slots,
                          dot, hermite_normal_form, sub)
from .polytope import NotFullDimensional, PointConfig


class WrongSize(ValueError):
    """Raised when an invariant needs a configuration of a specific size."""


def volume_vector6(config: PointConfig) -> Tuple[int, ...]:
    """15-entry volume vector (w_1234, w_1235, ..., w_3456), lex order."""
    if len(config) != 6:
        raise WrongSize(f"need 6 points, got {len(config)}")
    return config.volumes()[:15]


def volume_vector5(config: PointConfig) -> Tuple[int, ...]:
    """Signed 5-entry volume vector (w_2345, -w_1345, w_1245, -w_1235, w_1234).

    With these signs the entries are the coefficients of the unique (up to
    scale) affine dependence: sum_k v_k p_k = 0 and sum_k v_k = 0.
    """
    if len(config) != 5:
        raise WrongSize(f"need 5 points, got {len(config)}")
    w = config.volumes()[:5]  # w_1234, w_1235, ..., w_2345
    return (w[4], -w[3], w[2], -w[1], w[0])


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


@lru_cache(maxsize=None)
def _five_minors(n: int) -> Tuple[Tuple[Tuple[int, ...], itemgetter], ...]:
    """Per 5-subset of range(n), in combinations order: the subset and the
    getter of its signed minors (-1)^k det4(subset without its k-th
    point) from the volume table.  The k-th minor is det4 of the other
    four in cyclic order from the (k+1)-th, a rotation of their sorted
    order by k places, whose sign is (-1)^k; so its slot is that ordered
    quadruple's (_slots).  Built once per point count n."""
    slots = _slots(n)
    return tuple((five, itemgetter(*[slots[five[k + 1:] + five[:k]] for k in range(5)]))
                 for five in itertools.combinations(range(n), 5))


def circuits(config: PointConfig) -> Tuple[SignedCircuit, ...]:
    """All circuits (minimal affine dependences) of the configuration.

    Returned sorted by (support, sign pattern); element labels are 0-based
    point indices.  The configuration must have affine rank 4 (else
    NotFullDimensional).  Then every circuit extends to a 5-subset of
    rank 4, whose only affine dependence is, by Cramer's rule, its vector
    of signed minors (-1)^k det4(subset without its k-th point); the
    circuit is that vector's support and signs.  Cost: the C(n,4) det4
    values of config.volumes(), read through _five_minors, and C(n,5)
    sign vectors, integers only.
    """
    config.top_volume()  # NotFullDimensional unless some volume is nonzero
    vols = config.volumes()
    found = {}
    for five, minors in _five_minors(len(config.points)):
        vec = minors(vols)
        support = tuple(itertools.compress(five, vec))
        if not support or support in found:
            continue
        pos = tuple(i for i, v in zip(five, vec) if v > 0)
        neg = tuple(i for i, v in zip(five, vec) if v < 0)
        if support[0] in neg:  # the least index of the support is positive
            pos, neg = neg, pos
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


def coplanarity_from_circuits(circs: Sequence[SignedCircuit]) -> str:
    """Coplanarity class of a 6-element configuration from its circuits.

    An element missing from every circuit means the other five span only a
    plane (its dual vector vanishes), i.e. five coplanar points.
    """
    covered = set()
    for c in circs:
        covered.update(c.support)
    if len(covered) < 6:
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


def functional_range(f: IntVec3, pts: Sequence[IntVec3]) -> int:
    """max - min of the functional f over the points."""
    values = [dot(f, p) for p in pts]
    return max(values) - min(values)


def _normalize_sign(f: IntVec3) -> IntVec3:
    lead = next((v for v in f if v != 0), 0)
    return f if lead >= 0 else (-f[0], -f[1], -f[2])


def _target_rows(basis, s: int) -> Iterator[Tuple[int, int, int, int, range]]:
    """The nonzero targets t = u1 r1 + u2 r2 + u3 r3 of spread
    max(0, t) - min(0, t) <= s whose first nonzero u is positive, one row
    (t1, t2, min(0, t1, t2), max(0, t1, t2), the t3 values) per visited
    (u1, u2).

    basis is the row Hermite basis r1 = (a, b, e), r2 = (0, c, h),
    r3 = (0, 0, g) of the target lattice, so t1 = u1 a, t2 = u1 b + u2 c
    and t3 = u1 e + u2 h + u3 g.  Each next coordinate must keep the
    spread of (0, t1, ...) within s, which bounds its u to an interval
    taken by exact floor division.  A positive pivot keeps the sign of u's
    first nonzero entry in t, so of t and -t exactly one is visited.
    """
    (a, b, e), (_, c, h), (_, _, g) = basis
    for u1 in range(s // a + 1):
        t1 = u1 * a
        # t2 in [t1 - s, s], and u2 >= 0 when u1 == 0
        for u2 in range(-((s - t1 + u1 * b) // c) if u1 else 0, (s - u1 * b) // c + 1):
            t2 = u1 * b + u2 * c
            lo = t2 if t2 < 0 else 0
            hi = t2 if t2 > t1 else t1
            base = u1 * e + u2 * h
            # t3 in [hi - s, lo + s], and u3 >= 1 when u1 == u2 == 0
            first = -((s - hi + base) // g) if u1 or u2 else 1
            yield t1, t2, lo, hi, range(base + first * g, base + ((lo + s - base) // g) * g + 1, g)


def width(config: PointConfig) -> Tuple[int, IntVec3]:
    """Lattice width and a primitive witness functional.

    With d_k = q_k - q0 on the first quadruple, in _quadruples order, whose
    |volume| |D| is maximal (PointConfig.top_volume), a functional f is
    fixed by its targets t_k = f . d_k, as f = adj(d) t / D, and the
    targets of the integer functionals are the lattice spanned by the
    columns of the edge matrix d (rows d_k): _target_rows walks it in its
    row Hermite basis.  On a point p off the quadruple, f takes
    f . q0 + lambda . t / D, where lambda holds p's barycentric
    numerators: lambda_k is det4 of the quadruple with p in place of q_k,
    read off the volume table through _slots.  So a target's range is read
    without f, and f is built only for a range that ties or beats the
    best so far; the adjugate serves only to build f.  A functional of
    range W has targets of spread at most W, so a pass over the spreads
    up to s meets every functional of range <= s: the passes run at
    s = 1, then at the best range found (doubling s while a pass finds
    none), and stop once the best range is <= s.  The witness is the
    least functional of least range, sign-normalized (leading coefficient
    positive); f and -f normalize alike, so one of them is enough.
    """
    pts = config.points
    vols = config.volumes()
    top = config.top_volume()
    # the first quadruple of |volume| top: both signs are in the table
    m = min(vols.index(top), vols.index(-top))
    D = vols[m]
    quad = a, b, c, d = _quadruples(len(pts))[m]
    rows = tuple(sub(pts[i], pts[a]) for i in quad[1:])
    adj = _adjugate(rows)
    slots = _slots(len(pts))
    lams = [(vols[slots[a, i, c, d]], vols[slots[a, b, i, d]], vols[slots[a, b, c, i]])
            for i in range(len(pts)) if i not in quad]
    basis = hermite_normal_form(tuple(zip(*rows)))
    best, s = None, 1
    while True:
        for t1, t2, lo2, hi2, t3s in _target_rows(basis, s):
            for t3 in t3s:
                lo = t3 if t3 < lo2 else lo2
                hi = t3 if t3 > hi2 else hi2
                for l1, l2, l3 in lams:
                    v = (l1 * t1 + l2 * t2 + l3 * t3) // D
                    if v < lo:
                        lo = v
                    elif v > hi:
                        hi = v
                if best is None or hi - lo <= best[0]:
                    x, y, z = _mat_vec(adj, (t1, t2, t3))
                    candidate = (hi - lo, _normalize_sign((x // D, y // D, z // D)))
                    if best is None or candidate < best:
                        best = candidate
        if best is not None and best[0] <= s:
            break
        s = 2 * s if best is None else best[0]
    if gcd(*best[1]) != 1:
        raise VerificationFailed(f"width witness {best[1]} is not primitive")
    return best


# ---------------------------------------------------------------------------
# distinct pair sums


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
