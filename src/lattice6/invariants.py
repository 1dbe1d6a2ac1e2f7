"""Z-equivalence invariants of lattice point configurations.

Volume vectors (ordered tuples of normalized 4x4 determinants), circuit
sign patterns, coplanarity classes, lattice width with an explicit witness
functional, and the distinct-pair-sums test of a list of lattice points.
All exact.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence, Tuple

from .exactlinalg import IntVec3, _adjugate, _mat_vec, dot, gcd_all, sub
from .polytope import NotFullDimensional, PointConfig


class WrongSize(ValueError):
    """Raised when an invariant needs a configuration of a specific size."""


def volume_vector6(config: PointConfig) -> Tuple[int, ...]:
    """15-entry volume vector (w_1234, w_1235, ..., w_3456), lex order."""
    if len(config) != 6:
        raise WrongSize(f"need 6 points, got {len(config)}")
    return tuple(config.volumes().values())


def volume_vector5(config: PointConfig) -> Tuple[int, ...]:
    """Signed 5-entry volume vector (w_2345, -w_1345, w_1245, -w_1235, w_1234).

    With these signs the entries are the coefficients of the unique (up to
    scale) affine dependence: sum_k v_k p_k = 0 and sum_k v_k = 0.
    """
    if len(config) != 5:
        raise WrongSize(f"need 5 points, got {len(config)}")
    w = tuple(config.volumes().values())  # w_1234, w_1235, ..., w_2345
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


def circuits(config: PointConfig) -> Tuple[SignedCircuit, ...]:
    """All circuits (minimal affine dependences) of the configuration.

    Returned sorted by (support, sign pattern); element labels are 0-based
    point indices.  The configuration must have affine rank 4 (else
    NotFullDimensional).  Then every circuit extends to a 5-subset of
    rank 4, whose only affine dependence is, by Cramer's rule, its vector
    of signed minors (-1)^k det4(subset without its k-th point); the
    circuit is that vector's support and signs.  Cost: the C(n,4) det4
    values of config.volumes() and C(n,5) sign vectors, integers only.
    """
    pts = config.points
    dets = config.volumes()
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


def _shell(s: int) -> Iterator[IntVec3]:
    """Each t in Z^3 with max(0, t) - min(0, t) == s >= 1, once: per (t1, t2),
    t3 fills [min(0, t1, t2), max(0, t1, t2)] when that is s long, else
    takes the two values that stretch it to length s."""
    for t1 in range(-s, s + 1):
        for t2 in range(-s, s + 1):
            lo, hi = min(0, t1, t2), max(0, t1, t2)
            if hi - lo == s:
                for t3 in range(lo, hi + 1):
                    yield t1, t2, t3
            elif hi - lo < s:
                yield t1, t2, lo + s
                yield t1, t2, hi - s


def width(config: PointConfig) -> Tuple[int, IntVec3]:
    """Lattice width and a primitive witness functional.

    With d_k = q_k - q0 on a quadruple of maximal |volume| D, a functional
    f is fixed by its targets t_k = f . d_k, as f = adj(d) t / D.  One of
    range W takes the values (0, t1, t2, t3) within W of each other, so one
    pass over the targets in shells of spread s = 1, 2, ... has met every
    functional of the least range once s passes it.  The witness is the
    least of them, sign-normalized (leading coefficient positive).
    """
    pts = config.points
    vols = config.volumes()
    quad = max(vols, key=lambda q: abs(vols[q]))
    rows = tuple(sub(pts[i], pts[quad[0]]) for i in quad[1:])
    D = vols[quad]
    if D == 0:
        raise NotFullDimensional("width needs a full-dimensional configuration")
    adj = _adjugate(rows)
    best = None
    for s in itertools.count(1):
        if best is not None and s > best[0]:
            break
        for t in _shell(s):
            x, y, z = _mat_vec(adj, t)
            if x % D or y % D or z % D:
                continue
            f = _normalize_sign((x // D, y // D, z // D))
            candidate = (functional_range(f, pts), f)
            if best is None or candidate < best:
                best = candidate
    if gcd_all(best[1]) != 1:
        raise RuntimeError(f"width witness {best[1]} is not primitive")
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
