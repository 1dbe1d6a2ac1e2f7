"""Reference implementations for the oriented-matroid catalog, kept as test oracles.

The library computes canonical circuit forms with bitmask table lookups
and generates dual line sequences directly.  These are the versions they
replaced: relabel every circuit as index tuples and sort, under each of
the 720 permutations; compute one chirotope per relabeling, from det4
directly, for the orbit that classify6's cell test of the embedding
searches narrows to the points' roles;
filter every product of per-line vector counts by its total; and sign a
dual's circuits by 2x2 determinants against one direction per line.  A
record's vertex, interior, coplanarity and dps statistics are read off
its circuits here, through all cocircuits among the 3^6 sign vectors
orthogonal to every circuit; the library keeps no statistics, and the
tests compare these with the bundled grid of cells.  match_om gives the
catalog record of one configuration: the library reads a table row's
oriented matroid off its label, and the tests check the labels with it.
Slow, but simple enough to trust.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Dict, Optional, Sequence, Tuple

from lattice6.invariants import SignedCircuit, circuits, coplanarity_from_circuits
from lattice6.exactlinalg import det4
from lattice6.omcatalog import OMRecord, enumerate_oms, match_circuits
from lattice6.polytope import PointConfig


def match_om(config: PointConfig) -> OMRecord:
    """Catalog record of a 6-point configuration, from its circuits."""
    return match_circuits(circuits(config))


def relabeled(c: SignedCircuit, perm: Sequence[int]) -> SignedCircuit:
    """Apply an element permutation (perm[i] = new label of element i),
    normalized so the smallest element lies on the positive side."""
    pos = tuple(sorted(perm[i] for i in c.positive))
    neg = tuple(sorted(perm[i] for i in c.negative))
    if min(pos + neg) in neg:
        pos, neg = neg, pos
    return SignedCircuit(pos, neg)


def canonical_circuit_form(circs: Sequence[SignedCircuit]) -> Tuple:
    """Lex-minimal relabeled circuit list over all 720 permutations."""
    return min(tuple(sorted(relabeled(c, perm).key() for c in circs))
               for perm in itertools.permutations(range(6)))


def chirotope_orbit(points):
    """The chirotopes of all 720 relabelings of six points with both
    global signs, one chirotope computed per relabeling, each from the
    det4 signs of its 15 quadruples."""
    orbit = set()
    for relabeled in itertools.permutations(points):
        dets = [det4(*quad) for quad in itertools.combinations(relabeled, 4)]
        chi = tuple((d > 0) - (d < 0) for d in dets)
        orbit.add(chi)
        orbit.add(tuple(-s for s in chi))
    return frozenset(orbit)


def iter_duals():
    """(line sequence, loops) pairs by filtering the full product."""
    for loops in (0, 1, 2):
        cap = 3 - loops
        total = 6 - loops
        per_line = [
            (a, s - a) for s in range(1, cap + 1) for a in range(s + 1)
        ]
        for n_lines in range(2, 7):
            for combo in itertools.product(per_line, repeat=n_lines):
                if sum(a + b for a, b in combo) == total:
                    yield combo, loops


# strictly increasing angles in [0, 135°]; only the order matters
DIRS = ((1, 0), (3, 1), (1, 1), (1, 3), (0, 1), (-1, 1))


def _det2(u, v) -> int:
    return u[0] * v[1] - u[1] * v[0]


def dual_circuits(lines) -> Optional[Tuple[SignedCircuit, ...]]:
    """Primal circuits of the configuration described by a dual's line
    sequence, or None if the dual is not totally cyclic: line k gets
    direction DIRS[k], and an element's side of line k is the sign of the
    determinant of that direction and its own vector.  Origin vectors
    come after the line vectors and lie in no circuit."""
    vectors = []  # (line index, ray sign) per element
    for k, (a, b) in enumerate(lines):
        vectors.extend([(k, 1)] * a)
        vectors.extend([(k, -1)] * b)
    out = []
    for k in range(len(lines)):
        d_k = DIRS[k]
        pos, neg = [], []
        for e, (j, sign) in enumerate(vectors):
            if j == k:
                continue
            side = sign * _det2(d_k, DIRS[j])
            (pos if side > 0 else neg).append(e)
        if not pos or not neg:
            return None  # a closed halfplane contains every vector
        if min(pos + neg) in neg:
            pos, neg = neg, pos
        out.append(SignedCircuit(tuple(pos), tuple(neg)))
    return tuple(sorted(out, key=lambda c: (c.support, c.key())))


def _orthogonal(x, c: SignedCircuit) -> bool:
    prods = [x[e] for e in c.positive] + [-x[e] for e in c.negative]
    has_pos = any(p > 0 for p in prods)
    has_neg = any(p < 0 for p in prods)
    return has_pos == has_neg


def cocircuits_from_circuits(circs: Sequence[SignedCircuit]) -> Tuple[Tuple[int, ...], ...]:
    """All cocircuits as sign vectors in {-1,0,1}^6.

    Covectors are exactly the sign vectors orthogonal to every circuit;
    cocircuits are the nonzero covectors of minimal support.  Both signs
    of each cocircuit are returned.
    """
    covectors = [
        x
        for x in itertools.product((-1, 0, 1), repeat=6)
        if any(x) and all(_orthogonal(x, c) for c in circs)
    ]
    supports = {
        x: frozenset(e for e in range(6) if x[e]) for x in covectors
    }
    out = []
    for x, sup in supports.items():
        if not any(s < sup for s in supports.values()):
            out.append(x)
    return tuple(sorted(out))


def om_statistics(circs: Sequence[SignedCircuit]) -> Dict[str, object]:
    """Vertex count, interior count, coplanarity class, dps — from circuits.

    An element fails to be a vertex iff some circuit puts it alone on one
    side (it is a convex combination of the rest); it is interior iff it
    is nonzero in every nonnegative cocircuit (it lies on no facet
    hyperplane).
    """
    nonvertex = set()
    for c in circs:
        if len(c.positive) == 1:
            nonvertex.add(c.positive[0])
        if len(c.negative) == 1:
            nonvertex.add(c.negative[0])
    nonneg = [
        x
        for x in cocircuits_from_circuits(circs)
        if all(v >= 0 for v in x)
    ]
    interior = [
        e for e in range(6) if all(x[e] for x in nonneg)
    ]
    sigs = {c.signature for c in circs}
    return {
        "nvertices": 6 - len(nonvertex),
        "ninterior": len(interior),
        "coplanarity": coplanarity_from_circuits(circs),
        "dps": not ({(2, 1), (2, 2)} & sigs),
    }


@lru_cache(maxsize=1)
def record_statistics() -> Dict[str, Dict[str, object]]:
    """om_statistics of every catalog record, by key, computed once."""
    return {rec.key: om_statistics(rec.circuits) for rec in enumerate_oms()}
