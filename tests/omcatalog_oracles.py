"""Reference implementations for the oriented-matroid catalog, kept as test oracles.

The library computes canonical circuit forms with bitmask table lookups
and generates dual line sequences directly.  These are the versions they
replaced: relabel every circuit as index tuples and sort, under each of
the 720 permutations; and filter every product of per-line vector counts
by its total.  Slow, but simple enough to trust.
"""

from __future__ import annotations

import itertools
from typing import Sequence, Tuple

from lattice6.invariants import SignedCircuit


def relabeled(c: SignedCircuit, perm: Sequence[int]) -> SignedCircuit:
    """Apply an element permutation (perm[i] = new label of element i),
    normalized so the smallest element lies on the positive side."""
    pos = tuple(sorted(perm[i] for i in c.positive))
    neg = tuple(sorted(perm[i] for i in c.negative))
    if min(pos + neg) in neg:
        pos, neg = neg, pos
    return SignedCircuit(pos, neg)


def canonical_circuit_form(
    circs: Sequence[SignedCircuit],
) -> Tuple[Tuple, Tuple[int, ...]]:
    """Lex-minimal relabeled circuit list and the first permutation achieving it."""
    best = None
    best_perm = None
    for perm in itertools.permutations(range(6)):
        key = tuple(sorted(relabeled(c, perm).key() for c in circs))
        if best is None or key < best:
            best = key
            best_perm = perm
    return best, best_perm


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
