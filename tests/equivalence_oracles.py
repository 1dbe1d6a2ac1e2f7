"""Reference implementation of the six-point canonical key, kept as a test oracle.

The library builds the relabeled volume vectors only for the relabelings
that send a quadruple of maximal |volume| to labels 0-3.  This is the
version it replaced: build the signed vector of every one of the 720
relabelings, take the minimum, and take the minimal edge form over all
relabelings that reach it.  Slow, but simple enough to trust.
"""

from __future__ import annotations

from typing import Tuple

from lattice6.equivalence import _relabel_table
from lattice6.exactlinalg import edge_form
from lattice6.invariants import volume_vector6
from lattice6.polytope import PointConfig


def canonical_key(config: PointConfig) -> Tuple[Tuple[int, ...], Tuple[Tuple[int, ...], ...]]:
    """(minimal signed volume vector, minimal edge form among its relabelings)."""
    vv = volume_vector6(config)
    neg = tuple(-w for w in vv)
    signed = (vv + neg, neg + vv)
    table = _relabel_table()
    vectors = [get(ext) for get in table.values() for ext in signed]
    best = min(vectors)
    perms = list(table)
    pts = config.points
    form = min(
        edge_form([pts[j] for j in perm])
        for perm in (perms[k // 2] for k, v in enumerate(vectors) if v == best)
    )
    return best, form
