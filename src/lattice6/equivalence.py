"""Unimodular (Z-) equivalence of lattice point configurations.

Two configurations are equivalent when an integer affine map with
determinant +-1 sends one point set onto the other.  The search works up
to relabeling: such a map is fixed by the images of one independent
quadruple, so each injective image of it is solved once, in integers,
and the map is checked on all points.

For 6-point configurations with unimodular volume vector (gcd 1) the
volume vector determines the class outright, which gives a fast canonical
key; keys with gcd > 1 are flagged so callers confirm with
are_equivalent.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from operator import itemgetter
from typing import Callable, Dict, NamedTuple, Optional, Sequence, Tuple

from .exactlinalg import AffineMap, det4, gcd_all, unimodular_map
from .invariants import QUADS6, WrongSize, volume_vector6
from .polytope import PointConfig, independent_quadruple

_QUAD_INDEX = {q: i for i, q in enumerate(QUADS6)}


@lru_cache(maxsize=None)
def _relabel_table() -> Dict[Tuple[int, ...], Callable]:
    """Per permutation of range(6), a getter of the relabeled volume vector.

    Entry q of the relabeled vector is sign * vv[index], with index the
    position of the sorted image quadruple and sign the parity of the sort.
    The getter reads it off vv + (-vv), at index or index + 15.  Built on
    first use: 720 x 15 entries.
    """
    table = {}
    for perm in itertools.permutations(range(6)):
        picks = []
        for quad in QUADS6:
            img = [perm[i] for i in quad]
            odd = sum(x > y for x, y in itertools.combinations(img, 2)) % 2
            picks.append(_QUAD_INDEX[tuple(sorted(img))] + 15 * odd)
        table[perm] = itemgetter(*picks)
    return table


def vv6_relabeled(vv: Sequence[int], perm: Sequence[int]) -> Tuple[int, ...]:
    """Volume vector of the relabeled configuration i -> perm[i].

    Each entry is looked up from the original vector with the sign of the
    permutation that sorts the image quadruple.
    """
    vv = tuple(vv)
    return _relabel_table()[tuple(perm)](vv + tuple(-w for w in vv))


def _abs_multiset(config: PointConfig) -> Tuple[int, ...]:
    return tuple(
        sorted(abs(det4(*q)) for q in itertools.combinations(config.points, 4))
    )


def equivalence_witness(
    a: PointConfig, b: PointConfig
) -> Optional[Tuple[Tuple[int, ...], AffineMap]]:
    """Permutation and integer unimodular map with map(a[i]) = b[perm[i]].

    Returns None when the configurations are not equivalent.  The witness
    is the lexicographically first valid permutation; determinant -1 maps
    count as equivalences.  A map is fixed by the images of the
    independent quadruple of a, so one integer solve per injective image
    (n!/(n-4)!, 1680 for n = 8) decides every permutation sharing it.
    """
    n = len(a)
    if len(b) != n:
        return None
    if _abs_multiset(a) != _abs_multiset(b):
        return None
    quad = independent_quadruple(a)
    src = [a[i] for i in quad]
    where = {p: j for j, p in enumerate(b.points)}
    # independent_quadruple is the greedy (lexicographically first) basis:
    # a point it skips lies in the affine span of the quad points before
    # it.  So a map's permutation prefix follows from its image prefix, and
    # the first valid image in lexicographic order gives the first valid
    # permutation.
    for img in itertools.permutations(range(n), 4):
        m = unimodular_map(src, [b[j] for j in img])
        if m is None:
            continue
        perm = tuple(where.get(m.apply(p)) for p in a.points)
        if None not in perm:
            return perm, m
    return None


def are_equivalent(a: PointConfig, b: PointConfig) -> bool:
    """True when an integer affine map of determinant +-1 sends a onto b."""
    return equivalence_witness(a, b) is not None


class CanonicalKey(NamedTuple):
    vector: Tuple[int, ...]
    needs_confirmation: bool

    def as_string(self) -> str:
        tag = "?" if self.needs_confirmation else ""
        return ",".join(str(w) for w in self.vector) + tag


def canonical_key(config: PointConfig) -> CanonicalKey:
    """Lexicographically minimal volume vector over relabelings and sign.

    Equal keys with needs_confirmation False certify equivalence; keys
    with gcd > 1 only certify the vector and callers must confirm with
    are_equivalent.
    """
    if len(config) != 6:
        raise WrongSize(f"need 6 points, got {len(config)}")
    vv = volume_vector6(config)
    neg = tuple(-w for w in vv)
    signed = (vv + neg, neg + vv)
    best = min(get(ext) for get in _relabel_table().values() for ext in signed)
    return CanonicalKey(best, gcd_all(best) != 1)
