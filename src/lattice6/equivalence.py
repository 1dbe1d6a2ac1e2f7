"""Unimodular (Z-) equivalence of lattice point configurations.

Two configurations are equivalent when an integer affine map with
determinant +-1 sends one point set onto the other.  The search works up
to relabeling: such a map is fixed by the images of one independent
quadruple, so each injective image of it is solved once, in integers,
and the map is checked on all points.

For 6-point configurations canonical_key is a complete invariant (equal
keys iff equivalent): the minimal volume vector over relabelings, and the
minimal Hermite normal form of the point differences over the relabelings
that reach it (Grinis-Kasprzyk, arXiv:1301.6641; PALP, math/0204356).
Entry 0 of a relabeled vector is +-vv[q] for the image q of labels 0-3,
and the sign is free, so the minimal vector starts with -max|vv|.  Only
the relabelings sending a quadruple of maximal |volume| onto labels 0-3
can reach it: 48 per such quadruple, each with one vector of the right
sign.  The worst case, all 15 |volumes| tied, builds 720 vectors; the
full search built 1,440.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from operator import itemgetter
from typing import Callable, Dict, Optional, Sequence, Tuple

from .exactlinalg import AffineMap, det4, edge_form, unimodular_map
from .invariants import QUADS6, WrongSize, volume_vector6
from .polytope import PointConfig, independent_quadruple

_QUAD_INDEX = {q: i for i, q in enumerate(QUADS6)}


@lru_cache(maxsize=None)
def _relabel_table() -> Dict[Tuple[int, ...], Callable]:
    """Per permutation of range(6), a getter of the relabeled volume vector.

    Entry q of the relabeled vector is sign * vv[index], with index the
    position of the sorted image quadruple and sign the parity of the sort.
    The getter reads it off vv + (-vv), at index or index + 15, looked up
    per ordered image quadruple.  Built on first use: 720 x 15 entries.
    """
    pick = {
        img: _QUAD_INDEX[tuple(sorted(img))]
        + 15 * (sum(x > y for x, y in itertools.combinations(img, 2)) % 2)
        for img in itertools.permutations(range(6), 4)
    }
    images = [itemgetter(*quad) for quad in QUADS6]
    return {
        perm: itemgetter(*[pick[image(perm)] for image in images])
        for perm in itertools.permutations(range(6))
    }


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


def canonical_key(config: PointConfig) -> Tuple[Tuple[int, ...], Tuple[Tuple[int, ...], ...]]:
    """Complete invariant (best, form) of a 6-point configuration.

    best is the lexicographically minimal volume vector over relabelings
    and sign; form is the minimal row Hermite normal form of the 3x5 matrix
    of differences p_i - p_0 over the relabelings that reach best.  A
    unimodular map multiplies that matrix on the left by a GL_3(Z) element,
    which the normal form undoes.  Entry 0 of a relabeled vector is
    +-vv[q], q the image of labels 0-3, so best[0] = -max|vv| != 0: only
    the 48 relabelings per quadruple q with |vv[q]| = max|vv| can reach
    best, and points 0-3 of each of them are independent.
    """
    if len(config) != 6:
        raise WrongSize(f"need 6 points, got {len(config)}")
    vv = volume_vector6(config)
    top = max(map(abs, vv))
    neg = tuple(-w for w in vv)
    signed = (vv + neg, neg + vv)
    table = _relabel_table()
    vectors = {}
    for quad, w in zip(QUADS6, vv):
        if abs(w) != top:
            continue
        rest = [e for e in range(6) if e not in quad]
        for head in itertools.permutations(quad):
            for tail in itertools.permutations(rest):
                perm = head + tail
                v = table[perm](signed[0])
                vectors[perm] = v if v[0] < 0 else table[perm](signed[1])
    best = min(vectors.values())
    pts = config.points
    form = min(
        edge_form([pts[j] for j in perm])
        for perm, v in vectors.items() if v == best
    )
    return best, form
