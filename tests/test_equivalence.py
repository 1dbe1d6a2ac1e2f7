"""Z-equivalence witnesses and canonical keys."""

import random
from itertools import permutations

from hypothesis import given, settings, strategies as st

import equivalence_oracles
import fraction_oracles
from conftest import apply_map, random_unimodular, shuffled
from lattice6.emptytetra import standard_tetrahedron
from lattice6.equivalence import (
    are_equivalent,
    canonical_key,
    equivalence_witness,
    vv6_relabeled,
)
from lattice6.invariants import QUADS6, volume_vector5, volume_vector6
from lattice6.polytope import PointConfig
from lattice6.size5 import apex_config_31
from lattice6.tablesdata import GCD_EXCEPTIONS


def check_witness(a, b, witness):
    perm, m = witness
    assert m.det in (1, -1)
    assert sorted(perm) == list(range(len(a.points)))
    for i, p in enumerate(a.points):
        assert m.apply(p) == b.points[perm[i]]


def test_reflexive(bundle):
    c = bundle.class_by_id("A.1").config()
    w = equivalence_witness(c, c)
    assert w is not None
    check_witness(c, c, w)


def test_reversal_is_equivalent(bundle):
    c = bundle.class_by_id("A.1").config()
    r = PointConfig(list(c.points)[::-1])
    w = equivalence_witness(c, r)
    assert w is not None
    check_witness(c, r, w)


def test_distinct_classes_are_inequivalent(bundle):
    b3 = bundle.class_by_id("B.3").config()
    b4 = bundle.class_by_id("B.4").config()
    assert equivalence_witness(b3, b4) is None
    assert not are_equivalent(b3, b4)


def test_white_tetrahedra_with_inverse_parameters():
    a = PointConfig(standard_tetrahedron(2, 7))
    b = PointConfig(standard_tetrahedron(4, 7))
    w = equivalence_witness(a, b)
    assert w is not None
    check_witness(a, b, w)


def test_mismatched_sizes_are_inequivalent(bundle):
    c = bundle.class_by_id("A.1").config()
    assert equivalence_witness(c, PointConfig(c.points[:5])) is None
    assert not are_equivalent(c, PointConfig(c.points[:5]))


def test_equal_volume_vectors_do_not_imply_equivalence():
    """Five-point exception: same volume vector, different polytopes."""
    a = apex_config_31(1, 2)
    b = apex_config_31(0, 0)
    assert volume_vector5(a) == volume_vector5(b)
    assert not are_equivalent(a, b)


@given(seed=st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_random_images_are_equivalent(seed):
    from lattice6.tablesdata import load_tables

    rng = random.Random(seed)
    bundle = load_tables()
    c = bundle.class_by_id(rng.choice(["A.2", "B.9", "D.2", "E.1", "F.12", "G.17", "H.5"])).config()
    img = shuffled(rng, apply_map(random_unimodular(rng), c))
    w = equivalence_witness(c, img)
    assert w is not None
    check_witness(c, img, w)


def test_canonical_key_is_invariant(bundle):
    rng = random.Random(11)
    for cid in ("A.1", "C.3", "G.20"):
        c = bundle.class_by_id(cid).config()
        key = canonical_key(c)
        img = shuffled(rng, apply_map(random_unimodular(rng), c))
        assert canonical_key(img) == key


def test_table_keys_are_pairwise_distinct(bundle):
    keys = {canonical_key(row.config()) for row in bundle.class_rows}
    assert len(keys) == 76
    assert len({best for best, _ in keys}) == 76


def test_flagged_keys_confirmed_by_search(bundle):
    """The rows whose volume vector has gcd > 1, where the vector alone is
    not a complete invariant, have distinct keys and are pairwise
    inequivalent by the permutation search."""
    ids = sorted(GCD_EXCEPTIONS)
    for i, a in enumerate(ids):
        ca = bundle.class_by_id(a).config()
        for b in ids[i + 1:]:
            cb = bundle.class_by_id(b).config()
            assert canonical_key(ca) != canonical_key(cb), (a, b)
            assert not are_equivalent(ca, cb), (a, b)


def test_sibling_keys_differ(bundle):
    c2 = canonical_key(bundle.class_by_id("C.2").config())
    c3 = canonical_key(bundle.class_by_id("C.3").config())
    assert c2 != c3


def _halved(x):
    """diag(1/2, 2, 1) x for x in 2Z x Z x Z.  The rational map has
    determinant 1, so x and its image share their volume vector, but they
    are usually not unimodularly equivalent."""
    return PointConfig([(a // 2, 2 * b, c) for a, b, c in x.points])


def _random_even_config(rng):
    """Six full-dimensional points with even first coordinates."""
    while True:
        xs = {(2 * rng.randrange(-2, 3), rng.randrange(-2, 3), rng.randrange(-2, 3))
              for _ in range(6)}
        if len(xs) == 6 and any(volume_vector6(PointConfig(sorted(xs)))):
            return PointConfig(sorted(xs))


def test_key_equality_matches_witness_search(bundle):
    """canonical_key is complete: equal keys exactly when equivalence_witness
    finds a map, on relabeled unimodular images of every row, on the rows
    whose |volume| multisets agree, and on pairs with equal volume vectors."""
    rng = random.Random(5)
    rows = bundle.class_rows
    pairs = [(row.config(), shuffled(rng, apply_map(random_unimodular(rng), row.config())))
             for row in rows]
    pairs += [(pairs[i][0], pairs[i + 1][1]) for i in range(0, len(rows) - 1, 3)]
    pairs += [(bundle.class_by_id(x).config(), bundle.class_by_id(y).config())
              for x, y in (("G.5", "G.12"), ("G.6", "G.9"))]
    example = PointConfig([(-2, -2, 2), (0, 2, -1), (0, 2, 1), (2, 0, 1), (2, 1, -2), (4, -1, 0)])
    halved = [(x, _halved(x)) for x in [example] + [_random_even_config(rng) for _ in range(40)]]
    halved += [(x, shuffled(rng, apply_map(random_unimodular(rng), y))) for x, y in halved[:10]]
    for x, y in halved:
        assert canonical_key(x)[0] == canonical_key(y)[0]
    pairs += halved
    outcomes = set()
    for a, b in pairs:
        equivalent = equivalence_witness(a, b) is not None
        assert (canonical_key(a) == canonical_key(b)) == equivalent, (a.points, b.points)
        outcomes.add(equivalent)
    assert outcomes == {True, False}


def _with_extra_points(rng, config, k):
    pts = list(config.points)
    while len(pts) < len(config) + k:
        p = tuple(rng.randrange(-3, 4) for _ in range(3))
        if p not in pts:
            pts.append(p)
    return PointConfig(pts)


@given(seed=st.integers(0, 10**6), extra=st.sampled_from([0, 1, 2]))
@settings(max_examples=20, deadline=None)
def test_witness_matches_per_permutation_search(seed, extra):
    """Same witness (first valid permutation and its map) as one Fraction
    solve per permutation, on 6-, 7- and 8-point images."""
    from lattice6.tablesdata import load_tables

    rng = random.Random(seed)
    c = _with_extra_points(rng, rng.choice(load_tables().class_rows).config(), extra)
    img = shuffled(rng, apply_map(random_unimodular(rng), c))
    w = equivalence_witness(c, img)
    assert w == fraction_oracles.equivalence_witness(c, img)
    check_witness(c, img, w)


def test_witness_matches_oracle_on_symmetric_and_degenerate_inputs(bundle):
    """Many valid permutations (a cube), an independent quadruple that is
    not 0,1,2,3 (three collinear points first), and inequivalent pairs
    that share the multiset of volumes."""
    rng = random.Random(3)
    cube = PointConfig([(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)])
    collinear = PointConfig([(0, 0, 0), (1, 0, 0), (2, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 2)])
    pairs = [(cube, shuffled(rng, apply_map(random_unimodular(rng), cube))),
             (collinear, shuffled(rng, apply_map(random_unimodular(rng), collinear)))]
    pairs += [(bundle.class_by_id(x).config(), bundle.class_by_id(y).config())
              for x, y in (("G.5", "G.12"), ("G.6", "G.9"))]
    for a, b in pairs:
        assert equivalence_witness(a, b) == fraction_oracles.equivalence_witness(a, b)


def test_vv6_relabeled_on_distinct_entries():
    """Every entry is told apart by its absolute value, so a wrong index or
    sign in any of the 720 x 15 table entries shows."""
    c = PointConfig([(-2, 2, -1), (0, 0, -2), (1, 1, -3), (0, -1, 0), (0, 1, 0), (3, 0, 0)])
    vv = volume_vector6(c)
    assert 0 not in vv and len({abs(w) for w in vv}) == 15
    for perm in permutations(range(6)):
        img = PointConfig([c.points[i] for i in perm])
        assert vv6_relabeled(vv, perm) == volume_vector6(img), perm


def _spanning_sets(rng, count):
    """Random 6-point sets in [-2,2]^3 that span 3-space."""
    while count:
        pts = sorted({tuple(rng.randrange(-2, 3) for _ in range(3)) for _ in range(6)})
        if len(pts) == 6 and any(volume_vector6(PointConfig(pts))):
            count -= 1
            yield PointConfig(pts)


#: Two quadruples reach max|vv| = 48, and only the second one's
#: relabelings reach the minimal vector.
SECOND_QUAD_WINS = PointConfig(
    [(-2, -2, -2), (-2, -2, 0), (-1, -2, 2), (-1, 1, -1), (2, -2, -2), (2, 1, -2)]
)

#: Six to twelve of the 15 |volumes| tie at the maximum: the octahedron
#: (12), sets from [-1,1]^3 with 12, 9, 8 and 6, and a relabeled
#: unimodular image of the octahedron.
HIGH_TIE = [
    PointConfig([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]),
    PointConfig([(-1, -1, 0), (-1, -1, 1), (-1, 0, 0), (-1, 0, 1), (1, 0, 1), (1, 1, 1)]),
    PointConfig([(-1, -1, 0), (-1, 0, -1), (0, -1, 0), (0, -1, 1), (0, 1, -1), (0, 1, 0)]),
    PointConfig([(-1, 0, -1), (-1, 0, 1), (-1, 1, 0), (0, 0, 1), (1, 0, -1), (1, 1, 0)]),
    PointConfig([(0, 0, -1), (0, 0, 1), (0, 1, -1), (1, -1, 1), (1, 1, -1), (1, 1, 1)]),
    PointConfig([(1, 1, 2), (1, -1, 2), (-1, -1, 1), (3, 1, 3), (0, 0, 1), (2, 0, 3)]),
]


def _first_quad_minimum(config):
    """Least relabeled vector over the relabelings that send the first
    quadruple of maximal |volume| to labels 0-3."""
    vv = volume_vector6(config)
    top = max(map(abs, vv))
    quad = next(q for q, w in zip(QUADS6, vv) if abs(w) == top)
    rest = tuple(e for e in range(6) if e not in quad)
    return min(
        min(v, tuple(-w for w in v))
        for head in permutations(quad)
        for tail in permutations(rest)
        for v in [vv6_relabeled(vv, head + tail)]
    )


def test_canonical_key_matches_full_search(bundle):
    """The pruned search returns the 720-relabeling oracle's key on the rows,
    relabeled unimodular images of them, random spanning sets, inputs with
    many tied |volumes| and one whose minimum needs a later tied quadruple."""
    rng = random.Random(13)
    rows = [row.config() for row in bundle.class_rows]
    inputs = rows + [shuffled(rng, apply_map(random_unimodular(rng), c)) for c in rows]
    inputs += list(_spanning_sets(rng, 120)) + HIGH_TIE + [SECOND_QUAD_WINS]
    for c in HIGH_TIE:
        vv = volume_vector6(c)
        assert sum(abs(w) == max(map(abs, vv)) for w in vv) >= 6, c.points
    assert _first_quad_minimum(SECOND_QUAD_WINS) > canonical_key(SECOND_QUAD_WINS)[0]
    for c in inputs:
        assert canonical_key(c) == equivalence_oracles.canonical_key(c), c.points
