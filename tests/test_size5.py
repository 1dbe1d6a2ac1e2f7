"""The size-5 classification and the (3,1) apex admissibility predicate."""

import random
from collections import Counter
from itertools import product
from math import gcd
from operator import add

import pytest
from hypothesis import given, settings, strategies as st

from conftest import APEX31_BASE, apply_map, random_unimodular, shuffled, sporadic5
from lattice6 import size5
from lattice6.equivalence import _profile
from lattice6.exactlinalg import unimodular_map
from lattice6.invariants import signature5, volume_vector5
from lattice6.polytope import PointConfig, holds_only_its_points, hull_summary, size
from lattice6.size5 import (
    NotSize5,
    UnknownSize5Class,
    admissible_apex_31,
    catalog41,
    classify5,
    rep21,
    rep32,
    size5_class,
)
from equivalence_oracles import canonical_key, key_named_sporadic
from size5_oracles import search_family_params


def _image(rng, config):
    """A relabeled unimodular image, redrawn until it is within the
    coordinate bound."""
    while True:
        try:
            return shuffled(rng, apply_map(random_unimodular(rng), config))
        except ValueError:
            continue


def test_classify5_apex_over_triangle():
    c = PointConfig([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 3, 1)])
    cls = classify5(c)
    assert cls.kind == "32"
    assert cls.params == (2, 3)
    assert canonical_key(cls.representative) == canonical_key(c)


def test_classify5_big_tetrahedron_with_interior_point():
    c = PointConfig([(0, 0, 0), (1, 0, 0), (0, 0, 1), (2, 5, 1), (-3, -5, -2)])
    cls = classify5(c)
    assert cls.kind == "41"
    assert cls.width == 2
    assert canonical_key(cls.representative) == canonical_key(c)


def test_fixed_representatives_self_classify():
    for rep, kind, w in (
        (sporadic5((2, 2), 1), "22", 1),
        (sporadic5((3, 1), 1), "31u", 1),
        (sporadic5((3, 1), 2), "31w2", 2),
    ):
        cls = classify5(rep)
        assert (cls.kind, cls.width) == (kind, w)
        assert canonical_key(cls.representative) == canonical_key(rep)


def test_parametric_representatives_self_classify():
    for p, q in ((0, 1), (1, 2), (1, 3), (2, 5), (3, 7)):
        cls = classify5(rep21(p, q))
        assert cls.kind == "21"
        assert cls.params == (p, q)
    for a, b in ((1, 1), (1, 2), (2, 3), (3, 4)):
        cls = classify5(rep32(a, b))
        assert cls.kind == "32"
        assert cls.params == (a, b)


def test_catalog41_contents():
    cat = catalog41()
    assert len(cat) == 8
    for cls in cat:
        assert cls.kind == "41"
        assert cls.width == 2
        assert size(cls.representative) == 5
        assert hull_summary(cls.representative)[1] == (cls.representative.points[0],)


def test_catalog41_classes_are_distinct():
    cat = catalog41()
    for i, a in enumerate(cat):
        for b in cat[i + 1:]:
            assert canonical_key(a.representative) != canonical_key(b.representative)


def test_rep41_round_trip():
    for k in range(1, 9):
        cls = classify5(catalog41()[k - 1].representative)
        assert cls.kind == "41"
        assert cls.params == (k,)


def test_dependence_is_an_affine_relation():
    """volume_vector5, which size5_class reads as the affine dependence of
    the five points, is one: nonzero, its entries sum to zero and it
    weights the points to the origin."""
    for rep in (sporadic5((2, 2), 1), sporadic5((3, 1), 2), catalog41()[2].representative,
                rep32(2, 3), rep21(2, 5)):
        dep = volume_vector5(rep)
        pts = rep.points
        assert any(dep) and sum(dep) == 0
        assert all(sum(d * p[i] for d, p in zip(dep, pts)) == 0 for i in range(3))


def test_classify5_rejects_wrong_sizes(bundle):
    with pytest.raises(NotSize5):
        classify5(bundle.rows_by_id["A.1"].config())
    with pytest.raises(NotSize5):
        # hull picks up extra points
        classify5(PointConfig(APEX31_BASE + [(0, 0, 3)]))


def test_admissible_apex_31_matches_size_oracle():
    for a in range(-6, 7):
        for b in range(-6, 7):
            cfg = PointConfig(APEX31_BASE + [(a, b, 3)])
            assert admissible_apex_31(a, b) == (size(cfg) == 5), (a, b)


@given(seed=st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_classify5_is_constant_on_equivalence_classes(seed):
    rng = random.Random(seed)
    q = rng.randrange(1, 120)
    p = rng.choice([p for p in range(q // 2 + 1) if q == 1 or gcd(p, q) == 1])
    s = rng.randrange(2, 120)
    a = rng.choice([a for a in range(1, s // 2 + 1) if gcd(a, s - a) == 1])
    base = rng.choice([sporadic5((2, 2), 1), sporadic5((3, 1), 1), sporadic5((3, 1), 2),
                       rng.choice(catalog41()).representative, rep32(a, s - a), rep21(p, q)])
    img = _image(rng, base)
    cls, cls_img = classify5(base), classify5(img)
    assert (cls.kind, cls.params) == (cls_img.kind, cls_img.params)
    assert cls.representative == base


def test_family_read_off_matches_search_oracle():
    """Every (2,1)(p, q) with q <= 60 and (3,2)(a, b) with a + b <= 80, as
    a relabeled unimodular image: the parameters read off the invariants
    are the ones the key search finds."""
    rng = random.Random(5)
    family = [("21", (p, q)) for q in range(1, 61) for p in range(q // 2 + 1)
              if q == 1 or gcd(p, q) == 1]
    family += [("32", (a, s - a)) for s in range(2, 81) for a in range(1, s // 2 + 1)
               if gcd(a, s - a) == 1]
    assert len(family) == 552 + 983
    for kind, params in family:
        img = _image(rng, rep21(*params) if kind == "21" else rep32(*params))
        cls = size5_class(img)
        assert (cls.kind, cls.params) == (kind, params) == (kind, search_family_params(img))


def test_large_family_parameters():
    """The parameters are named without building the representative:
    rep21(300, 89999) is past the bound and fails only when asked for."""
    c21 = PointConfig([(0, 0, 0), (300, 301, 0), (-300, -301, 0), (0, 0, 1), (1, 301, 1)])
    c32 = PointConfig([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (10000, 9999, 1)])
    assert size5_class(c21).label == "21(300, 89999)"
    assert size5_class(c32).label == "32(9999, 10000)"
    with pytest.raises(ValueError, match="exceeds bound"):
        size5_class(c21).representative
    assert canonical_key(size5_class(c32).representative) == canonical_key(c32)
    # an independent check of the (2,1) reading: a map onto rep21's raw points
    m = unimodular_map([c21[i] for i in (0, 1, 3, 4)],
                       [(0, 0, 0), (1, 0, 0), (0, 0, 1), (300, 89999, 1)])
    assert m is not None and m.apply(c21[2]) == (-1, 0, 0)


def test_size5_class_rejects_invariants_of_no_class():
    """Configurations with extra lattice points, past the gates: each
    family's shape check and the sporadic lookup raise."""
    not21 = PointConfig([(0, 0, 0), (0, 1, 0), (0, -1, 0), (1, 0, 0), (0, 0, 2)])
    # entries (-3, 1, 2, 0, 0): not (2q, q, q), though a unimodular quadruple
    not21_shape = PointConfig([(0, 0, 0), (2, 0, 0), (-1, 0, 0), (0, 0, 1), (0, 1, 0)])
    not32 = PointConfig([(0, 0, 0), (2, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)])
    not31 = PointConfig(APEX31_BASE + [(0, 0, 3)])
    for config, sig in ((not21, (2, 1)), (not21_shape, (2, 1)), (not32, (3, 2)),
                        (not31, (3, 1))):
        assert signature5(config) == sig and size(config) > 5
        with pytest.raises(UnknownSize5Class):
            size5_class(config)


def _sporadic_named(config):
    """size5_class of config, or None where it raises UnknownSize5Class."""
    try:
        return size5_class(config)
    except UnknownSize5Class:
        return None


def test_sporadic_naming_matches_the_key_oracle():
    """size5_class names the sporadic classes through a row set of their
    eleven representatives (eleven distinct |volume| profiles), by least
    table and witness map; it agrees with the canonical-key lookup it
    replaced (equivalence_oracles.key_named_sporadic), and raises
    UnknownSize5Class exactly where that lookup misses.  The inputs: the
    eleven rows, 2,200 seeded relabeled unimodular images of them, and
    every full-dimensional unit move of one point of a row whose signature
    is no family's, both those that pass classify5's gates and those
    whose hull holds more lattice points."""
    reps = [rep for _, rep in size5._sporadic().values()]
    assert len({_profile(rep) for rep in reps}) == len(reps) == 11
    rng = random.Random(47)
    images = [_image(rng, rep) for rep in reps for _ in range(200)]
    units = [u for u in product((-1, 0, 1), repeat=3) if any(u)]
    seen, moved = set(), []
    for rep in reps:
        for i, u in product(range(5), units):
            pts = list(rep.points)
            pts[i] = tuple(map(add, pts[i], u))
            cfg = PointConfig(pts) if len(set(pts)) == 5 else None
            if cfg is not None and frozenset(pts) not in seen and cfg.is_full_dimensional():
                seen.add(frozenset(pts))
                if signature5(cfg) not in ((2, 1), (3, 2)):
                    moved.append(cfg)
    outcomes = Counter()
    for cfg in reps + images + moved:
        expected = key_named_sporadic(cfg)
        assert _sporadic_named(cfg) == expected, cfg
        outcomes[holds_only_its_points(cfg), expected is not None] += 1
    assert outcomes[True, True] >= 11 + 2200 + 100 and outcomes[False, False] > 500, outcomes
    assert set(outcomes) == {(True, True), (False, False)}, outcomes
