"""Empty tetrahedra: emptiness test, (p,q) types and their equivalence rule."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_unimodular
from emptytetra_oracles import standard_tetrahedron, type_orbit, types_equivalent, white_classes
from lattice6.emptytetra import canonical_type, is_empty_tetrahedron, white_type
from lattice6.exactlinalg import AffineMap, det4
from lattice6.polytope import PointConfig, lattice_points

UNIT = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]


def direct_orbit(p, q):
    if q <= 2:
        return {p % q}
    inv = pow(p, -1, q)
    return {p % q, (-p) % q, inv, (-inv) % q}


def test_standard_tetrahedra_are_empty():
    assert is_empty_tetrahedron(standard_tetrahedron(1, 2))
    assert is_empty_tetrahedron(UNIT)
    assert is_empty_tetrahedron([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 2)])


def test_non_empty_tetrahedra():
    halved = [(0, 0, 0), (2, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert not is_empty_tetrahedron(halved)
    assert (1, 0, 0) in lattice_points(PointConfig(halved))
    assert white_type(halved) is None
    # imprimitive parameters give a lattice point on the top edge
    assert white_type(standard_tetrahedron(2, 4)) is None


def test_white_type_examples():
    assert white_type(UNIT) == (0, 1)
    assert white_type(standard_tetrahedron(2, 7)) == (2, 7)
    assert white_type(standard_tetrahedron(4, 7)) == (2, 7)
    assert white_type([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 2)]) == (1, 2)


def test_type_volume_matches_determinant():
    for q in range(1, 13):
        for p in range(q):
            if math.gcd(p, q) != 1 and not (q == 1 and p == 0):
                continue
            t = standard_tetrahedron(p, q)
            got = white_type(t)
            assert got == canonical_type(p, q)
            assert got[1] == abs(det4(*t)) == q


def test_types_equivalent():
    assert types_equivalent((2, 7), (4, 7))
    assert not types_equivalent((1, 5), (2, 5))
    assert types_equivalent((0, 1), (0, 1))
    assert not types_equivalent((1, 5), (1, 7))


def test_type_orbit():
    assert type_orbit(2, 7) == frozenset({2, 3, 4, 5})
    assert type_orbit(1, 5) == frozenset({1, 4})
    for call in (lambda: type_orbit(1, 0), lambda: types_equivalent((1, 0), (1, 0))):
        with pytest.raises(ValueError, match="q must be positive"):
            call()


def test_orbit_counting_matches_direct_enumeration():
    for q in range(1, 21):
        ps = [p for p in range(q) if math.gcd(p, q) == 1]
        orbits = {frozenset(direct_orbit(p, q)) for p in ps}
        classes = white_classes(q)
        assert len(classes) == len(orbits), q
        assert {frozenset(type_orbit(p, q)) for p, _ in classes} == orbits, q
        # representatives are orbit minima and pairwise inequivalent
        for p, qq in classes:
            assert qq == q and p == min(direct_orbit(p, q))


def test_empty_iff_four_lattice_points_sampled():
    rng = random.Random(5)
    seen_empty = seen_full = 0
    while seen_empty < 60 or seen_full < 60:
        pts = [tuple(rng.randrange(-4, 5) for _ in range(3)) for _ in range(4)]
        if det4(*pts) == 0:
            continue
        empty = is_empty_tetrahedron(pts)
        assert empty == (len(lattice_points(PointConfig(pts))) == 4)
        assert (white_type(pts) is not None) == empty
        seen_empty += empty
        seen_full += not empty


@given(seed=st.integers(0, 10**6), p=st.integers(0, 10), q=st.integers(1, 11))
@settings(max_examples=60, deadline=None)
def test_white_type_is_unimodular_invariant(seed, p, q):
    if math.gcd(p, q) != 1:
        return
    t = standard_tetrahedron(p % q if q > 1 else 0, q)
    m = random_unimodular(random.Random(seed))
    img = [m.apply(x) for x in t]
    assert white_type(img) == white_type(t)
    assert types_equivalent(white_type(img), canonical_type(p % q if q > 1 else 0, q))


def test_white_type_ignores_vertex_order():
    """The Hermite read-off takes p from a or b depending on which facet
    lands on the coordinate plane, so every vertex order must agree."""
    for q in range(1, 41):
        for p in range(q):
            if math.gcd(p, q) != 1 and q > 1:
                continue
            expected = canonical_type(p, q)
            for order in itertools.permutations(standard_tetrahedron(p, q)):
                assert white_type(order) == expected, (order, expected)


def test_white_type_far_coordinates():
    """T(2,5) under the far unimodular map of the analyze benchmark."""
    m = AffineMap(((1, -33, 58), (22, -725, 1291), (27, -835, 2407)), (100, 2000, 1000))
    assert m.det in (1, -1)
    assert white_type([m.apply(v) for v in standard_tetrahedron(2, 5)]) == (2, 5)
