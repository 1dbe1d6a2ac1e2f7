"""Empty tetrahedra: emptiness test, (p,q) types and their equivalence rule,
the frame kernels (_facet_frame, _framed_empty,
_framed_has_interior_point) against the oracles they replaced, and the
key of an ordered tetrahedron (_ordered_key) against unimodular_map."""

import itertools
import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_unimodular
from emptytetra_oracles import (
    has_interior_point,
    is_empty_by_edges,
    standard_tetrahedron,
    type_orbit,
    types_equivalent,
    white_classes,
)
from lattice6.emptytetra import (
    _facet_frame,
    _framed_empty,
    _framed_has_interior_point,
    _ordered_key,
    canonical_type,
    white_type,
)
from lattice6.exactlinalg import AffineMap, _mat_vec, cross, det3, det4, sub, unimodular_map
from lattice6.polytope import PointConfig, lattice_points
from test_polytope import _brute_force_has_interior_point

UNIT = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]


def direct_orbit(p, q):
    if q <= 2:
        return {p % q}
    inv = pow(p, -1, q)
    return {p % q, (-p) % q, inv, (-inv) % q}


def test_standard_tetrahedra_are_empty():
    assert white_type(standard_tetrahedron(1, 2)) is not None
    assert white_type(UNIT) is not None
    assert white_type([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 2)]) is not None


def test_non_empty_tetrahedra():
    halved = [(0, 0, 0), (2, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert white_type(halved) is None
    assert (1, 0, 0) in lattice_points(PointConfig(halved))
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
        empty = white_type(pts) is not None
        assert empty == (len(lattice_points(PointConfig(pts))) == 4)
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
    """The frame read-off takes p from x or y depending on which vertex
    pairs with e1, and the frame's x and y are reduced modulo q only
    there, so every vertex order must agree: of T(p,q) and, for q <= 20,
    of a seeded random unimodular image of it, whose frames leave x and y
    outside [0, q)."""
    rng = random.Random(37)
    for q in range(1, 41):
        for p in range(q):
            if math.gcd(p, q) != 1 and q > 1:
                continue
            expected = canonical_type(p, q)
            t = standard_tetrahedron(p, q)
            m = random_unimodular(rng)
            for tet in (t, [m.apply(x) for x in t]) if q <= 20 else (t,):
                for order in itertools.permutations(tet):
                    assert white_type(order) == expected, (order, expected)


def test_white_type_far_coordinates():
    """T(2,5) under the far unimodular map of the analyze benchmark."""
    m = AffineMap(((1, -33, 58), (22, -725, 1291), (27, -835, 2407)), (100, 2000, 1000))
    assert m.det in (1, -1)
    assert white_type([m.apply(v) for v in standard_tetrahedron(2, 5)]) == (2, 5)


def _framed(x, y, h):
    return [(0, 0, 0), (1, 0, 0), (0, 1, 0), (x, y, h)]


def test_framed_kernels_match_oracles_exhaustively():
    """For every residue pair (x, y) modulo q <= 40 and both signs of h =
    +-q, White's congruence says what the opposite-edge test says, and
    the level test what the coset walk says, on conv(0, e1, e2, (x, y, h)).
    On the shifted representatives in [-q, 2q)^2, images of those under
    shears that fix the triangle 0, e1, e2, the congruence again matches
    the opposite-edge test, and for q <= 12 the level test the coset
    walk."""
    counts = Counter()
    for q in range(1, 41):
        for x, y in itertools.product(range(q), repeat=2):
            for h in (q, -q):
                tet = _framed(x, y, h)
                empty = _framed_empty(x, y, h)
                inner = _framed_has_interior_point(x, y, h)
                assert empty == is_empty_by_edges(tet), (x, y, h)
                assert inner == has_interior_point(*tet), (x, y, h)
                assert not (empty and inner)
                counts[empty, inner] += 1
        for x, y in itertools.product(range(-q, 2 * q), repeat=2):
            tet = _framed(x, y, -q)
            assert _framed_empty(x, y, -q) == is_empty_by_edges(tet), (x, y, q)
            if q <= 12:
                assert _framed_has_interior_point(x, y, -q) == has_interior_point(*tet), (x, y, q)
    assert min(counts.values()) > 1000 and len(counts) == 3
    assert not _framed_empty(1, 0, 0) and not _framed_has_interior_point(1, 1, 0)


def test_level_test_matches_box_scan():
    """The level test agrees with the bounding-box scan of
    tests/test_polytope.py on every residue pair modulo q <= 7, and on
    the shifted representatives in [-q, 2q)^2 for q <= 4."""
    for q in range(1, 8):
        span = range(-q, 2 * q) if q <= 4 else range(q)
        for x, y in itertools.product(span, repeat=2):
            expected = _brute_force_has_interior_point(_framed(x, y, q))
            assert _framed_has_interior_point(x, y, q) == expected, (x, y, q)
            assert _framed_has_interior_point(x, y, -q) == expected, (x, y, q)


def test_frame_kernels_match_oracles_on_random_tetrahedra():
    """Seeded random tetrahedra of a small box, degenerate ones and ones
    whose first facet is not a unimodular triangle included:
    white_type, which reads the fourth point in the frame of the first
    three, finds an empty tetrahedron where the opposite-edge test does,
    and in every vertex rotation with a frame, the frame's height is
    det4 and the level test says what the coset walk says."""
    rng = random.Random(33)
    seen = Counter()
    for _ in range(4000):
        tet = [tuple(rng.randint(-3, 3) for _ in range(3)) for _ in range(4)]
        empty = is_empty_by_edges(tet)
        assert (white_type(tet) is not None) == empty, tet
        volume = det4(*tet)
        inner = volume != 0 and has_interior_point(*tet)
        for i in range(4):
            rot = tet[i:] + tet[:i]
            frame = _facet_frame(*rot[:3])
            if frame is None:
                seen["no frame"] += 1
                continue
            x, y, h = _mat_vec(frame, sub(rot[3], rot[0]))
            assert h == det4(*rot), rot
            assert _framed_empty(x, y, h) == empty, rot
            assert _framed_has_interior_point(x, y, h) == inner, rot
        seen["degenerate" if volume == 0 else ("empty" if empty else "not empty")] += 1
        seen["inner"] += inner
    assert min(seen.values()) > 100, seen


def test_facet_frame_is_an_inverse():
    """The frame U of a unimodular triangle abc is an integer matrix of
    determinant 1 that sends b - a and c - a to e1 and e2; a triangle
    that is not unimodular, collinear ones included, has none."""
    rng = random.Random(34)
    framed = 0
    for _ in range(500):
        a, b, c = (tuple(rng.randint(-5, 5) for _ in range(3)) for _ in range(3))
        frame = _facet_frame(a, b, c)
        if frame is None:
            assert math.gcd(*cross(sub(b, a), sub(c, a))) != 1, (a, b, c)
            continue
        framed += 1
        assert det3(*frame) == 1
        assert _mat_vec(frame, sub(b, a)) == (1, 0, 0)
        assert _mat_vec(frame, sub(c, a)) == (0, 1, 0)
    assert 100 < framed < 500


def test_ordered_key_matches_unimodular_map():
    """Per q <= 40, three pairs of seeded unimodular images of T(p, q) and
    T(p', q), p and p' random units mod q, each in its 24 vertex orders:
    two ordered tetrahedra have equal keys (_ordered_key) exactly when
    unimodular_map finds an integral unimodular map from the one onto the
    other, vertex by vertex.  Every order of an empty tetrahedron has a
    key."""
    rng = random.Random(52)
    seen = Counter()
    for q in range(1, 41):
        units = [p for p in range(q) if math.gcd(p, q) == 1]
        for _ in range(3):
            src, dst = ([m.apply(v) for v in standard_tetrahedron(rng.choice(units), q)]
                        for m in (random_unimodular(rng), random_unimodular(rng)))
            dst_keys = [(order, _ordered_key(*order)) for order in itertools.permutations(dst)]
            for order in itertools.permutations(src):
                key = _ordered_key(*order)
                assert key is not None and key[2] == q, order
                for target, target_key in dst_keys:
                    mapped = unimodular_map(order, target) is not None
                    assert (key == target_key) == mapped, (order, target)
                    seen[mapped] += 1
    assert min(seen.values()) > 1000, seen


def test_ordered_key_is_none_exactly_without_a_unimodular_first_facet():
    """Seeded random ordered tetrahedra of a small box: the key is None
    exactly when the first facet is not a unimodular triangle or the
    four points are coplanar; otherwise it is (x, y, q) with q = |det4|
    and 0 <= x, y < q.  One in four fourth points is put in the plane of
    the first three."""
    rng = random.Random(53)
    seen = Counter()
    for i in range(4000):
        a, b, c, d = (tuple(rng.randint(-3, 3) for _ in range(3)) for _ in range(4))
        if i % 4 == 0:
            r, t = rng.randint(-2, 2), rng.randint(-2, 2)
            d = tuple(u + r * (v - u) + t * (w - u) for u, v, w in zip(a, b, c))
        key = _ordered_key(a, b, c, d)
        unimodular = math.gcd(*cross(sub(b, a), sub(c, a))) == 1
        volume = abs(det4(a, b, c, d))
        assert (key is None) == (not unimodular or volume == 0), (a, b, c, d)
        if key is not None:
            x, y, q = key
            assert q == volume and 0 <= x < q and 0 <= y < q, (a, b, c, d)
        seen["keyed" if key else ("coplanar" if unimodular else "no frame")] += 1
    assert min(seen.values()) > 100, seen
