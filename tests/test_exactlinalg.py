"""Exact integer linear algebra, against the Fraction affine solve."""

import itertools
import random
import re
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import fraction_oracles
from conftest import random_unimodular
from emptytetra_oracles import standard_tetrahedron
from lattice6.exactlinalg import (
    COORD_BOUND,
    AffineMap,
    DegenerateSource,
    _slots,
    det3,
    det4,
    edge_form,
    hermite_normal_form,
    quad_volumes,
    unimodular_map,
)

points = st.tuples(st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9))

UNIT = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]


def test_det4_unit_simplex():
    assert det4(*UNIT) == 1


def test_det4_scales_with_height():
    assert det4((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 7)) == 7


def test_det4_coplanar_is_zero():
    assert det4((0, 0, 0), (1, 0, 0), (0, 1, 0), (2, 3, 0)) == 0
    assert det4((1, 1, 1), (2, 2, 2), (3, 3, 3), (5, 0, 0)) == 0


def test_det3_matches_det4_from_origin():
    u, v, w = (1, 2, 0), (0, 1, 4), (3, 0, 1)
    assert det3(u, v, w) == det4((0, 0, 0), u, v, w)


@given(p1=points, p2=points, p3=points, p4=points)
def test_det4_alternating(p1, p2, p3, p4):
    assert det4(p2, p1, p3, p4) == -det4(p1, p2, p3, p4)
    assert det4(p1, p3, p2, p4) == -det4(p1, p2, p3, p4)


@given(p1=points, p2=points, p3=points, p4=points, t=points)
def test_det4_translation_invariant(p1, p2, p3, p4, t):
    shifted = [tuple(a + b for a, b in zip(p, t)) for p in (p1, p2, p3, p4)]
    assert det4(*shifted) == det4(p1, p2, p3, p4)


@given(p1=points, p2=points, p3=points, p4=points, seed=st.integers(0, 10**6))
@settings(max_examples=60)
def test_det4_multiplies_by_map_determinant(p1, p2, p3, p4, seed):
    m = random_unimodular(random.Random(seed))
    assert m.det in (1, -1)
    imgs = [m.apply(p) for p in (p1, p2, p3, p4)]
    assert det4(*imgs) == m.det * det4(p1, p2, p3, p4)


@pytest.mark.parametrize("n", range(4, 9))
def test_quad_volumes_lists_every_quadruple_in_order(n):
    """det4 of each quadruple's points in combinations(range(n), 4)
    order, then their negatives in the same order; all 0 for coplanar
    points."""
    rng = random.Random(n)
    spread = [tuple(rng.randint(-9, 9) for _ in range(3)) for _ in range(n)]
    coplanar = [(x, y, 2 * x - y + 5) for x, y, _ in spread]
    for pts in (spread, coplanar):
        vols = quad_volumes(pts)
        expected = [det4(*(pts[i] for i in q)) for q in itertools.combinations(range(n), 4)]
        assert vols == tuple(expected + [-v for v in expected])
    assert any(quad_volumes(spread))
    assert not any(quad_volumes(coplanar))


@pytest.mark.parametrize("n", range(4, 9))
def test_slots_read_det4_of_every_ordered_quadruple(n):
    """On seeded random configurations of n points: every ordered
    quadruple of distinct labels, and no other key, has a slot, and that
    slot of the signed volumes is det4 of its points in that order.  Read
    through the slots, the barycentric numerators of a point off a sorted
    quadruple (det4 with the point in place of each vertex) sum to the
    quadruple's volume and weight its vertices to volume times the
    point."""
    rng = random.Random(400 + n)
    slots = _slots(n)
    assert sorted(slots) == sorted(itertools.permutations(range(n), 4))
    for _ in range(20):
        pts = [tuple(rng.randint(-6, 6) for _ in range(3)) for _ in range(n)]
        signed = quad_volumes(pts)
        for order, slot in slots.items():
            assert signed[slot] == det4(*(pts[i] for i in order)), (pts, order)
        for quad in itertools.combinations(range(n), 4):
            vol = signed[slots[quad]]
            for i in set(range(n)).difference(quad):
                lams = [signed[slots[quad[:k] + (i,) + quad[k + 1:]]] for k in range(4)]
                assert sum(lams) == vol, (pts, quad, i)
                assert tuple(sum(lam * pts[j][t] for lam, j in zip(lams, quad)) for t in range(3)) \
                    == tuple(vol * c for c in pts[i]), (pts, quad, i)


def test_solve_affine_identity():
    phi = fraction_oracles.solve_affine(UNIT, UNIT)
    assert phi.det == 1
    assert phi.is_integer()
    for p in [(3, -2, 5), (0, 0, 0), (1, 1, 1)]:
        assert phi.apply(p) == p


def test_solve_affine_reproduces_targets_exactly():
    rng = random.Random(7)
    for _ in range(25):
        src = UNIT
        dst = [tuple(rng.randrange(-9, 10) for _ in range(3)) for _ in range(4)]
        phi = fraction_oracles.solve_affine(src, dst)
        for s, d in zip(src, dst):
            assert phi.apply(s) == d


def test_solve_affine_swap_has_det_minus_one():
    dst = [(0, 0, 0), (0, 1, 0), (1, 0, 0), (0, 0, 1)]
    phi = fraction_oracles.solve_affine(UNIT, dst)
    assert phi.det == -1
    assert phi.is_integer()


def test_solve_affine_rejects_coplanar_source():
    flat = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)]
    with pytest.raises(DegenerateSource):
        fraction_oracles.solve_affine(flat, UNIT)


def test_solve_affine_detects_index_three_sublattice(bundle):
    """B.2 and B.14 span lattices of index 3 in each other.

    Any independent quadruple of corresponding columns gives an integer
    map with determinant 3 one way, and a non-integer determinant-1/3
    map the other way; neither configuration is unimodularly equivalent
    to the other.
    """
    a = bundle.rows_by_id["B.2"].config().points
    b = bundle.rows_by_id["B.14"].config().points
    idx = (0, 1, 2, 4)
    assert det4(*[a[i] for i in idx]) != 0
    fwd = fraction_oracles.solve_affine([a[i] for i in idx], [b[i] for i in idx])
    assert fwd.det == 3
    assert fwd.is_integer()
    assert all(fwd.apply(p) == q for p, q in zip(a, b))
    back = fraction_oracles.solve_affine([b[i] for i in idx], [a[i] for i in idx])
    assert back.det == Fraction(1, 3)
    assert not back.is_integer()


def _scaled(m: AffineMap, k: int) -> AffineMap:
    """m followed by a stretch of the last coordinate by k (determinant k*det m)."""
    (r0, r1, (a, b, c)), (t0, t1, t2) = m.matrix, m.translation
    return AffineMap((r0, r1, (k * a, k * b, k * c)), (t0, t1, k * t2))


@given(p1=points, p2=points, p3=points, p4=points, seed=st.integers(0, 10**6),
       kind=st.sampled_from(["unimodular", "stretched", "arbitrary"]))
@settings(max_examples=150)
@example(p1=(0, 0, 0), p2=(0, 0, 1), p3=(0, 1, 0), p4=(1, 9, 2), seed=4843, kind="stretched")
@example(p1=(0, 0, 0), p2=(0, 0, 1), p3=(0, 1, 0), p4=(1, 0, 0), seed=6329, kind="arbitrary")
def test_unimodular_map_matches_solve_affine(p1, p2, p3, p4, seed, kind):
    """Integer solver against the Fraction one on unimodular images, integer
    maps of determinant +-2 and +-3, and arbitrary (mostly non-integral)
    targets; equal edge forms exactly when there is a map.  Both solvers
    take points within the coordinate bound only, and a stretched image
    can leave it (a coordinate of -10071 in the example).  An arbitrary
    target can be flat (the second example): it has no edge form, which
    raises DegenerateSource, and no map reaches it."""
    src = [p1, p2, p3, p4]
    assume(det4(*src) != 0)
    rng = random.Random(seed)
    m = random_unimodular(rng)
    if kind == "stretched":
        m = _scaled(m, rng.choice([-3, -2, 2, 3]))
    if kind == "arbitrary":
        dst = [tuple(rng.randrange(-9, 10) for _ in range(3)) for _ in range(4)]
    else:
        dst = [m.apply(p) for p in src]
    assume(all(abs(c) <= COORD_BOUND for p in dst for c in p))
    expected = fraction_oracles.unimodular_map(src, dst)
    assert unimodular_map(src, dst) == expected
    if det4(*dst) == 0:
        assert expected is None
        with pytest.raises(DegenerateSource):
            edge_form(dst)
    else:
        assert (edge_form(src) == edge_form(dst)) == (expected is not None)
    if kind == "unimodular":
        assert expected == m
    if kind == "stretched":
        assert expected is None


def test_unimodular_map_rejects_index_three_sublattice(bundle):
    a = bundle.rows_by_id["B.2"].config().points
    b = bundle.rows_by_id["B.14"].config().points
    idx = (0, 1, 2, 4)
    assert unimodular_map([a[i] for i in idx], [b[i] for i in idx]) is None
    assert unimodular_map([b[i] for i in idx], [a[i] for i in idx]) is None


def test_unimodular_map_rejects_coplanar_source():
    flat = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)]
    with pytest.raises(DegenerateSource):
        unimodular_map(flat, UNIT)


def _is_hermite(h):
    """Row echelon with positive pivots, entries above each pivot in
    [0, pivot), zero rows last."""
    last = -1
    for i, row in enumerate(h):
        nz = [j for j, v in enumerate(row) if v]
        if not nz:
            if any(any(r) for r in h[i:]):
                return False
            continue
        j = nz[0]
        if j <= last or row[j] <= 0:
            return False
        if any(not 0 <= h[k][j] < row[j] for k in range(i)):
            return False
        last = j
    return True


def generic_hermite_normal_form(rows):
    """Row Hermite normal form of an integer matrix of any shape (Cohen,
    GTM 138, 2.4), the reference for the library's 3x3 version.

    Per column, Euclid's algorithm on the unused rows leaves one nonzero
    entry, the pivot, which is made positive and reduces the rows above.
    """
    h = [list(r) for r in rows]
    top = 0
    for col in range(len(h[0]) if h else 0):
        if top == len(h):
            break
        while True:
            live = [i for i in range(top, len(h)) if h[i][col]]
            if not live:
                break
            piv = min(live, key=lambda i: abs(h[i][col]))
            h[top], h[piv] = h[piv], h[top]
            if len(live) == 1:
                break
            for i in range(top + 1, len(h)):
                q = h[i][col] // h[top][col]
                h[i] = [a - q * b for a, b in zip(h[i], h[top])]
        if not h[top][col]:
            continue
        if h[top][col] < 0:
            h[top] = [-a for a in h[top]]
        for i in range(top):
            q = h[i][col] // h[top][col]
            h[i] = [a - q * b for a, b in zip(h[i], h[top])]
        top += 1
    return tuple(tuple(r) for r in h)


def test_hermite_normal_form_examples():
    hnf = generic_hermite_normal_form
    assert hnf([[2, 4, 6], [1, 3, 5]]) == ((1, 1, 1), (0, 2, 4))
    assert hnf([[-3, 1], [6, 0]]) == ((3, 1), (0, 2))
    assert hnf([[0, 2, 4], [0, 3, 6]]) == ((0, 1, 2), (0, 0, 0))
    assert hnf([[0, 0], [0, 0]]) == ((0, 0), (0, 0))
    assert hnf([]) == ()
    assert hermite_normal_form([[0, 2, 4], [1, 3, 6], [0, 0, 5]]) == (
        (1, 1, 2), (0, 2, 4), (0, 0, 5))
    with pytest.raises(DegenerateSource,
                       match=re.escape("matrix ((0, 2, 4), (0, 3, 6), (0, 0, 0)) is singular")):
        hermite_normal_form([[0, 2, 4], [0, 3, 6], [0, 0, 0]])
    with pytest.raises(DegenerateSource):
        hermite_normal_form([[0, 0, 0]] * 3)


def _random_matrix(rng, rank):
    """Random 3x3 integer matrix of rank at most rank."""
    bound = rng.choice([1, 2, 6, 30])
    a = [[rng.randrange(-bound, bound + 1) for _ in range(3)] for _ in range(rank)]
    for _ in range(3 - rank):
        a.append([sum(rng.randrange(-3, 4) * r[j] for r in a) for j in range(3)])
    rng.shuffle(a)
    return a


def test_hermite_normal_form_is_a_normal_form():
    """On a nonsingular matrix the form is Hermite, fixed by itself,
    unchanged by GL_3(Z) on the left, and its pivots multiply to +- the
    determinant; a singular one raises DegenerateSource."""
    rng = random.Random(8)
    for trial in range(300):
        a = _random_matrix(rng, 3 - trial % 3)
        if not det3(*a):
            with pytest.raises(DegenerateSource):
                hermite_normal_form(a)
            continue
        h = hermite_normal_form(a)
        assert _is_hermite(h), (a, h)
        assert hermite_normal_form(h) == h
        u = random_unimodular(rng).matrix
        ua = [[sum(u[i][k] * a[k][j] for k in range(3)) for j in range(3)] for i in range(3)]
        assert hermite_normal_form(ua) == h
        assert h[0][0] * h[1][1] * h[2][2] == abs(det3(*a))


def test_hermite_normal_form_matches_generic_oracle():
    """The 3x3 form equals the generic one on random nonsingular matrices,
    with small and large entries; on the singular ones, of rank 2, 1 and
    0, it raises DegenerateSource where the generic form has a zero row."""
    rng = random.Random(21)
    for trial in range(2000):
        a = _random_matrix(rng, trial % 4)
        if det3(*a):
            assert hermite_normal_form(a) == generic_hermite_normal_form(a), a
        else:
            assert generic_hermite_normal_form(a)[2] == (0, 0, 0), a
            with pytest.raises(DegenerateSource):
                hermite_normal_form(a)


def test_edge_form_separates_equal_volume_tetrahedra():
    """T(1,5) and T(2,5) have the same volume but are not equivalent: no
    vertex order of one matches the other's edge form."""
    a = list(standard_tetrahedron(1, 5))
    b = list(standard_tetrahedron(2, 5))
    assert abs(det4(*a)) == abs(det4(*b)) == 5
    for order in itertools.permutations(b):
        assert unimodular_map(a, list(order)) is None
        assert edge_form(a) != edge_form(order)
    assert any(edge_form(a) == edge_form(order) for order in itertools.permutations(a))
