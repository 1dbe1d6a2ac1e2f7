"""Convex hulls, lattice point enumeration and point-configuration surgery."""

import itertools
import random
from itertools import combinations

import pytest
from hypothesis import assume, given, settings, strategies as st

import fraction_oracles
from conftest import apply_map, random_unimodular
from fraction_oracles import point_in_hull
from lattice6.exactlinalg import det4
from lattice6.polytope import (
    IndexOutOfRange,
    NotFullDimensional,
    PointConfig,
    delete_point,
    format_points,
    hull_facets,
    interior_points,
    lattice_points,
    parse_points,
    size,
    size_exceeds,
    vertices,
)

UNIT = PointConfig([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])


def test_unit_tetrahedron():
    assert size(UNIT) == 4
    assert len(hull_facets(UNIT)) == 4
    assert set(vertices(UNIT)) == set(UNIT.points)
    assert interior_points(UNIT) == ()


def test_dilated_simplex_has_ten_points():
    c = PointConfig([(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2)])
    assert size(c) == 10
    assert len(vertices(c)) == 4
    assert interior_points(c) == ()


def test_lattice_points_sorted_and_exact():
    c = PointConfig([(0, 0, 0), (1, 0, 0), (0, 1, 0), (-1, -1, 0), (1, 2, 3)])
    pts = lattice_points(c)
    assert pts == ((-1, -1, 0), (0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 2, 3))
    assert pts == tuple(sorted(pts))


def test_six_point_representative_is_its_own_hull(bundle):
    a1 = bundle.class_by_id("A.1").config()
    assert size(a1) == 6
    assert set(lattice_points(a1)) == set(a1.points)


def test_vertex_and_interior_counts(bundle):
    g1 = bundle.class_by_id("G.1").config()
    assert len(vertices(g1)) == 5
    assert len(interior_points(g1)) == 1
    h12 = bundle.class_by_id("H.12").config()
    assert len(vertices(h12)) == 4
    assert len(interior_points(h12)) == 2


def test_hull_points_partition(bundle):
    for cid in ("A.1", "B.7", "C.3", "D.1", "E.2", "F.9", "G.14", "H.12"):
        c = bundle.class_by_id(cid).config()
        lp = set(lattice_points(c))
        vs = set(vertices(c))
        inner = set(interior_points(c))
        assert vs <= lp
        assert inner <= lp
        assert not vs & inner
        assert set(c.points) <= lp


def test_facets_support_the_hull(bundle):
    """Facets are inner descriptions: normal*x >= offset with equality on the face."""
    c = bundle.class_by_id("D.1").config()
    lp = lattice_points(c)
    for f in hull_facets(c):
        evals = [sum(n * x for n, x in zip(f.normal, p)) for p in lp]
        assert all(e >= f.offset for e in evals)
        assert sum(1 for e in evals if e == f.offset) >= 3


def test_size_exceeds_matches_size(bundle):
    for cid in ("A.2", "F.1", "H.3"):
        c = bundle.class_by_id(cid).config()
        n = size(c)
        for limit in range(3, 10):
            assert size_exceeds(c, limit) == (n > limit)


def test_point_in_hull():
    pts = [(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2)]
    assert point_in_hull((1, 0, 0), pts)
    assert point_in_hull((0, 0, 0), pts)
    assert not point_in_hull((1, 1, 1), pts)
    assert not point_in_hull((-1, 0, 0), pts)


def test_delete_point_preserves_order(bundle):
    a1 = bundle.class_by_id("A.1").config()
    d = delete_point(a1, 5)
    assert d.points == a1.points[:5]
    # A-case representatives keep their five coplanar points first.
    assert all(det4(*[d.points[i] for i in q]) == 0 for q in combinations(range(5), 4))


def test_delete_point_bad_index(bundle):
    a1 = bundle.class_by_id("A.1").config()
    with pytest.raises(IndexOutOfRange):
        delete_point(a1, 6)
    with pytest.raises(IndexOutOfRange):
        delete_point(a1, -7)


def test_planar_input_is_rejected():
    flat = PointConfig([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)])
    with pytest.raises(NotFullDimensional):
        size(flat)


def test_parse_format_round_trip(bundle):
    c = bundle.class_by_id("E.1").config()
    assert parse_points(format_points(c.points)).points == c.points


def test_parse_points_reports_line_numbers():
    with pytest.raises(ValueError, match="line 2"):
        parse_points("0 0 0\n1 0\n")
    with pytest.raises(ValueError, match="line 3"):
        parse_points("0 0 0\n1 0 0\n0 x 0\n")


def test_parse_points_skips_comments_and_blanks():
    text = "# tetrahedron\n0 0 0\n\n1 0 0\n0 1 0\n0 0 1\n"
    assert parse_points(text).points == UNIT.points


@given(seed=st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_hull_data_is_unimodular_invariant(seed):
    from lattice6.tablesdata import load_tables

    rng = random.Random(seed)
    bundle = load_tables()
    c = bundle.class_by_id(rng.choice(["A.1", "C.2", "F.5", "G.3"])).config()
    m = random_unimodular(rng)
    img = apply_map(m, c)
    assert size(img) == size(c)
    assert len(vertices(img)) == len(vertices(c))
    assert len(interior_points(img)) == len(interior_points(c))
    assert len(hull_facets(img)) == len(hull_facets(c))
    assert {m.apply(p) for p in lattice_points(c)} == set(lattice_points(img))


def test_vertices_match_oracle_on_table_rows(bundle):
    for row in bundle.class_rows:
        c = row.config()
        assert vertices(c) == fraction_oracles.vertices(c), row.id


@given(pts=st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2), st.integers(-2, 2)),
                    min_size=4, max_size=8, unique=True))
@settings(max_examples=80, deadline=None)
def test_vertices_match_point_in_hull_oracle(pts):
    """Small boxes put many points on edges and facets of the hull."""
    c = PointConfig(pts)
    assume(c.is_full_dimensional())
    assert vertices(c) == fraction_oracles.vertices(c)


def _box(config):
    lo = [min(p[i] for p in config) for i in range(3)]
    hi = [max(p[i] for p in config) for i in range(3)]
    return itertools.product(*(range(lo[i], hi[i] + 1) for i in range(3)))


def test_lattice_points_match_pointwise_facet_scan(bundle):
    """Column intervals give the same points, in the same order, as testing
    every bounding-box point against every facet."""
    rng = random.Random(11)
    configs = [row.config() for row in bundle.class_rows]
    configs += [apply_map(random_unimodular(rng, 2), c) for c in configs[::4]]
    for c in configs:
        facets = hull_facets(c)
        expected = tuple(p for p in _box(c) if all(f.value(p) >= 0 for f in facets))
        assert lattice_points(c) == expected
        assert interior_points(c) == tuple(
            p for p in expected if all(f.value(p) > 0 for f in facets))


@given(pts=st.lists(st.tuples(st.integers(-1, 1), st.integers(-1, 1), st.integers(-1, 2)),
                    min_size=4, max_size=6, unique=True))
@settings(max_examples=40, deadline=None)
def test_lattice_points_match_point_in_hull_oracle(pts):
    c = PointConfig(pts)
    assume(c.is_full_dimensional())
    assert lattice_points(c) == tuple(p for p in _box(c) if point_in_hull(p, pts))
