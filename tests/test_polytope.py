"""Convex hulls, lattice point enumeration and point-configuration surgery."""

import itertools
import random
from collections import Counter
from itertools import combinations
from math import gcd

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import fraction_oracles
from conftest import apply_map, count_calls, random_unimodular, shuffled, sporadic5
from emptytetra_oracles import has_interior_point
from fraction_oracles import point_in_hull
from hull_oracles import cone_triangulation, triple_scan_facets
from lattice6.emptytetra import _facet_frame, _framed_has_interior_point
from lattice6.exactlinalg import (
    _mat_vec, _slots, cross, det4, dot, hermite_normal_form, quad_volumes, sub)
from lattice6 import polytope
from lattice6.polytope import (
    Extension,
    NotFullDimensional,
    PointConfig,
    _cosets,
    _fine_cells,
    _placing,
    _tetrahedron_points,
    _vertices,
    format_points,
    hull_facets,
    holds_only_its_points,
    hull_summary,
    lattice_points,
    parse_points,
    size,
)
from lattice6.size5 import NotSize5, catalog41, classify5, rep21, rep32
from lattice6.tablesdata import load_tables

UNIT = PointConfig([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])


def test_unit_tetrahedron():
    assert size(UNIT) == 4
    assert len(hull_facets(UNIT)) == 4
    assert set(hull_summary(UNIT)[2]) == set(UNIT.points)
    assert hull_summary(UNIT)[1] == ()


def test_volumes_are_computed_once_and_read_only(bundle, monkeypatch):
    """PointConfig.volumes() is quad_volumes of the points, computed on the
    first call and kept; the tuple refuses writes, so no reader can change
    what the others read."""
    c = bundle.rows_by_id["H.12"].config()
    expected = quad_volumes(c.points)
    calls = count_calls(monkeypatch, quad_volumes)
    vols = c.volumes()
    assert vols is c.volumes() and vols == expected
    assert calls == {"quad_volumes": 1}
    with pytest.raises(TypeError):
        vols[0] = 0


@pytest.mark.parametrize("n", range(4, 9))
def test_top_volume_is_the_maximal_absolute_det4(n):
    """On seeded random n-point sets of a small box, top_volume is the
    maximal |det4| over the quadruples of points; on a flat set it raises
    the message analyze and equiv print."""
    rng = random.Random(3800 + n)
    for _ in range(60):
        c = PointConfig(rng.sample(list(itertools.product(range(-2, 3), repeat=3)), n))
        top = max(abs(det4(*quad)) for quad in combinations(c.points, 4))
        if top:
            assert c.top_volume() == top, c
    flat = PointConfig([(x, y, 2 * x - 3 * y + 1) for x, y in itertools.product(range(3), repeat=2)][:n])
    with pytest.raises(NotFullDimensional, match="^configuration spans no 3-dimensional volume$"):
        flat.top_volume()


def test_dilated_simplex_has_ten_points():
    c = PointConfig([(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2)])
    assert size(c) == 10
    assert len(hull_summary(c)[2]) == 4
    assert hull_summary(c)[1] == ()


def test_lattice_points_sorted_and_exact():
    c = PointConfig([(0, 0, 0), (1, 0, 0), (0, 1, 0), (-1, -1, 0), (1, 2, 3)])
    pts = lattice_points(c)
    assert pts == ((-1, -1, 0), (0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 2, 3))
    assert pts == tuple(sorted(pts))


def test_six_point_representative_is_its_own_hull(bundle):
    a1 = bundle.rows_by_id["A.1"].config()
    assert size(a1) == 6
    assert set(lattice_points(a1)) == set(a1.points)
    # A-case representatives keep their five coplanar points first.
    assert all(det4(*[a1.points[i] for i in q]) == 0 for q in combinations(range(5), 4))


def test_vertex_and_interior_counts(bundle):
    g1 = bundle.rows_by_id["G.1"].config()
    assert len(hull_summary(g1)[2]) == 5
    assert len(hull_summary(g1)[1]) == 1
    h12 = bundle.rows_by_id["H.12"].config()
    assert len(hull_summary(h12)[2]) == 4
    assert len(hull_summary(h12)[1]) == 2


def test_hull_points_partition(bundle):
    for cid in ("A.1", "B.7", "C.3", "D.1", "E.2", "F.9", "G.14", "H.12"):
        c = bundle.rows_by_id[cid].config()
        lp = set(lattice_points(c))
        vs = set(hull_summary(c)[2])
        inner = set(hull_summary(c)[1])
        assert vs <= lp
        assert inner <= lp
        assert not vs & inner
        assert set(c.points) <= lp


def test_facets_support_the_hull(bundle):
    """Facets are inner descriptions: a x + b y + c z >= o with equality on the face."""
    c = bundle.rows_by_id["D.1"].config()
    lp = lattice_points(c)
    for *normal, offset in hull_facets(c):
        evals = [sum(n * x for n, x in zip(normal, p)) for p in lp]
        assert all(e >= offset for e in evals)
        assert sum(1 for e in evals if e == offset) >= 3


def test_hull_summary_runs_one_vertex_pass(monkeypatch):
    """hull_summary computes the vertices once and hands them to the
    enumeration, which does not compute them again."""
    calls = []
    vertices = polytope._vertices

    def counted(*args):
        calls.append(args)
        return vertices(*args)

    monkeypatch.setattr(polytope, "_vertices", counted)
    c = PointConfig([(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, -1)])
    points, inner, verts = hull_summary(c)
    assert len(calls) == 1
    assert verts == c.points and len(points) == 11 and inner == ()


def _brute_force_hull_facets(config):
    """Oracle for hull_facets: a C(n,4) determinant pass decides full
    dimensionality, then every point triple spans a plane, reduced by the
    gcd of its normal, and is kept when all points lie weakly on one side."""
    pts = config.points
    if not any(det4(*quad) != 0 for quad in combinations(pts, 4)):
        raise NotFullDimensional("configuration spans no 3-dimensional volume")
    facets = set()
    for a, b, c in combinations(pts, 3):
        n = cross(sub(b, a), sub(c, a))
        if n == (0, 0, 0):
            continue
        g = gcd(*n)
        n = (n[0] // g, n[1] // g, n[2] // g)
        base = dot(n, a)
        values = [dot(n, p) - base for p in pts]
        if all(v >= 0 for v in values):
            facets.add((*n, base))
        elif all(v <= 0 for v in values):
            facets.add((-n[0], -n[1], -n[2], -base))
    return tuple(sorted(facets))


def _hull_or_flat(hull, config):
    try:
        return hull(config)
    except NotFullDimensional:
        return NotFullDimensional


@st.composite
def _box_configs(draw):
    """4..8 distinct points of a box with sides 0..3, some of them flat or
    thin, so coplanar and collinear sets are common."""
    box = draw(st.tuples(*[st.integers(0, 3)] * 3).filter(
        lambda s: (s[0] + 1) * (s[1] + 1) * (s[2] + 1) >= 4))
    cells = list(itertools.product(*(range(k + 1) for k in box)))
    return PointConfig(draw(st.lists(st.sampled_from(cells), min_size=4,
                                     max_size=min(8, len(cells)), unique=True)))


@st.composite
def _far_images(draw):
    """Unimodular images of box configurations, translated so that the
    coordinates reach up to 10^4."""
    c = draw(_box_configs())
    m = random_unimodular(random.Random(draw(st.integers(0, 10**6))), 0)
    pts = [m.apply(p) for p in c.points]
    lo = [-10**4 - min(p[i] for p in pts) for i in range(3)]
    hi = [10**4 - max(p[i] for p in pts) for i in range(3)]
    assume(all(l <= h for l, h in zip(lo, hi)))
    t = [draw(st.integers(l, h)) for l, h in zip(lo, hi)]
    return PointConfig([tuple(x + d for x, d in zip(p, t)) for p in pts])


@given(c=st.one_of(_box_configs(), _far_images()))
@settings(max_examples=300, deadline=None)
def test_hull_facets_match_brute_force_oracle(c):
    """Equal facet tuples, or NotFullDimensional from both."""
    assert _hull_or_flat(hull_facets, c) == _hull_or_flat(_brute_force_hull_facets, c)


def _degenerate_sets(rng, count):
    """count sets of 4-8 distinct points: a few random points of [-3, 3]^3,
    then points on the lines (a + k (b - a)) and planes (a + j (b - a) +
    k (c - a)) of earlier ones, so collinear triples, points on edges and
    facets and coplanar sets (flat ones among them) are common."""
    made = 0
    while made < count:
        pts = [tuple(rng.randint(-3, 3) for _ in range(3)) for _ in range(rng.randint(2, 4))]
        for _ in range(rng.randint(1, 5)):
            a, b, c = (rng.choice(pts) for _ in range(3))
            j, k = rng.randint(-2, 2), rng.randint(-2, 2)
            if rng.random() < 0.5:
                pts.append(tuple(x + k * (y - x) for x, y in zip(a, b)))
            else:
                pts.append(tuple(x + j * (y - x) + k * (z - x) for x, y, z in zip(a, b, c)))
        pts = list(dict.fromkeys(pts))
        if 4 <= len(pts) <= 8:
            made += 1
            yield PointConfig(pts)


def test_hull_facets_match_triple_scan_oracle(bundle):
    """hull_facets, which reads the sides off the configuration's volumes,
    gives the facets of the triple scan it replaced, or NotFullDimensional
    with it: on the rows and the eight (4,1) bases, 2,000 random
    4-8 point sets in [-3, 3]^3 and 2,000 sets with collinear triples,
    points on edges and facets, and coplanar sets."""
    rng = random.Random(36)
    randoms = []
    while len(randoms) < 2000:
        pts = list({tuple(rng.randint(-3, 3) for _ in range(3)) for _ in range(rng.randint(4, 8))})
        if len(pts) >= 4:
            randoms.append(PointConfig(pts))
    configs = [row.config() for row in bundle.class_rows] + [c.representative for c in catalog41()]
    configs += randoms + list(_degenerate_sets(rng, 2000))
    flat = 0
    for c in configs:
        got = _hull_or_flat(hull_facets, c)
        assert got == _hull_or_flat(triple_scan_facets, c), c.points
        flat += got is NotFullDimensional
    assert flat > 100


def test_placing_matches_cone_triangulation_oracle(bundle):
    """The placing against the triangulation it replaced
    (hull_oracles.cone_triangulation, over the triple-scan facets and the
    vertices they give): its facets are the triple scan's, every placing
    tetrahedron has a nonzero volume in the table and those volumes sum
    to the cone tetrahedra's, and lattice_points is the union of the cone
    tetrahedra's points; on a flat set all of them raise
    NotFullDimensional.  On the 76 rows and 900 sets with collinear
    triples, points on edges and facets and coplanar sets, over 400 of
    them flat and over 100 of those collinear."""
    rng = random.Random(40)
    configs = [row.config() for row in bundle.class_rows] + list(_degenerate_sets(rng, 900))
    flat = collinear = 0
    for c in configs:
        try:
            facets = triple_scan_facets(c)
        except NotFullDimensional:
            flat += 1
            collinear += all(cross(sub(q, p), sub(r, p)) == (0, 0, 0) for p, q, r in combinations(c, 3))
            for hull in (hull_facets, lattice_points, _placing):
                with pytest.raises(NotFullDimensional):
                    hull(c)
            continue
        tetrahedra = _placing(c)[0]
        assert hull_facets(c) == facets, c.points
        vols, slots = c.volumes(), _slots(len(c))
        assert all(vols[slots[t]] for t in tetrahedra), c.points
        cones = cone_triangulation(_vertices(c, facets), facets)
        assert sum(abs(vols[slots[t]]) for t in tetrahedra) == sum(abs(det4(*t)) for t in cones)
        expected = {p for t in cones for p in _tetrahedron_points(det4(*t), *t)}
        assert lattice_points(c) == tuple(sorted(expected)), c.points
    assert flat > 400 and collinear > 100


def _full_dimensional_draws(rng, per_bound):
    """per_bound seeded full-dimensional sets of 4-8 distinct points of
    [-b, b]^3 for each b in 1, 2, 3, 5."""
    for bound in (1, 2, 3, 5):
        made = 0
        while made < per_bound:
            pts = {tuple(rng.randint(-bound, bound) for _ in range(3)) for _ in range(rng.randint(4, 8))}
            c = PointConfig(sorted(pts)) if len(pts) >= 4 else None
            if c is not None and c.is_full_dimensional():
                made += 1
                yield c


def test_holds_only_its_points_matches_the_enumerator(bundle):
    """holds_only_its_points, the emptiness of the fine triangulation's
    cells, against the enumerator, size(c) == len(c): on 20,000 seeded
    full-dimensional draws, the full-dimensional ones among 3,000 sets
    with collinear triples, coplanar sets and points on edges and facets,
    three relabeled unimodular images of each of the 76 rows, and the
    size-5 classes (the eleven sporadic rows, the nine of width 2 among
    them, and family members).  Over 1,000 draws hold only their points.
    The fine cells have every label as a vertex, no zero volume, and
    |volumes| that sum to the placing's.  classify5's size gate is the
    predicate: it raises NotSize5 on the five-point draws it rejects.
    hull_summary's points are the enumerator's on the degenerate sets,
    whichever way it takes, and a flat set raises NotFullDimensional."""
    rng = random.Random(42)
    draws = list(_full_dimensional_draws(rng, 5000))
    degenerate = [c for c in _degenerate_sets(rng, 3000) if c.is_full_dimensional()]
    images = [shuffled(rng, apply_map(random_unimodular(rng), row.config()))
              for row in bundle.class_rows for _ in range(3)]
    size5 = ([sporadic5((2, 2), 1), sporadic5((3, 1), 1), sporadic5((3, 1), 2)]
             + [cls.representative for cls in catalog41()]
             + [rep21(p, q) for p, q in ((0, 1), (1, 2), (2, 5), (13, 31))]
             + [rep32(a, b) for a, b in ((1, 1), (2, 3), (5, 8))])
    exhaustive = 0
    for c in draws + degenerate + images + size5:
        holds = holds_only_its_points(c)
        assert holds == (size(c) == len(c)), c.points
        exhaustive += holds
        tetrahedra = _placing(c)[0]
        cells = _fine_cells(c, tetrahedra)
        vols, slots = c.volumes(), _slots(len(c))
        assert {label for cell in cells for label in cell} == set(range(len(c))), c.points
        assert all(vols[slots[cell]] for cell in cells), c.points
        assert sum(abs(vols[slots[t]]) for t in cells) == sum(abs(vols[slots[t]]) for t in tetrahedra)
        if len(c) == 5:
            try:
                gate = classify5(c) is not None
            except NotSize5:
                gate = False
            assert gate == holds, c.points
    assert len(draws) == 20000 and len(degenerate) > 1000 and exhaustive > 1000
    assert all(holds_only_its_points(c) for c in images + size5)
    for c in degenerate:
        assert hull_summary(c)[0] == lattice_points(c), c.points
    flat = PointConfig([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (2, 3, 0)])
    with pytest.raises(NotFullDimensional, match="^configuration spans no 3-dimensional volume$"):
        holds_only_its_points(flat)


def test_coset_pivots_are_the_hermite_diagonal():
    """_cosets' pivots, read off the determinantal divisors, are the
    diagonal of the row Hermite normal form of the edge vectors, on
    random tetrahedra of both orientations (two vertices swapped)."""
    rng = random.Random(36)
    seen = set()
    for _ in range(3000):
        v0, a, b, c = (tuple(rng.randint(-6, 6) for _ in range(3)) for _ in range(4))
        det = det4(v0, a, b, c)
        if det == 0:
            continue
        for tet in ((v0, a, b, c), (v0, b, a, c)):
            h = hermite_normal_form([sub(p, tet[0]) for p in tet[1:]])
            assert [len(r) for r in _cosets(det4(*tet), *tet)[3]] == [h[0][0], h[1][1], h[2][2]], tet
        seen.add(det > 0)
    assert seen == {True, False}


@pytest.mark.parametrize("points", [
    [(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0)],  # collinear
    [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (2, 5, 0)],  # coplanar
])
def test_hull_facets_reject_flat_configurations(points):
    for hull in (hull_facets, _brute_force_hull_facets):
        with pytest.raises(NotFullDimensional):
            hull(PointConfig(points))


def test_point_in_hull():
    pts = [(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2)]
    assert point_in_hull((1, 0, 0), pts)
    assert point_in_hull((0, 0, 0), pts)
    assert not point_in_hull((1, 1, 1), pts)
    assert not point_in_hull((-1, 0, 0), pts)


def test_planar_input_is_rejected():
    flat = PointConfig([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)])
    with pytest.raises(NotFullDimensional):
        size(flat)


def test_parse_format_round_trip(bundle):
    c = bundle.rows_by_id["E.1"].config()
    assert parse_points(format_points(c.points)).points == c.points


def test_parse_points_reports_line_numbers():
    with pytest.raises(ValueError, match="line 2"):
        parse_points("0 0 0\n1 0\n")
    with pytest.raises(ValueError, match="line 3"):
        parse_points("0 0 0\n1 0 0\n0 x 0\n")
    # int() reads these as 10 and 1; the format is ASCII decimal digits
    with pytest.raises(ValueError, match="line 2"):
        parse_points("0 0 0\n1_0 0 0\n0 1 0\n0 0 1\n")
    with pytest.raises(ValueError, match="line 4"):
        parse_points("0 0 0\n1 0 0\n0 1 0\n0 0 \u0661\n")


@pytest.mark.parametrize("points", [
    list(UNIT.points) + [(1, 0, 0)],  # a repeated point
    list(UNIT.points)[:3],
    list(UNIT.points) + [(x, 1, 1) for x in range(5)],  # nine points
])
def test_constructors_check_count_and_distinctness(points):
    """PointConfig, parse_points and the constructor for checked points all
    reject repeated points and fewer than 4 or more than 8 points.  The
    coordinate checks of the public constructors are
    test_cli.py::test_raw_point_entry_points_validate_coordinates."""
    for build in (PointConfig, PointConfig._of_checked,
                  lambda pts: parse_points(format_points(pts))):
        with pytest.raises(ValueError):
            build(points)


def test_parse_points_skips_comments_and_blanks():
    text = "# tetrahedron\n0 0 0\n\n1 0 0\n0 1 0\n0 0 1\n"
    assert parse_points(text).points == UNIT.points


@pytest.mark.parametrize("text", [
    "0 0 0\r\n1 0 0\r\n0 1 0\r\n0 0 1\r\n",
    "0 0 0\r1 0 0\r0 1 0\r0 0 1",
    "\t0\t0 0\n1  0\t\t0 \n 0 1 0\n0 0 1\t\n",
    "+0 -0 00\n+1 0 -000\n0 +01 0\n00000 0 0001\n",
    "# unit\r\n\n0 0 0\n  # 1 2 3\n1 0 0\n \t\n0 1 0\r\n#\n0 0 1\n\n",
    # the split path: a token of more than five digits with leading zeros
    "0 0 0\n1 0 0\n0 000001 0\n0 0 " + "0" * 5000 + "1\n",
])
def test_parse_points_line_endings_signs_and_zeros(text):
    """CRLF and lone CR line endings, tabs, '+' signs, leading zeros,
    comment and blank lines all read as the unit tetrahedron, on the
    one-regex path and on the split path."""
    assert parse_points(text).points == UNIT.points


@pytest.mark.parametrize("text, message", [
    ("0 0 0\n1 0\n", "line 2: expected 3 coordinates, got 2"),
    ("0 0 0\n1 0 0\n0 x 0\n", "line 3: not a decimal integer: 'x'"),
    ("0 0 0\n1 0 0\n0 1 0\n0 0 10001\n", "line 4: coordinate 10001 exceeds bound 10000"),
    ("0 0 0\n1 0 0\n0 -010001 0\n0 0 1\n", "line 3: coordinate -10001 exceeds bound 10000"),
    ("# two out of bound\n0 0 0\n\n1 0 -10001\n0 10002 0\n0 0 1\n",
     "line 4: coordinate -10001 exceeds bound 10000"),
    # the first line at fault is named, an out-of-bound point or not
    ("0 0 10001\n1 0 0\n0 1\n", "line 1: coordinate 10001 exceeds bound 10000"),
    # more significant digits than the bound: rejected before int() reads them
    ("0 0 0\n1 0 0\n0 1 0\n0 0 123456\n", "line 4: coordinate of 6 digits exceeds bound 10000"),
    ("0 0 0\n1 0 0\n0 1 0\n0 0 -" + "9" * 5000 + "\n",
     "line 4: coordinate of 5000 digits exceeds bound 10000"),
])
def test_parse_points_error_messages(text, message):
    """The messages name the line at fault, the first one in the file.
    Each point is checked against the bound as its line is read, with
    PointConfig's message, or before int() reads a coordinate with more
    digits than the bound."""
    with pytest.raises(ValueError) as exc:
        parse_points(text)
    assert str(exc.value) == message


@given(seed=st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_hull_data_is_unimodular_invariant(seed):
    from lattice6.tablesdata import load_tables

    rng = random.Random(seed)
    bundle = load_tables()
    c = bundle.rows_by_id[rng.choice(["A.1", "C.2", "F.5", "G.3"])].config()
    m = random_unimodular(rng)
    img = apply_map(m, c)
    assert size(img) == size(c)
    assert len(hull_summary(img)[2]) == len(hull_summary(c)[2])
    assert len(hull_summary(img)[1]) == len(hull_summary(c)[1])
    assert len(hull_facets(img)) == len(hull_facets(c))
    assert {m.apply(p) for p in lattice_points(c)} == set(lattice_points(img))


def test_vertices_match_oracle_on_table_rows(bundle):
    for row in bundle.class_rows:
        c = row.config()
        assert hull_summary(c)[2] == fraction_oracles.vertices(c), row.id


@given(pts=st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2), st.integers(-2, 2)),
                    min_size=4, max_size=8, unique=True))
@settings(max_examples=80, deadline=None)
def test_vertices_match_point_in_hull_oracle(pts):
    """Small boxes put many points on edges and facets of the hull."""
    c = PointConfig(pts)
    assume(c.is_full_dimensional())
    assert hull_summary(c)[2] == fraction_oracles.vertices(c)


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
        expected = tuple(p for p in _box(c) if all(dot(f[:3], p) >= f[3] for f in facets))
        assert lattice_points(c) == expected
        assert hull_summary(c)[1] == tuple(
            p for p in expected if all(dot(f[:3], p) > f[3] for f in facets))


@given(pts=st.lists(st.tuples(st.integers(-1, 1), st.integers(-1, 1), st.integers(-1, 2)),
                    min_size=4, max_size=6, unique=True))
@settings(max_examples=40, deadline=None)
def test_lattice_points_match_point_in_hull_oracle(pts):
    c = PointConfig(pts)
    assume(c.is_full_dimensional())
    assert lattice_points(c) == tuple(p for p in _box(c) if point_in_hull(p, pts))


def _scan_box(config, facets):
    """Bounding-box points of config on the inner side of every facet.

    Column by column: for fixed (x, y) each facet a*x + b*y + c*z >= offset
    bounds z from below (c > 0) or above (c < 0), or holds or fails for
    the whole column (c = 0), so each column costs one pass over the
    facets plus the points it yields.  Cost follows the box area, so this
    is an oracle for small boxes only.
    """
    xs = [p[0] for p in config]
    ys = [p[1] for p in config]
    zs = [p[2] for p in config]
    z_lo, z_hi = min(zs), max(zs)
    for x in range(min(xs), max(xs) + 1):
        for y in range(min(ys), max(ys) + 1):
            lo, hi = z_lo, z_hi
            for a, b, c, offset in facets:
                r = offset - a * x - b * y  # need c * z >= r
                if c > 0:
                    lo = max(lo, -(-r // c))
                elif c < 0:
                    hi = min(hi, r // c)
                elif r > 0:
                    hi = lo - 1
                    break
            for z in range(lo, hi + 1):
                yield (x, y, z)


def _spanning(points):
    c = PointConfig(points)
    assume(c.is_full_dimensional())
    return c


_SMALL_POINT = st.tuples(st.integers(-2, 2), st.integers(-2, 2), st.integers(-2, 2))
_small_configs = st.lists(_SMALL_POINT, min_size=4, max_size=8, unique=True).map(_spanning)
_row_images = st.builds(
    lambda row, seed: apply_map(random_unimodular(random.Random(seed), 2), row.config()),
    st.sampled_from(load_tables().class_rows), st.integers(0, 10**6))
_white_tetrahedra = st.tuples(st.integers(0, 12), st.integers(1, 12)).filter(
    lambda pq: gcd(*pq) == 1).map(
    lambda pq: PointConfig([(0, 0, 0), (1, 0, 0), (0, 0, 1), (pq[0], pq[1], 1)]))
_dilated_simplices = st.builds(
    lambda k, pts: _spanning([tuple(k * x for x in p) for p in pts]),
    st.integers(1, 4),
    st.lists(st.tuples(*[st.integers(-1, 1)] * 3), min_size=4, max_size=4, unique=True))


@given(c=st.one_of(_small_configs, _row_images, _white_tetrahedra, _dilated_simplices))
@settings(max_examples=150, deadline=None)
def test_enumeration_matches_box_scan_oracle(c):
    """Points, interior points and size (values and order) equal the box
    scan's, and coning from any other vertex triangulates the same volume
    into the same points."""
    facets = hull_facets(c)
    expected = tuple(_scan_box(c, facets))
    assert lattice_points(c) == expected
    assert size(c) == len(expected)
    assert hull_summary(c)[1] == tuple(
        p for p in expected if all(dot(f[:3], p) > f[3] for f in facets))
    verts = hull_summary(c)[2]
    volume = sum(abs(det4(*t)) for t in cone_triangulation(verts, facets))
    for v in verts[1:]:
        recentred = PointConfig([v] + [p for p in c.points if p != v])
        tetrahedra = cone_triangulation(_vertices(recentred, facets), facets)
        assert {t[0] for t in tetrahedra} == {v}
        assert sum(abs(det4(*t)) for t in tetrahedra) == volume
        assert lattice_points(recentred) == expected


def _det(u, v, w):
    return (u[0] * (v[1] * w[2] - v[2] * w[1]) - u[1] * (v[0] * w[2] - v[2] * w[0])
            + u[2] * (v[0] * w[1] - v[1] * w[0]))


def _brute_force_has_interior_point(tet):
    """Whether some bounding-box point lies strictly inside the tetrahedron:
    for each face, on the same side as the opposite vertex and off the
    face's plane."""
    faces = []
    for i in range(4):
        a, b, c = (tet[j] for j in range(4) if j != i)
        u = tuple(x - y for x, y in zip(b, a))
        v = tuple(x - y for x, y in zip(c, a))
        faces.append((a, u, v, _det(u, v, tuple(x - y for x, y in zip(tet[i], a)))))
    box = [range(min(p[k] for p in tet), max(p[k] for p in tet) + 1) for k in range(3)]
    return any(
        all(_det(u, v, tuple(x - y for x, y in zip(q, a))) * side > 0 for a, u, v, side in faces)
        for q in itertools.product(*box))


def _level_test(tet):
    """_framed_has_interior_point of tet's fourth point in the frame of its
    first three, or None when they are not a unimodular triangle."""
    frame = _facet_frame(*tet[:3])
    return None if frame is None else _framed_has_interior_point(
        *_mat_vec(frame, sub(tet[3], tet[0])))


_SMALL_TETRAHEDRA = st.lists(
    st.tuples(*[st.integers(-4, 4)] * 3), min_size=4, max_size=4, unique=True).filter(
    lambda tet: det4(*tet) != 0)


@given(tet=_SMALL_TETRAHEDRA)
@settings(max_examples=300, deadline=None)
@example(tet=[(0, 0, 0), (3, 0, 0), (0, 3, 0), (0, 0, 3)])
def test_has_interior_point_matches_box_scan(tet):
    """The coset walk (emptytetra_oracles.has_interior_point) agrees with a
    scan of the bounding box, with each vertex taken first, and so does
    the level test in the frame of each first facet that is a unimodular
    triangle.  The example has (1, 1, 1) in the relative interior of a
    facet and no lattice point strictly inside."""
    expected = _brute_force_has_interior_point(tet)
    for i in range(4):
        rot = tet[i:] + tet[:i]
        assert has_interior_point(*rot) == expected
        assert _level_test(rot) in (None, expected)


@given(tet=_SMALL_TETRAHEDRA, seed=st.integers(0, 10**6))
@settings(max_examples=100, deadline=None)
def test_has_interior_point_is_unimodular_invariant(tet, seed):
    """On images under products of three random unimodular maps, whose
    coordinates run to the thousands and beyond, the answer is the box
    scan's of the small preimage."""
    rng = random.Random(seed)
    image = tet
    for _ in range(3):
        m = random_unimodular(rng, 10**6)
        image = [m.apply(p) for p in image]
    expected = _brute_force_has_interior_point(tet)
    assert has_interior_point(*image) == expected
    assert _level_test(image) in (None, expected)


def test_tetrahedra_of_volume_below_four_have_no_interior_point():
    """The early exit of has_interior_point: no tetrahedron of normalized
    volume 1, 2 or 3 among 400 random small ones holds a lattice point
    strictly inside, by the box scan."""
    rng = random.Random(4)
    seen = Counter()
    while sum(seen.values()) < 400:
        tet = [tuple(rng.randrange(-3, 4) for _ in range(3)) for _ in range(4)]
        volume = abs(det4(*tet))
        if 0 < volume < 4:
            seen[volume] += 1
            assert not _brute_force_has_interior_point(tet), tet
    assert set(seen) == {1, 2, 3}


def test_signature_41_bases_have_an_interior_point():
    """Each of the eight catalog41() bases is a tetrahedron on p2..p5 with
    the lattice point p1 strictly inside, at normalized volumes 4 to 20."""
    bases = [cls5.representative.points for cls5 in catalog41()]
    assert sorted(abs(det4(*pts[1:])) for pts in bases) == [4, 5, 7, 11, 13, 17, 19, 20]
    for pts in bases:
        assert has_interior_point(*pts[1:])
        assert _brute_force_has_interior_point(pts[1:])


def test_extension_tables_match_quad_volumes():
    """PointConfig._extended gives the volume table quad_volumes computes:
    for bases of four, five and seven points, with the new point last
    (Extension(base)), at seeded points of a box, coplanar ones among
    them.  A point past the coordinate bound, or one of the base's, is
    refused as PointConfig refuses it."""
    rng = random.Random(48)
    base5 = catalog41()[2].representative
    bases = [UNIT, base5, PointConfig([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1),
                                       (1, 1, 0), (1, 0, 1), (0, 1, 1)])]
    tables = [(base, Extension(base)) for base in bases]
    zero = 0
    for base, ext in tables:
        assert ext.points == base.points
        for _ in range(40):
            p = tuple(rng.randint(-3, 3) for _ in range(3))
            if p in base.points:
                continue
            cfg = PointConfig._extended(ext, p)
            assert cfg.points == base.points + (p,)
            assert cfg.volumes() == quad_volumes(cfg.points), (base, p)
            zero += 0 in cfg.volumes()
    assert zero > 0
    with pytest.raises(ValueError, match="exceeds bound"):
        PointConfig._extended(tables[1][1], (10**4 + 1, 0, 0))
    with pytest.raises(ValueError, match="distinct"):
        PointConfig._extended(tables[1][1], base5.points[3])
