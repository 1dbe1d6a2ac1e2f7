"""Volume vectors, width, circuits, coplanarity classes and the dps test."""

import itertools
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

import fraction_oracles
from conftest import apply_map, random_unimodular, shuffled, sporadic5
from lattice6 import invariants
from lattice6.invariants import (
    C21,
    C22,
    C31,
    FIVE_COPLANAR,
    NO_COPLANARITY,
    WrongSize,
    _target_rows,
    circuits,
    coplanarity_class,
    least_functionals,
    pair_sums_distinct,
    signature5,
    volume_vector5,
    volume_vector6,
    width,
)
from lattice6.exactlinalg import COORD_BOUND, det3, det4, dot, sub
from lattice6.polytope import NotFullDimensional, PointConfig, hull_summary, lattice_points
from lattice6.size5 import rep32
from width_oracles import shell, shell_least_functionals, shell_width

VV_A1 = (0, 0, 2, 0, 0, 4, 0, 2, 0, -4, 0, 4, -2, -8, -2)
VV_H12 = (-5, 2, -11, -3, -1, 7, 1, 2, -3, 1, 11, -3, -23, -4, 5)


def test_volume_vector6_frozen_values(bundle):
    assert volume_vector6(bundle.rows_by_id["A.1"].config()) == VV_A1
    assert volume_vector6(bundle.rows_by_id["H.12"].config()) == VV_H12


def test_volume_vector6_matches_table_up_to_orientation(bundle):
    """The printed vectors fix one of the two orientation signs per class."""
    for row in bundle.class_rows:
        got = volume_vector6(row.config())
        assert got in (row.volume_vector, tuple(-x for x in row.volume_vector)), row.id


def test_first_entry_vanishes_iff_first_quadruple_coplanar():
    c = PointConfig([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1), (1, 1, 1)])
    vv = volume_vector6(c)
    assert vv[0] == 0


def test_volume_vector5_example():
    assert volume_vector5(sporadic5((2, 2), 1)) == (-1, 1, 1, -1, 0)


def test_volume_vector5_parametric_row():
    assert volume_vector5(rep32(2, 3)) == (5, -2, -3, -1, 1)
    assert volume_vector5(rep32(1, 1)) == (2, -1, -1, -1, 1)


points5 = st.lists(
    st.tuples(st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4)),
    min_size=5, max_size=5, unique=True,
)


@given(pts=points5)
@settings(max_examples=80)
def test_volume_vector5_entries_sum_to_zero(pts):
    c = PointConfig(pts)
    try:
        vv = volume_vector5(c)
    except Exception:
        return  # degenerate draws are out of scope
    assert sum(vv) == 0


def test_signature5():
    assert signature5(rep32(2, 3)) == (3, 2)
    assert signature5(sporadic5((2, 2), 1)) == (2, 2)


def test_width_examples(bundle):
    w, f = width(PointConfig([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]))
    assert w == 1
    for cid, expected in (("A.1", 2), ("C.3", 3), ("H.12", 3), ("G.1", 2)):
        c = bundle.rows_by_id[cid].config()
        w, f = width(c)
        assert w == expected
        spread = [sum(a * b for a, b in zip(f, p)) for p in c.points]
        assert max(spread) - min(spread) == expected


def test_table_functional_achieves_table_width(bundle):
    for row in bundle.class_rows:
        c = row.config()
        vals = [sum(a * b for a, b in zip(row.functional, p)) for p in c.points]
        assert max(vals) - min(vals) == row.width, row.id
        assert width(c)[0] == row.width, row.id


def _width_all_targets(config):
    """Width and witness by the unpruned search.  On the differences d_k
    from the first point of any independent quadruple, a functional of
    range W takes values in [-W, W]; so solving d_k . f = t_k for every
    t in [-W, W]^3 finds all of them, and the witness is the least one
    with its leading coefficient made positive."""
    pts = config.points
    q = [pts[i] for i in fraction_oracles.independent_quadruple(config)]
    d = [sub(p, q[0]) for p in q[1:]]
    D = det3(*d)
    for W in itertools.count(1):
        found = []
        for t in itertools.product(range(-W, W + 1), repeat=3):
            # Cramer's rule: column i of the rows d_k replaced by t
            num = [det3(*(r[:i] + (tk,) + r[i + 1:] for r, tk in zip(d, t))) for i in range(3)]
            if t == (0, 0, 0) or any(v % D for v in num):
                continue
            f = tuple(v // D for v in num)
            values = [sum(a * b for a, b in zip(f, p)) for p in pts]
            if max(values) - min(values) == W:
                found.append(f if next(v for v in f if v) > 0 else tuple(-v for v in f))
        if found:
            return W, min(found)


def _far_image(rng, config):
    """A relabeled unimodular image of config, translated so that its
    largest coordinates lie just under the bound 10^4."""
    while True:
        linear = random_unimodular(rng).matrix
        pts = [tuple(dot(row, p) for row in linear) for p in config.points]
        shift = [COORD_BOUND - 1 - max(p[i] for p in pts) for i in range(3)]
        far = [tuple(c + d for c, d in zip(p, shift)) for p in pts]
        if all(abs(c) <= COORD_BOUND for p in far for c in p):
            return shuffled(rng, PointConfig(far))


def _random_sets(rng, radii, count):
    """count full-dimensional sets of 4-8 distinct points of [-r, r]^3 per
    radius r."""
    for r in radii:
        made = 0
        while made < count:
            pts = list({tuple(rng.randint(-r, r) for _ in range(3)) for _ in range(rng.randrange(4, 9))})
            if len(pts) >= 4 and PointConfig(pts).is_full_dimensional():
                made += 1
                yield PointConfig(pts)


def test_width_matches_all_target_search(bundle):
    """The walk over the target lattice keeps the width and the witness of
    the shell scan it replaced and of the unpruned search: the rows, k
    times the standard simplex plus (1,1,1) for k = 4..8 (width k, so many
    passes), unimodular images of both, near the origin and near the
    coordinate bound, and random 4-8 point sets.  3,000 more random sets
    are checked against the shell scan in
    test_least_functionals_match_the_shell_scan."""
    rng = random.Random(17)
    rows = [row.config() for row in bundle.class_rows]
    simplices = [PointConfig([(0, 0, 0), (k, 0, 0), (0, k, 0), (0, 0, k), (1, 1, 1)])
                 for k in range(4, 9)]
    randoms = list(_random_sets(rng, (3,), 80))
    images = [shuffled(rng, apply_map(random_unimodular(rng), c)) for c in rows[::4] + simplices]
    far = [_far_image(rng, c) for c in rows[::8] + simplices]
    for c in rows + simplices + images + far + randoms:
        assert width(c) == shell_width(c) == _width_all_targets(c), c.points
    assert [width(c)[0] for c in simplices] == [4, 5, 6, 7, 8]


def test_least_functionals_match_the_shell_scan(bundle):
    """The walk of width collects every functional of least range
    (least_functionals), sign-normalized and in ascending order, as the
    shell scan finds them, and width returns the least of them, the
    witness of shell_width: on the 76 rows, three seeded
    relabeled unimodular images of each, and 3,000 random sets, 1,000 in
    each of [-r, r]^3 for r = 2, 3, 5.  Many have more than one."""
    rng = random.Random(55)
    rows = [row.config() for row in bundle.class_rows]
    images = [shuffled(rng, apply_map(random_unimodular(rng), c)) for c in rows for _ in range(3)]
    several = 0
    for c in rows + images + list(_random_sets(random.Random(36), (2, 3, 5), 1000)):
        w, least = shell_least_functionals(c)
        assert least_functionals(c) == (w, least), c.points
        assert width(c) == (w, least[0]), c.points
        several += len(least) > 1
    assert several > 1000, several


@pytest.mark.parametrize("s", range(1, 9))
def test_shell_is_the_targets_of_one_spread(s):
    cube = itertools.product(range(-s, s + 1), repeat=3)
    expected = sorted(t for t in cube if max(0, *t) - min(0, *t) == s)
    got = list(shell(s))
    assert len(set(got)) == len(got)
    assert sorted(got) == expected


@pytest.mark.parametrize("basis", [
    ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
    ((2, 1, 3), (0, 3, 2), (0, 0, 5)),
    ((1, 0, 4), (0, 1, 7), (0, 0, 9)),
    ((3, 2, 1), (0, 1, 0), (0, 0, 2)),
])
@pytest.mark.parametrize("s", range(1, 8))
def test_target_rows_are_the_lattice_targets_of_spread_at_most_s(basis, s):
    """Each nonzero lattice target of spread <= s, of t and -t the one
    whose first nonzero entry is positive, once."""
    (a, b, e), (_, c, h), (_, _, g) = basis

    def in_lattice(t):
        u1, r1 = divmod(t[0], a)
        u2, r2 = divmod(t[1] - u1 * b, c)
        return not r1 and not r2 and (t[2] - u1 * e - u2 * h) % g == 0

    got = [(t1, t2, t3) for t1, t2, _, _, t3s in _target_rows(basis, s) for t3 in t3s]
    expected = sorted(t for t in itertools.product(range(-s, s + 1), repeat=3)
                      if 0 < max(0, *t) - min(0, *t) <= s and next(v for v in t if v) > 0
                      and in_lattice(t))
    assert len(set(got)) == len(got)
    assert sorted(got) == expected


def _counted_rows(monkeypatch):
    """Wrap invariants._target_rows; returns [rows, targets] visited."""
    counts = [0, 0]
    rows = invariants._target_rows

    def counted(basis, s):
        for row in rows(basis, s):
            counts[0] += 1
            counts[1] += len(row[-1])
            yield row

    monkeypatch.setattr(invariants, "_target_rows", counted)
    return counts


def test_width_work_is_pinned(bundle, monkeypatch):
    """Over the 76 rows, width visits 999 (u1, u2) rows and 250 targets,
    about 13 rows and 3.3 targets per call; the shell scan it replaced
    (width_oracles.shell_width) visits 5,084 targets on the same rows."""
    counts = _counted_rows(monkeypatch)
    for row in bundle.class_rows:
        width(row.config())
    assert counts == [999, 250]


def test_width_reads_the_first_quadruple_of_maximal_volume(monkeypatch):
    """width walks the target lattice of the first quadruple, in
    combinations order, whose |volume| is maximal, whatever its sign: on
    seeded random sets, the edge matrix it hands hermite_normal_form is
    that quadruple's, also where a later quadruple has the opposite sign."""
    seen = []
    hnf = invariants.hermite_normal_form
    monkeypatch.setattr(invariants, "hermite_normal_form", lambda rows: seen.append(rows) or hnf(rows))
    rng = random.Random(38)
    box = list(itertools.product(range(-2, 3), repeat=3))
    both_signs = 0
    for _ in range(300):
        c = PointConfig(rng.sample(box, rng.randint(5, 8)))
        vols = {q: det4(*(c[i] for i in q)) for q in itertools.combinations(range(len(c)), 4)}
        top = max(map(abs, vols.values()))
        if top == 0:
            continue
        quad = next(q for q, v in vols.items() if abs(v) == top)
        both_signs += -vols[quad] in vols.values()
        seen.clear()
        width(c)
        assert seen == [tuple(zip(*(sub(c[i], c[quad[0]]) for i in quad[1:])))], c
    assert both_signs > 20


@pytest.mark.parametrize("points, expected, work", [
    # conv(0, 10^4 e_i): the shell scan did not finish in 5 s
    ([(0, 0, 0), (10000, 0, 0), (0, 10000, 0), (0, 0, 10000)], (10000, (0, 0, 1)), [18, 7]),
    # the needle
    ([(0, 0, 0), (1, 0, 0), (0, 1, 0), (10000, 10000, 9999)], (1, (0, 1, -1)), [4, 2]),
    # the thin hull of volume 199,960,000
    ([(0, 0, 0), (9999, 10000, 0), (-9999, -10000, 0), (0, 0, 1), (1, 10000, 1)],
     (1, (0, 0, 1)), [2, 1]),
], ids=["dilated-simplex", "needle", "thin-hull"])
def test_width_at_the_coordinate_bound_is_pinned(points, expected, work, monkeypatch):
    """Width, witness and [rows, targets] visited, on inputs at the
    coordinate bound."""
    counts = _counted_rows(monkeypatch)
    assert width(PointConfig(points)) == expected
    assert counts == work


def test_interior_point_forces_width_two(bundle):
    for row in bundle.class_rows:
        c = row.config()
        if hull_summary(c)[1]:
            assert width(c)[0] >= 2, row.id


def test_is_dps(bundle):
    assert not pair_sums_distinct(lattice_points(bundle.rows_by_id["A.1"].config()))
    assert pair_sums_distinct(lattice_points(bundle.rows_by_id["G.1"].config()))


def test_dps_iff_no_proper_coplanarity(bundle):
    """A configuration is dps exactly when no circuit is of type (2,1) or (2,2)."""
    for row in bundle.class_rows:
        c = row.config()
        kinds = {
            (len(circ.positive), len(circ.negative))
            for circ in circuits(c)
        }
        bad = any(sorted(k) in ([1, 2], [2, 2]) for k in kinds)
        assert pair_sums_distinct(lattice_points(c)) == (not bad), row.id


def test_circuit_counts(bundle):
    assert len(circuits(bundle.rows_by_id["A.1"].config())) == 3
    assert len(circuits(bundle.rows_by_id["D.1"].config())) == 5
    g1 = circuits(bundle.rows_by_id["G.1"].config())
    assert len(g1) == 6
    assert all(len(c.positive) + len(c.negative) == 5 for c in g1)


def test_circuit_count_matches_catalog_label(bundle):
    for row in bundle.class_rows:
        assert len(circuits(row.config())) == int(row.om_label.split(".")[0]), row.id


def test_circuits_match_oracle_on_table_rows(bundle):
    for row in bundle.class_rows:
        c = row.config()
        assert circuits(c) == fraction_oracles.circuits(c), row.id


@given(seed=st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_circuits_match_oracle_on_unimodular_images(seed):
    from lattice6.tablesdata import load_tables

    rng = random.Random(seed)
    c = rng.choice(load_tables().class_rows).config()
    img = shuffled(rng, apply_map(random_unimodular(rng), c))
    assert circuits(img) == fraction_oracles.circuits(img)


@given(pts=st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2), st.integers(-2, 2)),
                    min_size=4, max_size=8, unique=True))
@settings(max_examples=60, deadline=None)
def test_circuits_match_oracle_on_small_configurations(pts):
    """4 to 8 points in a small box: many collinear and coplanar subsets."""
    c = PointConfig(pts)
    assume(c.is_full_dimensional())
    assert circuits(c) == fraction_oracles.circuits(c)


def test_circuits_need_full_dimension():
    flat = PointConfig([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (2, 1, 0), (0, 3, 0)])
    with pytest.raises(NotFullDimensional):
        circuits(flat)
    assert coplanarity_class(flat) == FIVE_COPLANAR


def test_coplanarity_classes(bundle):
    get = lambda cid: coplanarity_class(bundle.rows_by_id[cid].config())
    assert get("A.2") == FIVE_COPLANAR
    assert get("B.1") == C31
    assert get("D.1") == C22
    assert get("E.1") == C22
    assert get("F.1") == C21
    assert get("H.3") == NO_COPLANARITY


def test_coplanarity_requires_six_points():
    with pytest.raises(WrongSize):
        coplanarity_class(sporadic5((2, 2), 1))


@given(seed=st.integers(0, 10**6))
@settings(max_examples=50, deadline=None)
def test_volume_vector_flips_sign_with_orientation(seed):
    from lattice6.tablesdata import load_tables

    rng = random.Random(seed)
    row = rng.choice(load_tables().class_rows)
    c = row.config()
    m = random_unimodular(rng)
    got = volume_vector6(apply_map(m, c))
    expected = volume_vector6(c)
    if m.det == -1:
        expected = tuple(-x for x in expected)
    assert got == expected


@given(seed=st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_width_and_dps_are_invariants(seed):
    from lattice6.tablesdata import load_tables

    rng = random.Random(seed)
    row = rng.choice(load_tables().class_rows)
    c = shuffled(rng, apply_map(random_unimodular(rng), row.config()))
    assert width(c)[0] == row.width
    assert pair_sums_distinct(lattice_points(c)) == row.dps
    assert coplanarity_class(c) == coplanarity_class(row.config())
