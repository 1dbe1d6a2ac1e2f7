"""Z-equivalence witnesses and canonical keys."""

import itertools
import random

from hypothesis import given, settings, strategies as st

import fraction_oracles
from conftest import APEX31_BASE, apply_map, count_calls, random_unimodular, shuffled, sporadic5
from emptytetra_oracles import standard_tetrahedron
from equivalence_oracles import all_orders_normal_form, canonical_key, key_orders
from lattice6.equivalence import (
    _least_orders, normal_form, _table, equivalence_witness,
)
from lattice6.exactlinalg import det4, edge_form
from lattice6.invariants import volume_vector5, volume_vector6
from lattice6.polytope import PointConfig
from lattice6.size5 import catalog41, rep32
from table_checks import GCD_EXCEPTIONS


def check_witness(a, b, witness):
    perm, m = witness
    assert m.det in (1, -1)
    assert sorted(perm) == list(range(len(a.points)))
    for i, p in enumerate(a.points):
        assert m.apply(p) == b.points[perm[i]]


def test_reflexive(bundle):
    c = bundle.rows_by_id["A.1"].config()
    w = equivalence_witness(c, c)
    assert w is not None
    check_witness(c, c, w)


def test_reversal_is_equivalent(bundle):
    c = bundle.rows_by_id["A.1"].config()
    r = PointConfig(list(c.points)[::-1])
    w = equivalence_witness(c, r)
    assert w is not None
    check_witness(c, r, w)


def test_distinct_classes_are_inequivalent(bundle):
    b3 = bundle.rows_by_id["B.3"].config()
    b4 = bundle.rows_by_id["B.4"].config()
    assert equivalence_witness(b3, b4) is None
    assert canonical_key(b3) != canonical_key(b4)


def test_white_tetrahedra_with_inverse_parameters():
    a = PointConfig(standard_tetrahedron(2, 7))
    b = PointConfig(standard_tetrahedron(4, 7))
    w = equivalence_witness(a, b)
    assert w is not None
    check_witness(a, b, w)


def test_mismatched_sizes_are_inequivalent(bundle):
    c = bundle.rows_by_id["A.1"].config()
    assert equivalence_witness(c, PointConfig(c.points[:5])) is None
    # A.1's first five points are coplanar, so the last five carry a key
    assert canonical_key(c) != canonical_key(PointConfig(c.points[1:]))


def test_equal_volume_vectors_do_not_imply_equivalence():
    """Five-point exception: same volume vector, different polytopes."""
    a = PointConfig(APEX31_BASE + [(1, 2, 3)])
    b = PointConfig(APEX31_BASE + [(0, 0, 3)])
    assert volume_vector5(a) == volume_vector5(b)
    assert canonical_key(a) != canonical_key(b)


@given(seed=st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_random_images_are_equivalent(seed):
    from lattice6.tablesdata import load_tables

    rng = random.Random(seed)
    bundle = load_tables()
    c = bundle.rows_by_id[rng.choice(["A.2", "B.9", "D.2", "E.1", "F.12", "G.17", "H.5"])].config()
    img = shuffled(rng, apply_map(random_unimodular(rng), c))
    w = equivalence_witness(c, img)
    assert w is not None
    check_witness(c, img, w)


def test_witness_is_checked_not_read_off_the_key(monkeypatch):
    """With every least table made equal, equivalence_witness still
    returns None when the map between least-table orders is not
    unimodular or does not send a onto b."""
    import lattice6.equivalence as equivalence

    monkeypatch.setattr(PointConfig, "top_volume", lambda c: 1)
    monkeypatch.setattr(equivalence, "_least_orders", lambda c, top: ((), [(0, 1, 2, 3)]))
    tet = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert equivalence_witness(PointConfig(tet), PointConfig(tet[:3] + [(1, 1, 2)])) is None
    a = PointConfig(tet + [(1, 1, 1)])
    assert equivalence_witness(a, PointConfig(tet + [(2, 2, 2)])) is None
    assert equivalence_witness(a, a)[0] == (0, 1, 2, 3, 4)


def test_canonical_key_is_invariant(bundle):
    rng = random.Random(11)
    for cid in ("A.1", "C.3", "G.20"):
        c = bundle.rows_by_id[cid].config()
        key = canonical_key(c)
        img = shuffled(rng, apply_map(random_unimodular(rng), c))
        assert canonical_key(img) == key


#: The 15 index quadruples of a six-point volume vector, in its order.
QUADS6 = tuple(itertools.combinations(range(6), 4))


def _min_volume_vector(config):
    """Least signed volume vector of six points over the 720 relabelings
    and their negations, so a unimodular invariant of the configuration."""
    pts = config.points
    det = {q: det4(*(pts[i] for i in q)) for q in itertools.permutations(range(6), 4)}
    vectors = []
    for perm in itertools.permutations(range(6)):
        vv = tuple(det[tuple(perm[i] for i in q)] for q in QUADS6)
        vectors += [vv, tuple(-w for w in vv)]
    return min(vectors)


def test_table_keys_are_pairwise_distinct(bundle):
    """The 76 rows have distinct keys, and already distinct minimal
    volume vectors."""
    keys = {canonical_key(row.config()) for row in bundle.class_rows}
    assert len(keys) == 76
    assert len({_min_volume_vector(row.config()) for row in bundle.class_rows}) == 76


def test_flagged_keys_confirmed_by_search(bundle):
    """The rows whose volume vector has gcd > 1, where the vector alone is
    not a complete invariant, have distinct keys and are pairwise
    inequivalent by the per-permutation search."""
    ids = sorted(GCD_EXCEPTIONS)
    for i, a in enumerate(ids):
        ca = bundle.rows_by_id[a].config()
        for b in ids[i + 1:]:
            cb = bundle.rows_by_id[b].config()
            assert canonical_key(ca) != canonical_key(cb), (a, b)
            assert fraction_oracles.equivalence_witness(ca, cb) is None, (a, b)


def test_sibling_keys_differ(bundle):
    c2 = canonical_key(bundle.rows_by_id["C.2"].config())
    c3 = canonical_key(bundle.rows_by_id["C.3"].config())
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


#: The maximal |det4| = 18 is reached by two quadruples, and the key only
#: through orders of the second one.
SECOND_QUAD_WINS = PointConfig(
    [(-2, 0, 2), (-1, -1, 2), (0, -2, 2), (0, 1, 2), (2, -1, -1), (2, 0, -1)]
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

CUBE = PointConfig([(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)])
LIFTED_CUBE = PointConfig(CUBE.points[:7] + ((1, 1, 2),))

#: Three collinear points first: the first independent quadruple is not 0-3.
COLLINEAR_FIRST = PointConfig([(0, 0, 0), (1, 0, 0), (2, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 2)])


#: Pairs of rows with the same least table off the quadruple,
#: ((1,1,1), (2,2,2)), ((1,1,2), (2,2,4)) and ((1,2,3), (2,4,6)), and
#: different maximal |volume|: inequivalent.
SHARED_LEAST_TABLE = [("F.1", "F.3"), ("F.2", "F.5"), ("F.4", "F.6")]


def _rows(bundle, id_pairs):
    return [(bundle.rows_by_id[x].config(), bundle.rows_by_id[y].config()) for x, y in id_pairs]


def _with_extra_points(rng, config, k):
    pts = list(config.points)
    while len(pts) < len(config) + k:
        p = tuple(rng.randrange(-3, 4) for _ in range(3))
        if p not in pts:
            pts.append(p)
    return PointConfig(pts)


def _image(rng, config):
    return shuffled(rng, apply_map(random_unimodular(rng), config))


def _abs_volumes(config):
    return sorted(abs(det4(*q)) for q in itertools.combinations(config.points, 4))


def test_key_equality_matches_witness_search(bundle):
    """canonical_key is complete and equivalence_witness finds the first
    valid permutation: on every pair, the keys agree exactly when the
    Fraction per-permutation search finds a map, and the two witnesses
    are equal.  The pairs have 4 to 8 points: relabeled unimodular images
    (the cube has 48 witnesses), table rows whose |volume| multisets
    agree, inputs with many tied maximal |volumes| (HIGH_TIE has six or
    more, SECOND_QUAD_WINS reaches its key only through the second of its
    two; both are checked in test_canonical_key_matches_full_search),
    pairs with equal volume vectors, and rows that share the least table
    off the quadruple (SHARED_LEAST_TABLE).  The halved pairs, the White
    tetrahedra T(1,5) and T(2,5) and the two APEX31_BASE inputs share the
    key's table and differ in H, so equivalence_witness decides them by
    unimodular_map alone."""
    rng = random.Random(5)
    rows = [row.config() for row in bundle.class_rows]
    pairs = [(c, _image(rng, c)) for c in rows]
    pairs += [(pairs[i][0], pairs[i + 1][1]) for i in range(0, len(pairs) - 1, 3)]
    pairs += _rows(bundle, [("G.5", "G.12"), ("G.6", "G.9")])
    example = PointConfig([(-2, -2, 2), (0, 2, -1), (0, 2, 1), (2, 0, 1), (2, 1, -2), (4, -1, 0)])
    halved = [(x, _halved(x)) for x in [example] + [_random_even_config(rng) for _ in range(40)]]
    halved += [(x, _image(rng, y)) for x, y in halved[:10]]
    for x, y in halved:
        assert _min_volume_vector(x) == _min_volume_vector(y)
    pairs += halved
    tied = HIGH_TIE + [SECOND_QUAD_WINS]
    pairs += [(c, _image(rng, c)) for c in tied + [COLLINEAR_FIRST]] + list(zip(tied, tied[1:]))
    tetrahedra = [PointConfig(standard_tetrahedron(p, q)) for p, q in ((2, 7), (4, 7), (1, 5), (2, 5))]
    pairs += [(tetrahedra[0], tetrahedra[1]), (tetrahedra[2], tetrahedra[3]),
              (tetrahedra[3], _image(rng, tetrahedra[3]))]
    sporadic41 = [cls.representative for cls in catalog41()]
    pairs += [(PointConfig(APEX31_BASE + [(1, 2, 3)]), PointConfig(APEX31_BASE + [(0, 0, 3)])),
              (rep32(2, 5), rep32(1, 6)),
              (sporadic41[3], _image(rng, sporadic41[3])), (sporadic41[3], sporadic41[4])]
    seven = [_with_extra_points(rng, c, 1) for c in (rows[3], rows[40], COLLINEAR_FIRST)]
    pairs += [(c, _image(rng, c)) for c in seven] + [(seven[0], seven[1])]
    pairs += [(CUBE, _image(rng, CUBE)), (CUBE, _image(rng, CUBE)), (CUBE, LIFTED_CUBE)]
    pairs += _rows(bundle, SHARED_LEAST_TABLE)
    outcomes = set()
    for a, b in pairs:
        expected = fraction_oracles.equivalence_witness(a, b)
        assert (canonical_key(a) == canonical_key(b)) == (expected is not None), (a, b)
        assert equivalence_witness(a, b) == expected, (a, b)
        outcomes.add((len(a), expected is not None))
    assert outcomes == {(n, e) for n in range(4, 9) for e in (True, False)}


@given(seed=st.integers(0, 10**6), extra=st.sampled_from([0, 1, 2]))
@settings(max_examples=20, deadline=None)
def test_witness_matches_per_permutation_search(seed, extra):
    """Same witness (first valid permutation and its map) as the Fraction
    per-permutation search, on 6-, 7- and 8-point images."""
    from lattice6.tablesdata import load_tables

    rng = random.Random(seed)
    c = _with_extra_points(rng, rng.choice(load_tables().class_rows).config(), extra)
    img = shuffled(rng, apply_map(random_unimodular(rng), c))
    w = equivalence_witness(c, img)
    assert w == fraction_oracles.equivalence_witness(c, img)
    check_witness(c, img, w)


def test_witness_matches_oracle_on_symmetric_and_degenerate_inputs(bundle):
    """Many valid permutations (a cube), an independent quadruple that is
    not 0,1,2,3 (three collinear points first), inequivalent pairs that
    share the multiset of volumes, rows that share the least table off
    the quadruple (SHARED_LEAST_TABLE), and an inequivalent pair that
    shares the key's table and differs in H (a halved pair)."""
    rng = random.Random(3)
    pairs = [(CUBE, _image(rng, CUBE)), (COLLINEAR_FIRST, _image(rng, COLLINEAR_FIRST))]
    pairs += _rows(bundle, [("G.5", "G.12"), ("G.6", "G.9")])
    pairs += _rows(bundle, SHARED_LEAST_TABLE)
    example = PointConfig([(-2, -2, 2), (0, 2, -1), (0, 2, 1), (2, 0, 1), (2, 1, -2), (4, -1, 0)])
    pairs.append((example, _halved(example)))
    for a, b in pairs:
        assert equivalence_witness(a, b) == fraction_oracles.equivalence_witness(a, b)
    for a, b in _rows(bundle, SHARED_LEAST_TABLE) + pairs[-1:]:
        assert equivalence_witness(a, b) is None
        assert _least_orders(a, a.top_volume())[0] == _least_orders(b, b.top_volume())[0]
        assert canonical_key(a) != canonical_key(b)


def _spanning_sets(rng, count, size=6):
    """Random sets of size points in [-2,2]^3 that span 3-space."""
    while count:
        pts = sorted({tuple(rng.randrange(-2, 3) for _ in range(3)) for _ in range(size)})
        if len(pts) == size and _abs_volumes(PointConfig(pts))[-1]:
            count -= 1
            yield PointConfig(pts)


def _full_search_normal_form(config):
    """The key and its orders by brute force: (table, H) for every ordered
    quadruple of maximal |volume|, with Fraction barycentric coordinates."""
    pts = config.points
    top = _abs_volumes(config)[-1]
    forms = {}
    for quad in itertools.combinations(range(len(pts)), 4):
        simplex = [pts[i] for i in quad]
        if abs(det4(*simplex)) != top:
            continue
        coords = [[c * top for c in fraction_oracles._solve_barycentric(p, simplex)] for p in pts]
        assert all(c.denominator == 1 for row in coords for c in row), (config.points, quad)
        for order in itertools.permutations(range(4)):
            table = sorted(tuple(int(row[i]) for i in order[1:]) for row in coords)
            labels = tuple(quad[i] for i in order)
            forms[labels] = (tuple(table), edge_form([pts[i] for i in labels]))
    key = min(forms.values())
    return key, sorted(order for order, form in forms.items() if form == key)


def test_canonical_key_matches_full_search(bundle):
    """The pruned search (a table only for the orders that can reach the
    least first row off the quadruple, a Hermite form only for the orders
    whose table is least: normal_form's key, with the key orders that
    key_orders lists from the same least-table orders) returns the
    unpruned search's key and key orders,
    in the same order, and the full search's key and key orders, on the
    rows, relabeled unimodular images of them, random spanning sets of 6
    to 8 points, inputs with many tied |volumes|, one whose key needs the
    later of two tied quadruples, and 4- and 5-point inputs.  The White
    tetrahedra have no point off the quadruple, so all 24 orders stay
    candidates.  Several orders, points or quadruples reach the least first
    row of the 24-automorphism (4,1) base (one point, 24 orders), the (2,2)
    size-5 row and the octahedron (several quadruples)."""
    rng = random.Random(13)
    rows = [row.config() for row in bundle.class_rows]
    inputs = rows + [_image(rng, c) for c in rows]
    for size, count in ((6, 120), (7, 20), (8, 10)):
        inputs += list(_spanning_sets(rng, count, size))
    inputs += HIGH_TIE + [SECOND_QUAD_WINS, COLLINEAR_FIRST, CUBE, LIFTED_CUBE]
    tetrahedra = [PointConfig(standard_tetrahedron(p, q))
                  for p, q in ((0, 1), (1, 2), (1, 3), (2, 5), (2, 7), (3, 8))]
    size5 = [PointConfig(r["representative"]) for r in bundle.size5_rows
             if "representative" in r]
    inputs += tetrahedra + size5 + [_image(rng, c) for c in tetrahedra + size5]
    for c in HIGH_TIE:
        assert _abs_volumes(c)[-6] == _abs_volumes(c)[-1], c.points
    pts = SECOND_QUAD_WINS.points
    top = [q for q in itertools.combinations(range(6), 4)
           if abs(det4(*(pts[i] for i in q))) == _abs_volumes(SECOND_QUAD_WINS)[-1]]
    assert len(top) == 2
    assert {tuple(sorted(order)) for order in key_orders(SECOND_QUAD_WINS)[1]} == {top[1]}
    assert len(key_orders(catalog41()[0].representative)[1]) == 24
    for c in (sporadic5((2, 2), 1), HIGH_TIE[0]):
        assert len({frozenset(order) for order in key_orders(c)[1]}) > 1, c.points
    for c in inputs:
        key, orders = key_orders(c)
        assert normal_form(c) == key, c.points
        assert (key, orders) == all_orders_normal_form(c), c.points
        assert (key, sorted(orders)) == _full_search_normal_form(c), c.points


def test_normal_form_tables_are_pinned(bundle, monkeypatch):
    """normal_form sorts a table only for the orders that can reach the
    least one: 224 tables over the 76 rows, where the unpruned search
    builds 24 per maximal quadruple, 2,160."""
    rows = [row.config() for row in bundle.class_rows]
    quads = 0
    for c in rows:
        vols = [abs(v) for v in c.volumes()[:len(c.volumes()) // 2]]
        quads += vols.count(max(vols))
    assert 24 * quads == 2160
    calls = count_calls(monkeypatch, _table)
    for c in rows:
        normal_form(c)
    assert calls == {"_table": 224}
