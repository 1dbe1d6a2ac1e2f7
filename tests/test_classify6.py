"""The case-by-case classification drivers and their reports."""

import dataclasses
import hashlib
import json
import random
import re
import types
from collections import Counter
from itertools import combinations, permutations, product
from operator import add

import pytest

from conftest import SIZE7_IN_GATE, apply_map, count_calls, random_unimodular, shuffled, sporadic5
from lattice6 import classify6, equivalence
from lattice6.classify6 import (
    BadParameters,
    export_csv,
    export_json,
    identify,
    width1_family,
)
from lattice6.emptytetra import (
    _facet_frame,
    _framed_empty,
    _framed_has_interior_point,
    _ordered_key,
    white_type,
)
from lattice6.equivalence import _least_orders, _profile, _table, normal_form, symmetries
from lattice6.exactlinalg import (
    COORD_BOUND,
    AffineMap,
    check_point,
    det4,
    edge_form,
    quad_volumes,
    unimodular_map,
)
from lattice6.invariants import (
    C21,
    NO_COPLANARITY,
    circuits,
    coplanarity_from_circuits,
    pair_sums_distinct,
    volume_vector6,
    width,
)
from lattice6.omcatalog import chirotope, match_circuits
from lattice6.polytope import (Extension, PointConfig, _placing, hull_facets, hull_summary,
                               lattice_points, size)
from lattice6.size5 import catalog41
from cap_oracles import caps_by_frames
from emptytetra_oracles import is_empty_by_edges
from equivalence_oracles import (all_orders_normal_form as oracle_normal_form, key_named_row,
                                 row_key_index)
from omcatalog_oracles import chirotope_orbit, match_om
from table_checks import key_candidates, no_octahedron_check

EXPECTED_COUNTS = {"A": 2, "B": 15, "C": 6, "D": 2, "E": 2, "F": 17, "G": 20, "H": 12}
EXPECTED_EXAMINED = {"A": 6, "B": 5043, "C": 596, "D": 1681, "E": 192,
                     "F": 160, "G": 24576, "H": 24576}


def by_case(case_reports):
    reports, _ = case_reports
    return {r.case: r for r in reports}


def test_case_order_and_counts(case_reports):
    reports, _ = case_reports
    assert [r.case for r in reports] == list("ABCDEFGH")
    for r in reports:
        assert len(r.classes_found) == EXPECTED_COUNTS[r.case], r.case
        assert r.candidates_examined == EXPECTED_EXAMINED[r.case], r.case


def test_found_ids_match_table(case_reports, bundle):
    table_ids = {row.case: [] for row in bundle.class_rows}
    for row in bundle.class_rows:
        table_ids[row.case].append(row.id)
    for case, r in by_case(case_reports).items():
        assert [c.id for c in r.classes_found] == table_ids[case]


def test_classes_carry_table_data(case_reports, bundle):
    for r in by_case(case_reports).values():
        for cls in r.classes_found:
            row = bundle.rows_by_id[cls.id]
            assert cls.om_label == row.om_label
            # the class carries the vector as computed from its representative,
            # which matches the printed one up to overall orientation sign
            assert cls.volume_vector in (
                row.volume_vector, tuple(-x for x in row.volume_vector))
            assert cls.volume_vector == volume_vector6(cls.representative)
            assert cls.width == row.width
            assert cls.functional == row.functional
            assert cls.dps == row.dps
            assert cls.generated is not None
            assert size(cls.generated) == 6


def test_named_rejection_reasons(case_reports):
    r = by_case(case_reports)
    assert r["A"].rejected["midpoint of p2p6 is integer"] == 3
    assert r["A"].rejected["midpoint of p4p6 is integer"] == 1
    assert r["C"].rejected["T3456 is not empty"] == 1
    assert r["D"].rejected["contains a (3,1) circuit"] == 1
    assert r["D"].rejected["width one (functional x+z)"] == 22
    assert r["B"].rejected["edge p5p6 is not primitive"] == 2
    assert r["G"].rejected["cut tetrahedron is not empty"] == 126
    assert r["H"].rejected["identification is not integral unimodular"] == 20844


def test_case_b_notes_record_raw_candidate_counts(case_reports):
    notes = by_case(case_reports)["B"].notes
    assert any("subcase (1,1): 10 raw candidates" in n for n in notes)
    assert any("subcase (1,3): 44 raw candidates" in n for n in notes)
    assert any("subcase (3,3): 18 raw candidates" in n for n in notes)


def test_gluing_cases_share_enumeration(case_reports):
    r = by_case(case_reports)
    assert r["G"].candidates_examined == r["H"].candidates_examined
    shared = "candidate enumeration shared with the other gluing case"
    assert shared in r["G"].notes and shared in r["H"].notes
    for reason in ("gluing yields fewer than six points", "coplanarity present",
                   "identification is not integral unimodular"):
        assert r["G"].rejected[reason] == r["H"].rejected[reason]


def test_gluing_funnel_is_pinned(case_reports):
    """The whole G/H candidate funnel, counter by counter: each visited
    hit's verdict counts with the size of its orbit."""
    r = by_case(case_reports)
    shared = {
        "identification is not integral unimodular": 20844,
        "gluing yields fewer than six points": 160,
        "coplanarity present": 924,
        "extra interior lattice point": 1461,
    }
    assert r["G"].rejected == {**shared, "cut tetrahedron is not empty": 126}
    assert r["H"].rejected == {**shared, "a triangulation tetrahedron is not empty": 260}
    assert r["G"].candidates_examined == r["H"].candidates_examined == 24576


def test_gluing_form_match_agrees_with_unimodular_map():
    """Every (source subtetrahedron, ordered target subtetrahedron) pair of
    the G/H loop: equal edge forms exactly when unimodular_map finds a map,
    and on each hit the barycentric image of the left-out vertex and the
    target's first point are that map's images of the left-out vertex and
    of the interior point."""
    sources = [
        (pts[0], pts[ex], [pts[v] for v in range(5) if v != ex])
        for pts in (cls5.representative.points for cls5 in catalog41())
        for ex in range(1, 5)
    ]
    targets = [[tet[t] for t in order] for *_, tet in sources for order in permutations(range(4))]
    target_forms = [edge_form(dst) for dst in targets]
    assert (len(sources), len(targets)) == (32, 768)
    hits = 0
    for interior, left_out, src in sources:
        form = edge_form(src)
        weights = [det4(*src[:t], left_out, *src[t + 1:]) for t in range(4)]
        for dst, dst_form in zip(targets, target_forms):
            m = unimodular_map(src, dst)
            assert (dst_form == form) == (m is not None), (src, dst)
            if m is not None:
                hits += 1
                image = classify6._barycentric_image(weights, det4(*src), dst, abs(det4(*dst)))
                assert image == m.apply(left_out)
                assert dst[0] == m.apply(interior)
    assert hits == 24576 - 20844 == 3732


#: A tetrahedron of volume 2 with the midpoint of its edge s0 s1 (weights
#: 1, 1, 0, 0 over volume 2).
_SRC2 = [(0, 0, 0), (2, 0, 0), (0, 1, 0), (0, 0, 1)]


def test_barycentric_image_places_the_midpoint():
    dst = [(0, 0, 0), (0, 0, 2), (1, 0, 0), (0, 1, 0)]
    for order in ((0, 1, 2, 3), (1, 0, 2, 3)):  # volume 2, then -2
        src = [_SRC2[t] for t in order]
        weights = [det4(*src[:t], (1, 0, 0), *src[t + 1:]) for t in range(4)]
        ordered = [dst[t] for t in order]
        image = classify6._barycentric_image(weights, det4(*src), ordered, abs(det4(*ordered)))
        assert image == (0, 0, 1)


@pytest.mark.parametrize("dst, message", [
    # volume 2, but the edge s0 s1 goes to a primitive edge: its midpoint
    # (1/2, 0, 0) is not a lattice point, so no integral map exists
    ([(0, 0, 0), (1, 0, 0), (0, 2, 0), (0, 0, 1)], "not a lattice point"),
    # volume 1: no unimodular map from a volume-2 tetrahedron
    ([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)], "different volumes"),
])
def test_barycentric_image_is_checked(dst, message):
    with pytest.raises(classify6.ClassificationError, match=message):
        classify6._barycentric_image([1, 1, 0, 0], 2, dst, abs(det4(*dst)))


@pytest.fixture
def fresh_gluing_tables():
    """Clears the per-process gluing tables before and after the test: a
    test that patches what they are built from builds its own, and leaves
    none of them to later tests."""
    classify6._gluing_tables.cache_clear()
    yield
    classify6._gluing_tables.cache_clear()


def test_filed_volumes_are_checked(monkeypatch, fresh_gluing_tables):
    """The target |volume| that _gluing_tables reads off its base's volume
    vector is compared with the source's on every hit the walk visits.
    With one base's volume vector doubled (still an affine dependence, so
    every glued point stays where it was), its volumes disagree with
    those of the other bases, and the first visited hit between it and
    another base raises while run_case_gh builds the tables."""
    doubled = catalog41()[1].representative.points
    real = classify6.volume_vector5

    def vector(config):
        v = real(config)
        return tuple(2 * x for x in v) if config.points == doubled else v

    monkeypatch.setattr(classify6, "volume_vector5", vector)
    with pytest.raises(classify6.ClassificationError,
                       match="^glued subtetrahedra have different volumes$"):
        classify6.run_case_gh()


def _funnel_report(case, examined, rejected, accepted, notes=()):
    """The report of a _Funnel of case that examined examined candidates,
    with these rejections and accepted configurations."""
    funnel = classify6._Funnel(case)
    funnel.examined, funnel.rejected, funnel.accepted = examined, rejected, list(accepted)
    return funnel.report(notes)


@pytest.fixture(scope="module")
def literal_gh():
    """Oracle for run_case_gh: the G/H loop before the orbit walk, which
    compares the edge forms of all 24,576 matchings, solves each hit's map
    and makes one verdict per distinct literal key.  Built once per module.

    Holds the two reports, the accepted configurations per case in order,
    the verdicts by key as (case, reason, configuration), one
    _glued_verdict call each, which builds the configuration, with its
    volume table, exactly when it accepts, and each key's first hit as
    (source base, its left-out vertex, target base, its left-out vertex,
    ordered target subtetrahedron, source subtetrahedron in base
    order)."""
    rejected = {"shared": Counter(), "G": Counter(), "H": Counter()}
    accepted = {"G": [], "H": []}
    examined = 0
    bases = classify6._bases()
    reps = [cls5.representative.points for cls5 in catalog41()]
    assert reps == [base.config.points for base in bases]
    orders = list(permutations(range(4)))
    tetras = []
    for pts in reps:
        per_ex = []
        for ex in range(1, 5):
            tet = [pts[v] for v in range(5) if v != ex]
            ordered = [[tet[t] for t in sigma] for sigma in orders]
            per_ex.append((ex, [(dst, edge_form(dst)) for dst in ordered]))
        tetras.append(per_ex)
    verdicts, first_hits = {}, {}
    for rb, (rpts, r_tetras) in enumerate(zip(reps, tetras)):
        for si, (spts, s_tetras) in enumerate(zip(reps, tetras)):
            for ex_r, r_ordered in r_tetras:
                sub_r, form_r = r_ordered[0]
                for ex_s, ordered in s_tetras:
                    for dst, form in ordered:
                        examined += 1
                        if form != form_r:
                            rejected["shared"]["identification is not integral unimodular"] += 1
                            continue
                        m = unimodular_map(sub_r, dst)
                        new_pt = m.apply(rpts[ex_r])
                        if new_pt in spts:
                            rejected["shared"]["gluing yields fewer than six points"] += 1
                            continue
                        key = (si, new_pt, ex_s, m.apply(rpts[0]))
                        if key not in verdicts:
                            cfg = PointConfig(list(spts) + [new_pt])
                            case, reason, built = classify6._glued_verdict(bases[si], new_pt, key[3])
                            assert built == (None if reason else cfg), key
                            assert built is None or built.volumes() == cfg.volumes(), key
                            verdicts[key] = (case, reason, cfg)
                            first_hits[key] = (rb, ex_r, si, ex_s, dst, sub_r)
                        case, reason, cfg = verdicts[key]
                        if reason is None:
                            accepted[case].append(cfg)
                        else:
                            rejected[case][reason] += 1
    note = "candidate enumeration shared with the other gluing case"
    for case in ("G", "H"):
        for reason, n in rejected["shared"].items():
            rejected[case][reason] += n
    reports = tuple(
        _funnel_report(case, examined, rejected[case], accepted[case], (note,))
        for case in ("G", "H")
    )
    return types.SimpleNamespace(reports=reports, accepted=accepted, verdicts=verdicts,
                                 first_hits=first_hits, reps=reps)


def _counting_verdicts(monkeypatch):
    """Wrap classify6._glued_verdict; the returned list counts its calls."""
    calls = []
    verdict = classify6._glued_verdict

    def counted(*args):
        calls.append(args)
        return verdict(*args)

    monkeypatch.setattr(classify6, "_glued_verdict", counted)
    return calls


def _brute_force_symmetries(pts):
    """Point permutations of five points that an integer unimodular map
    realizes, by trying all 120."""
    found = set()
    for perm in permutations(range(5)):
        m = unimodular_map(pts[1:], [pts[perm[i]] for i in range(1, 5)])
        if m is not None and all(m.apply(p) == pts[perm[i]] for i, p in enumerate(pts)):
            found.add(perm)
    return found


def test_base_automorphisms_match_brute_force():
    """The symmetries read off each (4,1) base's least-table orders
    (equivalence.symmetries) carry the base onto itself, each by a point
    permutation of its own, and those permutations are exactly the ones a
    search over all 120 finds.  The rule that _base_automorphisms checks
    holds: there is at least one, and each fixes the interior point
    base[0].  There can be fewer symmetries than least-table orders: the
    last base has 24 orders and 4 symmetries, so the rule does not ask
    for one per order.  Listed with a vertex first, the first base has
    all 24 symmetries, and 18 of them move base[0]."""
    counts, orders = [], []
    for cls5 in catalog41():
        base = cls5.representative
        pts = base.points
        autos = classify6._base_automorphisms(base)
        perms = {tuple(pts.index(g.apply(p)) for p in pts) for _, g in autos}
        assert perms == {perm for perm, _ in autos} and len(perms) == len(autos)
        assert perms == _brute_force_symmetries(pts), cls5
        assert perms == {perm for perm, _ in symmetries(base)}
        assert autos and all(perm[0] == 0 for perm in perms)
        counts.append(len(autos))
        orders.append(len(_least_orders(base, base.top_volume())[1]))
    assert counts == [24, 6, 2, 1, 1, 1, 1, 4]
    assert orders[-1] == 24
    pts = catalog41()[0].representative.points
    moved = [perm for perm, _ in symmetries(PointConfig(pts[1:] + pts[:1])) if perm[0] != 0]
    assert len(moved) == 18


@pytest.mark.parametrize("bad_map", [
    None,  # no order is an image of the first one
    AffineMap(((1, 0, 0), (0, 1, 0), (0, 0, 1)), (1, 0, 0)),  # moves the interior point
    AffineMap(((1, 1, 0), (0, 1, 0), (0, 0, 1)), (0, 0, 0)),  # fixes it, moves a vertex off
])
def test_base_automorphisms_are_checked(monkeypatch, bad_map):
    """Maps that are no symmetry of the base are not listed, so when every
    least-table order gives one, the base has no symmetry, not even the
    identity, and raises instead of being used."""
    monkeypatch.setattr(equivalence, "unimodular_map", lambda src, dst: bad_map)
    with pytest.raises(classify6.ClassificationError, match="no symmetry"):
        classify6._base_automorphisms(catalog41()[0].representative)


def test_base_automorphisms_fix_the_first_point():
    """Only symmetries that fix base[0] count: listed with a vertex first,
    the base with 24 symmetries has 6 that fix it, and raises."""
    pts = catalog41()[0].representative.points
    with pytest.raises(classify6.ClassificationError, match="no symmetry"):
        classify6._base_automorphisms(PointConfig(pts[1:] + pts[:1]))


@pytest.fixture(scope="module")
def gluing_orbits():
    """Oracle for the orbits of run_case_gh's walk, by brute force.  Built
    once per module.

    hits lists the 3,732 matchings that unimodular_map realizes, in
    enumeration order (source base, target base, the source's left-out
    vertex ex, the target's, the vertex matching), each as (source base,
    target base, ex, dst), dst the target points that the source
    subtetrahedron without ex, in base order, goes to; maps holds each
    hit's solved map.  orbits lists the orbits, as sets of hit indices, of
    the group generated by the point permutations of
    _brute_force_symmetries on either base, and the swap of source and
    target, which the solved inverse map carries out: the target's
    left-out vertex glued onto the source base.  A source symmetry g maps
    the map m of a hit onto m o g^-1, a target symmetry h onto h o m;
    each acts freely on the hits, as only the identity fixes a
    subtetrahedron, which is checked on every hit."""
    reps = [cls5.representative.points for cls5 in catalog41()]
    perms = [sorted(_brute_force_symmetries(pts)) for pts in reps]
    tetras = [[tuple(pts[k] for k in range(5) if k != ex) for ex in range(1, 5)] for pts in reps]
    hits, maps = [], []
    for sb, si in product(range(len(reps)), repeat=2):
        for ex, src in enumerate(tetras[sb], 1):
            for tet in tetras[si]:
                for sigma in permutations(range(4)):
                    dst = tuple(tet[t] for t in sigma)
                    m = unimodular_map(src, dst)
                    if m is not None:
                        hits.append((sb, si, ex, dst))
                        maps.append(m)
    index = {hit: i for i, hit in enumerate(hits)}

    def images(i):
        sb, si, ex, dst = hits[i]
        spts, tpts = reps[sb], reps[si]
        source = []
        for perm in perms[sb]:
            moved = dict(zip((spts[perm[k]] for k in range(5) if k != ex), dst))
            source.append((sb, si, perm[ex], tuple(moved[p] for p in tetras[sb][perm[ex] - 1])))
        target = [(sb, si, ex, tuple(tpts[perm[tpts.index(q)]] for q in dst)) for perm in perms[si]]
        for moved in (source, target):
            assert sum(image == hits[i] for image in moved) == 1, hits[i]
        ex_s = next(k for k in range(1, 5) if tpts[k] not in dst)
        inverse = unimodular_map(dst, tetras[sb][ex - 1])
        swap = (si, sb, ex_s, tuple(map(inverse.apply, tetras[si][ex_s - 1])))
        return [index[image] for image in source + target + [swap]]

    orbits, seen = [], set()
    for i in range(len(hits)):
        if i not in seen:
            orbit, todo = {i}, [i]
            while todo:
                for j in images(todo.pop()):
                    if j not in orbit:
                        orbit.add(j)
                        todo.append(j)
            seen |= orbit
            orbits.append(orbit)
    return types.SimpleNamespace(reps=reps, hits=hits, maps=maps, orbits=orbits)


def test_gluing_walk_visits_the_least_matching_of_each_orbit(gluing_orbits, literal_gh):
    """The walk of run_case_gh (_gluing_tables) against the brute-force
    orbits (gluing_orbits): it visits the least hit of each orbit in
    enumeration order, in that order, with its orbit's size and the point
    its solved map glues: 449 visited hits, whose weights sum to the
    3,732 hits.  The 160 hits that glue fewer than six points fill 23
    orbits, and the other 426 orbits partition the 1,532 distinct keys of
    literal_gh, one verdict group each."""
    reps, hits, maps, orbits = (gluing_orbits.reps, gluing_orbits.hits, gluing_orbits.maps,
                                gluing_orbits.orbits)
    index = {hit: i for i, hit in enumerate(hits)}
    walked = []
    for sb, si, visited in classify6._gluing_tables():
        for hit, new_pt, w in visited:
            ex = max(range(5), key=hit.__getitem__)
            i = index[sb, si, ex, tuple(reps[si][j] for j in hit if j < 5)]
            assert new_pt == maps[i].apply(reps[sb][ex]), hits[i]
            walked.append((i, w))
    assert walked == sorted((min(orbit), len(orbit)) for orbit in orbits)
    assert (len(walked), sum(w for _, w in walked)) == (449, 3732)
    groups, fewer = [], []
    for orbit in orbits:
        keys = set()
        for i in orbit:
            sb, si, ex, dst = hits[i]
            new_pt = maps[i].apply(reps[sb][ex])
            ex_s = next(k for k in range(1, 5) if reps[si][k] not in dst)
            keys.add(None if new_pt in reps[si] else (si, new_pt, ex_s, maps[i].apply(reps[sb][0])))
        assert None not in keys or len(keys) == 1, orbit
        if None in keys:
            fewer.append(len(orbit))
        else:
            groups.append(keys)
    assert (len(groups), len(fewer), sum(fewer)) == (426, 23, 160)
    assert sum(map(len, groups)) == len(set().union(*groups)) == 1532
    assert set().union(*groups) == set(literal_gh.verdicts)


def _subtetrahedra():
    """(base index, subtetrahedron) for the 32 subtetrahedra of the
    bases, each the base's points without one vertex, in base order."""
    reps = [base.config.points for base in classify6._bases()]
    return [(b, [pts[k] for k in range(5) if k != ex]) for b, pts in enumerate(reps) for ex in range(1, 5)]


def _ordered_keys(tet):
    """The key (emptytetra._ordered_key) of tet in each of its 24 vertex
    orders, in permutations(range(4)) order."""
    return [_ordered_key(*(tet[t] for t in sigma)) for sigma in permutations(range(4))]


def test_gluing_tables_take_no_edge_form(monkeypatch, fresh_gluing_tables):
    """The first _gluing_tables build takes no edge form.  It takes the
    keys (_ordered_key) of the 23 subtetrahedra that leave out the least
    vertex of its orbit under the base's symmetries, in their 24 vertex
    orders: 552 keys.  11 of the 32 subtetrahedra have |volume| 1.  As
    under edge forms, the 768 ordered subtetrahedra fall under 81
    distinct (base, key) pairs."""
    classify6._bases()
    calls = count_calls(monkeypatch, edge_form, _ordered_key)
    classify6._gluing_tables()
    assert calls == {"edge_form": 0, "_ordered_key": 23 * 24}
    tetras = _subtetrahedra()
    assert sum(abs(det4(*tet)) == 1 for _, tet in tetras) == 11
    assert len({(b, key) for b, tet in tetras for key in _ordered_keys(tet)}) == 81


def test_gluing_keys_partition_like_edge_forms():
    """On all 768 ordered subtetrahedra of the bases (32 subtetrahedra,
    each in its 24 vertex orders), two have the same key (_ordered_key)
    exactly when they have the same edge form: both say that an integral
    unimodular map carries the one onto the other, vertex by vertex.
    29 classes."""
    by_key, by_form = {}, {}
    for b, tet in _subtetrahedra():
        for sigma, key in zip(permutations(range(4)), _ordered_keys(tet)):
            ordered = [tet[t] for t in sigma]
            by_key.setdefault(key, set()).add((b, *ordered))
            by_form.setdefault(edge_form(ordered), set()).add((b, *ordered))
    assert sum(map(len, by_key.values())) == 768
    assert sorted(map(sorted, by_key.values())) == sorted(map(sorted, by_form.values()))
    assert len(by_key) == 29


def test_gluing_tables_reject_a_subtetrahedron_without_a_key(monkeypatch, fresh_gluing_tables):
    """A base whose subtetrahedron without vertex 1 is _SRC2, a tetrahedron
    of volume 2 with the midpoint of an edge: its first facet, in base
    order, holds that midpoint and is not a unimodular triangle, so that
    order has no key, and _gluing_tables raises."""
    points = [_SRC2[0], (1, 1, 1), *_SRC2[1:]]
    base = types.SimpleNamespace(config=PointConfig(points), autos=[((0, 1, 2, 3, 4), None)])
    monkeypatch.setattr(classify6, "_bases", lambda: [base])
    with pytest.raises(classify6.ClassificationError,
                       match=r"^base 0 without vertex 1: a facet is not a unimodular triangle$"):
        classify6._gluing_tables()


def test_case_c_alone_builds_no_gluing_tables(fresh_gluing_tables):
    """Case C, E and F read the bases' table (_bases), not the G/H hit
    table, so a run of case C alone leaves _gluing_tables unbuilt."""
    classify6.run_case("C")
    assert classify6._gluing_tables.cache_info().currsize == 0


def _is_subsequence(part, whole) -> bool:
    rest = iter(whole)
    return all(any(x == y for y in rest) for x in part)


def test_orbit_verdicts_match_literal_oracle(monkeypatch, literal_gh):
    """run_case_gh gives the literal-keyed loop's reports; the oracle makes
    a verdict, with its triangulation cross-checks, on each of the 1,532
    distinct keys, run_case_gh on 426.  Each accepted list is the oracle's
    with the repeats of a gluing group left out, in order, and identifies
    the same first-seen configurations: the reports, whose classes carry
    them, are equal."""
    assert len(literal_gh.verdicts) == 1532
    calls = _counting_verdicts(monkeypatch)
    accepted = []
    report = classify6._Funnel.report

    def recorded(funnel, *args):
        accepted.append(list(funnel.accepted))
        return report(funnel, *args)

    monkeypatch.setattr(classify6._Funnel, "report", recorded)
    report_g, report_h = classify6.run_case_gh()
    assert len(calls) == 426
    assert [len(configs) for configs in accepted] == [20, 12]
    for configs, case in zip(accepted, "GH"):
        assert _is_subsequence(configs, literal_gh.accepted[case]), case
    for report, oracle in zip((report_g, report_h), literal_gh.reports):
        assert report.rejected == oracle.rejected
        assert report.candidates_examined == oracle.candidates_examined
        assert report == oracle


def test_swap_keys_match_inverse_gluing_oracle(monkeypatch, literal_gh, fresh_gluing_tables):
    """The swap in the action of run_case_gh's walk (classify6._swapped,
    on a hit read as labels: hit[k] is the target label that source label
    k goes to, plus 5 on the source's left-out vertex) is the reverse
    gluing that the solved inverse map gives: the target's left-out
    vertex glued onto the source base, whose other points go back to the
    source points they came from.  The inverse sends the target's
    interior point onto the source's exactly when the gluing sends the
    source's onto the target's, so the reverse gluing keeps the role that
    ends a literal key.  Checked on the first hit of each of the 1,532
    distinct literal keys, whose literal reverse key is a distinct key
    with the same _glued_verdict, and on every swap the walk takes (one
    per visited hit of a base on itself): each is undone by a second."""
    reps, verdicts = literal_gh.reps, literal_gh.verdicts
    for key, (rb, ex_r, si, ex_s, dst, sub_r) in literal_gh.first_hits.items():
        inverse = unimodular_map(dst, sub_r)
        assert inverse is not None
        swap = (rb, inverse.apply(reps[si][ex_s]), ex_r, inverse.apply(reps[si][0]))
        hit = [reps[si].index(q) for q in dst]
        hit.insert(ex_r, ex_s + 5)
        back = classify6._swapped(tuple(hit))
        assert back[ex_s] == ex_r + 5 and max(back) == ex_r + 5, key
        tet = [p for k, p in enumerate(reps[si]) if k != ex_s]
        assert [reps[rb][j] for j in back if j < 5] == list(map(inverse.apply, tet)), key
        assert (swap[3] == reps[rb][0]) == (key[3] == reps[si][0]), key
        assert verdicts[swap][:2] == verdicts[key][:2], key
    swaps = []
    swapped = classify6._swapped

    def recorded(hit):
        swaps.append((hit, swapped(hit)))
        return swaps[-1][1]

    monkeypatch.setattr(classify6, "_swapped", recorded)
    walk = classify6._gluing_tables()
    assert len(swaps) == sum(len(visited) for sb, si, visited in walk if sb == si) == 169
    assert all(swapped(back) == hit for hit, back in swaps)


def test_orbit_verdict_count_and_no_carry_over(monkeypatch, case_reports):
    """426 verdicts on every call: nothing decided in one run_case_gh call
    is reused by the next."""
    calls = _counting_verdicts(monkeypatch)
    first = classify6.run_case_gh()
    assert len(calls) == 426
    second = classify6.run_case_gh()
    assert len(calls) == 2 * 426
    assert first == second == tuple(by_case(case_reports)[c] for c in "GH")


def hull_verdict(cfg, glued_interior):
    """Oracle for classify6._glued_verdict: the verdict of every gluing that
    is not coplanar read off its hull.  The case is G when the hull's
    interior lattice points are {base interior}, H when they are {base
    interior, glued interior}, and any other set is an extra interior
    point; the hull's size decides the rest.  The size must agree with
    the caps' emptiness, also where the interior points reject."""
    if 0 in cfg.volumes():
        return "shared", "coplanarity present"
    lattice, inner, _ = hull_summary(cfg)
    six = len(lattice) == 6
    assert _cap_rule(cfg.points, classify6._BASE41_FACETS)[1] == six, cfg
    inner = set(inner)
    if inner == {cfg.points[0]}:
        case, reason = "G", "cut tetrahedron is not empty"
    elif inner == {cfg.points[0], glued_interior}:
        case, reason = "H", "a triangulation tetrahedron is not empty"
    else:
        return "shared", "extra interior lattice point"
    return case, None if six else reason


def test_glued_verdict_matches_hull_oracle(monkeypatch, literal_gh):
    """_glued_verdict names the case by whether the interior points
    coincide; that the hull has no third interior point where no cap
    holds one strictly inside is checked here, not proved.  On every one
    of the 1,532 literal keys, the verdict the literal-keyed loop made
    with the key's glued point is hull_verdict's.  In one run_case_gh
    call, 286 of the 426 verdicts are decided by a cap with a lattice
    point strictly inside and 79 by coplanarity, with no hull and no
    emptiness test, and a hull is counted only for the 32 gluings it
    accepts.  The caps of each of the 347 other verdicts are computed
    once, for both the interior-point test and the cap rule."""
    assert len(literal_gh.verdicts) == 1532
    for key, (case, reason, cfg) in literal_gh.verdicts.items():
        assert (case, reason) == hull_verdict(cfg, key[3]), key
    verdict = classify6._glued_verdict
    work = count_calls(monkeypatch, size, _framed_empty, classify6._caps)
    made = []

    def recorded(target, point, glued):
        before = dict(work)
        got = verdict(target, point, glued)
        idle = all(work[k] == before[k] for k in ("size", "_framed_empty"))
        made.append((got[:2], work["size"] > before["size"], idle))
        return got

    monkeypatch.setattr(classify6, "_glued_verdict", recorded)
    classify6.run_case_gh()
    assert len(made) == 426
    assert work["_caps"] == 426 - 79 == 347
    hulled = [got for got, hull, _ in made if hull]
    assert len(hulled) == 32 and all(reason is None for _, reason in hulled)
    assert sum(reason is None for (_, reason), _, _ in made) == 32
    idle = Counter(got for got, _, no_work in made if no_work)
    assert idle == {("shared", "extra interior lattice point"): 286,
                    ("shared", "coplanarity present"): 79}
    assert sum(got[1] == "extra interior lattice point" for got, _, _ in made) == 286


def test_classify_all_work_is_pinned(monkeypatch, case_reports):
    """One warm classify_all: 89 witness maps, from the orders of each of
    _Funnel.report's 77 distinct point sets (A 2, B 16, C 6, D 2, E 2,
    F 17, G 20, H 12) that read its row's R* onto the row's first
    least-table order (the search stops at the first witness: 71 sets
    take one try, and two sets each two, three and four tries, 78 when
    the maps went from a set's first least-table order); the bases' 40 automorphism
    maps are built once per process with the bases' table, _bases, which
    this test builds first.  82 placings with no facet planes (case A's
    six candidates take one each for holds_only_its_points, and every
    hull count takes one: every site of cases B to H counts only the
    hulls its cap rule keeps, B 16, C 6, D 3, E 2, F 17 and the 32
    accepted gluing verdicts; the 286 verdicts whose caps hold a lattice
    point strictly inside and the 29 with a non-empty cap are rejected
    without a hull).  426 gluing verdicts.  20 circuit computations (no
    gluing verdict computes any: its size argument is the cap rule; D's
    three survivors and F's 17, which checks its one (2,1)-circuit on the
    circuits of its coplanarity test).  989 cap computations (one per
    candidate that reaches the cap rule, and one per gluing verdict that
    is not coplanar, shared by its interior-point test and its cap rule),
    each read off its polytope's facet table (_facet_table, memoized,
    whose cache this test clears first), and 32 facet frames: the 18
    rows of the tables of the two (3,1) pyramids of cases B and C (6
    each; C's "both vertices" pyramid is the second) and of D's square
    pyramid, and 14 cells of case A's fine triangulations, those of
    |volume| above 1, which polytope.holds_only_its_points reads.  The
    bases' 32 rows, which C's interior subcase and E share with F, G and
    H, are built with the bases, _bases, once per process.  856
    emptiness tests by White's congruence in the frame (_framed_empty:
    those 14 cells, and caps,
    where each site evaluates its size argument once, and C's one
    rejected edge candidate tests its caps again, to name the first that
    is not empty; D's 32 rejections take 44 of them, as _D_FACETS lists
    the side triangles, where a rejected apex meets its full cap, before
    the base square).  522 interior-point tests of caps
    (_framed_has_interior_point).  435 det4 calls, 15 per quad_volumes
    and none elsewhere.  No normal form (_Funnel.report names each
    distinct point set's row by its least table and a witness,
    _class_rows, and takes none; the bases' symmetries take none, as
    equivalence.symmetries reads their least-table orders, once per
    process).  No catalog match (a class takes its oriented matroid from
    its row, and cases C and E test their embeddings by chirotope).  No
    sorted barycentric table (_table): every point set is named by a
    witness before any least table of its own, where 232 were sorted
    when each set's least table came first.  1,271
    check_point calls: each extended pyramid is checked once per scan
    (5 points: B's three subcases, C's four edge candidates and "both
    vertices" scan, and D), then each new point once, before its cap rule
    or width test (B 18, C 4 + 62 + 400, D 57, E 62, F 108 and the 426
    gluing verdicts), and PointConfig._extended checks the new point of
    each configuration it builds again (C 2, E 2, F 17, G and H 32);
    case A's six candidates take 6 each.  No configuration is built for
    a candidate its cap rule rejects, the triangulation checks test the
    emptiness of the points without checking them again, and the rows'
    configurations come from _class_rows.  quad_volumes runs 29 times,
    for the hulls of the configurations of cases A (6), B (16), C's edge
    and "both vertices" subcases (4) and D (3): the configurations of C's
    interior subcase, E, F, G and H are a (4,1) base plus one point,
    whose volumes PointConfig._extended evaluates off the base's
    Extension table with no det4.  No case runner calls width."""
    for cell in ("5.4", "5.5"):  # warm: the cells' chirotopes are read once per process
        classify6._cell_chirotopes(cell)
    classify6._class_rows()._stages
    classify6._gluing_tables()
    classify6._facet_table.cache_clear()
    calls = count_calls(monkeypatch, unimodular_map, hull_facets, _placing, classify6._glued_verdict,
                        match_circuits, check_point, circuits, normal_form, quad_volumes,
                        classify6._caps, _facet_frame, _framed_empty,
                        _framed_has_interior_point, det4, _table, width)
    classify6.classify_all()
    assert calls == {"unimodular_map": 89, "hull_facets": 0, "_placing": 82, "_glued_verdict": 426,
                     "match_circuits": 0, "check_point": 1271, "circuits": 20,
                     "normal_form": 0, "quad_volumes": 29, "_caps": 989,
                     "_facet_frame": 32, "_framed_empty": 856,
                     "_framed_has_interior_point": 522, "det4": 435, "_table": 0,
                     "width": 0}


def test_a_second_classify_all_builds_no_cap_frame(monkeypatch):
    """The facet tables are memoized on their polytope's points and
    facets, so once one classify_all has run, the next builds none: its
    only facet frames are the 14 cells of case A's fine triangulations,
    which polytope.holds_only_its_points reads on every call."""
    classify6.classify_all()
    calls = count_calls(monkeypatch, _facet_frame)
    misses = classify6._facet_table.cache_info().misses
    classify6.classify_all()
    assert classify6._facet_table.cache_info().misses == misses
    assert calls == {"_facet_frame": 14}


def test_facet_table_caps_match_the_frame_oracle(monkeypatch):
    """On every candidate of one classify_all that reaches the cap rule,
    989 of them, the caps read off its polytope's facet table
    (_facet_table) are those of the oracle that builds each facet's frame
    from the candidate's own points (caps_by_frames): the same labels and
    (x, y, h), in the same order, with the same verdict.  The verdict is
    the cap rule's (_six_by_caps), which builds the configuration of the
    76 candidates whose caps are all empty and of no other, or, for 286
    gluing verdicts, a cap with a lattice point strictly inside.  Once the
    tables of _class_rows are built, the only other configurations a
    classify_all builds are case A's six."""
    classify6.classify_all()
    polytopes = {id(base.facets): (base.config.points, classify6._BASE41_FACETS)
                 for base in classify6._bases()}
    facet_table, caps_of, six_by_caps = classify6._facet_table, classify6._caps, classify6._six_by_caps
    made, built = [], []
    set_points = PointConfig._set_points

    def table(points, facets):
        polytopes[id(facet_table(points, facets))] = (points, facets)
        return facet_table(points, facets)

    def caps(tab, p):
        points, facets = polytopes[id(tab)]
        made.append([points + (p,), facets, caps_of(tab, p), "no rule"])
        return made[-1][2]

    def rule(extend, caps, site, at=""):
        assert caps is made[-1][2]
        made[-1][3] = six_by_caps(extend, caps, site, at)
        return made[-1][3]

    monkeypatch.setattr(classify6, "_facet_table", table)
    monkeypatch.setattr(classify6, "_caps", caps)
    monkeypatch.setattr(classify6, "_six_by_caps", rule)
    monkeypatch.setattr(PointConfig, "_set_points", lambda cfg, pts: built.append(pts) or set_points(cfg, pts))
    classify6.classify_all()
    verdicts = Counter()
    for points, facets, got, cfg in made:
        oracle = caps_by_frames(points, facets)
        assert got == oracle, points
        empty = all(_framed_empty(*xyh) for _, xyh in oracle)
        if cfg == "no rule":
            assert any(_framed_has_interior_point(*xyh) for _, xyh in oracle), points
            verdicts["interior point"] += 1
        else:
            assert (cfg is not None) == empty and (cfg is None or cfg.points == points), points
            verdicts["kept" if empty else "not empty"] += 1
    assert verdicts == {"kept": 76, "not empty": 627, "interior point": 286}
    kept = [points for points, _, _, cfg in made if cfg not in (None, "no rule")]
    assert len(built) == 6 + 76 and built[6:] == kept


def test_a_second_run_case_gh_builds_no_gluing_tables(monkeypatch):
    """The bases' symmetries, subtetrahedra and edge forms depend only on
    catalog41(), so _gluing_tables builds them once per process: once one
    run_case_gh has run, the next takes no edge form, no normal form and
    no symmetry map, while its verdicts are made again (426 per call,
    test_orbit_verdict_count_and_no_carry_over)."""
    classify6.run_case_gh()
    calls = count_calls(monkeypatch, edge_form, normal_form, symmetries,
                        classify6._base_automorphisms)
    classify6.run_case_gh()
    assert calls == {"edge_form": 0, "normal_form": 0, "symmetries": 0, "_base_automorphisms": 0}


def test_finish_rejects_a_row_of_another_case(bundle):
    """A representative that names a row of another case fails the
    case check, after its witness map and before the case's row list is
    looked at."""
    row = next(r for r in bundle.class_rows if r.case == "B")
    with pytest.raises(classify6.ClassificationError,
                       match=rf"^case A produced table row {re.escape(row.id)}$"):
        _funnel_report("A", 1, Counter(), [row.config()])


def test_finish_rejects_a_configuration_outside_the_table():
    """A six-point configuration of width one has no row: the gate of
    |volumes| turns it away, and the report fails before looking for a
    witness."""
    with pytest.raises(classify6.ClassificationError,
                       match="^generated configuration matches no table row$"):
        _funnel_report("A", 1, Counter(), [width1_family("(5,1)/3.2")])


def test_finish_rejects_a_case_with_missing_rows(bundle):
    """Every representative identifies, but the case lists a row none of
    them reaches, so the found ids differ from the case's rows."""
    with pytest.raises(classify6.ClassificationError,
                       match=re.escape("case A: found ['A.1'], expected ['A.1', 'A.2']")):
        _funnel_report("A", 1, Counter(), [bundle.rows_by_id["A.1"].config()])


def test_classify_all_checks_the_case_order(monkeypatch, case_reports):
    """Reports that each pass their own case's check but come out in the
    wrong order fail the assembled comparison with the table."""
    reports = list(case_reports[0])
    reports[0], reports[1] = reports[1], reports[0]
    monkeypatch.setattr(classify6, "run_reports", lambda: list(reports))
    with pytest.raises(classify6.ClassificationError,
                       match="^assembled classification does not match tables$"):
        classify6.classify_all()


def test_generated_configurations_are_their_own_lattice_points(case_reports):
    """What the columns test below relies on to read the dps flag off the
    points: the lattice points of each of the 76 generated configurations
    are exactly its six points."""
    generated = [cls.generated for r in by_case(case_reports).values() for cls in r.classes_found]
    assert len(generated) == 76
    for g in generated:
        assert lattice_points(g) == tuple(sorted(g.points)), g


#: sha256 of repr([(class id, generated points), ...]) over the 76 classes
#: in report order.
GENERATED_DIGEST = "a842610f7d72a75f16d0a75805e6f714d7c6ba3aea9512a5acb454ee71b7fd7c"

#: The same digest with each class's points sorted: the generated point
#: sets, whatever order a runner lists them in.
GENERATED_POINT_SETS_DIGEST = "4d830aea303dacc78af1e84c97afd5b09358951d862ea157af2313041bd7dbe4"


def test_generated_points_match_recorded_digest(case_reports):
    """Each class's generated configuration is the first one of its class
    that its runner accepts, in enumeration order, with its points in the
    runner's order; no output file shows them, so they are pinned here,
    in that order and as point sets."""
    generated = [(cls.id, cls.generated.points)
                 for r in by_case(case_reports).values() for cls in r.classes_found]
    assert len(generated) == 76
    assert hashlib.sha256(repr(generated).encode()).hexdigest() == GENERATED_DIGEST
    point_sets = [(cid, tuple(sorted(points))) for cid, points in generated]
    assert hashlib.sha256(repr(point_sets).encode()).hexdigest() == GENERATED_POINT_SETS_DIGEST


def test_generated_configurations_have_their_rows_columns(case_reports, bundle):
    """The oracle of _Funnel.report, which takes these columns from the row:
    on each of the 76 generated configurations, the width, the catalog
    record (match_om) and the dps flag (pair sums of its six points) are
    the row's columns."""
    classes = [cls for r in by_case(case_reports).values() for cls in r.classes_found]
    assert len(classes) == 76
    for cls in classes:
        row = bundle.rows_by_id[cls.id]
        g = cls.generated
        assert width(g)[0] == row.width, cls.id
        assert key_candidates(row.om_label) == (match_om(g).key,), cls.id
        assert pair_sums_distinct(g.points) == row.dps, cls.id


@pytest.mark.parametrize("classify", [classify6.classify_all, lambda: classify6.run_case("A")],
                         ids=["classify_all", "run_case"])
def test_classify_all_checks_each_witness_map(monkeypatch, classify):
    """A map from the witness loop that does not carry the generated
    points onto the row's points fails the verification, although the
    least table matched and the normal-form keys of that miss path are
    equal; a single case checks its classes as the full run does."""
    shift = AffineMap(((1, 0, 0), (0, 1, 0), (0, 0, 1)), (1, 0, 0))
    monkeypatch.setattr(equivalence, "unimodular_map", lambda src, dst: shift)
    with pytest.raises(classify6.ClassificationError, match="A.1: witness is not equivalent"):
        classify()


#: The two (4,1) embedding searches: case, oriented matroid cell, and the
#: coefficients of p4 = c1 p1 + c2 p2 + c3 p3.
EMBEDDING_SEARCHES = (("C", "5.4", (3, -1, -1)), ("E", "5.5", (-1, 1, 1)))

#: The printed size argument of each search's candidates: the tetrahedra,
#: as label quadruples of the paper's p1..p6, that triangulate the hull
#: beyond the (4,1) base on p1, p2, p3, p5, p6.
PRINTED_TRIANGULATIONS = {"C": ((1, 2, 4, 6), (1, 3, 4, 6)), "E": ((2, 3, 4, 6),)}


def _paper_labels(order):
    """The labels of the paper's p1..p6 in the configuration of the vertex
    order (a, b, c, d): p1, p2, p3 and p6 are the base points a, b, c and
    d, p5 the interior point, and p4 the new point, last."""
    a, b, c, d = order
    return {1: a + 1, 2: b + 1, 3: c + 1, 4: 6, 5: 1, 6: d + 1}


def _printed_caps(case, order):
    """PRINTED_TRIANGULATIONS[case] on the configuration's labels, sorted."""
    labels = _paper_labels(order)
    return sorted(sorted(labels[k] for k in quad) for quad in PRINTED_TRIANGULATIONS[case])


def _embeddings(coeffs):
    """The 8 x 24 embeddings of one search, as _embeddings41 builds them,
    each as its points, the base's in their own order, then p4, and its
    vertex order (a, b, c, d)."""
    c1, c2, c3 = coeffs
    for cls5 in catalog41():
        pts = cls5.representative.points
        for order in permutations(range(1, 5)):
            p1, p2, p3 = (pts[k] for k in order[:3])
            yield pts + (tuple(c1 * p1[t] + c2 * p2[t] + c3 * p3[t] for t in range(3)),), order


def _role_chirotope(points, order):
    """The chirotope of an embedding's points in the roles p1..p6
    (_paper_labels), from det4 of the points relabeled so."""
    labels = _paper_labels(order)
    return chirotope(PointConfig([points[labels[k] - 1] for k in range(1, 7)]).volumes())


@pytest.fixture(scope="module")
def cell_orbits(bundle):
    """Per cell of the embedding searches, the chirotopes of all 720
    relabelings of its first table row, each with both signs, one det4
    pass per relabeling (omcatalog_oracles.chirotope_orbit): the oracle of
    the cell test of _embeddings41.  Built once per module."""
    return {cell: chirotope_orbit(next(r for r in bundle.class_rows if r.om_label == cell).config().points)
            for _, cell, _ in EMBEDDING_SEARCHES}


def test_cell_orbits_match_the_catalog_on_every_embedding(bundle):
    """On all 384 embeddings of cases C and E (none degenerate), the cell
    test of _embeddings41, the chirotope in the roles p1..p6 against the
    four of either cell (_cell_chirotopes), agrees with the match_om
    oracle; 128 embeddings of each search have its own cell, none the
    other's."""
    keys = {cell: key_candidates(cell)[0] for _, cell, _ in EMBEDDING_SEARCHES}
    hits = Counter()
    for case, _, coeffs in EMBEDDING_SEARCHES:
        for points, order in _embeddings(coeffs):
            key = match_om(PointConfig(points)).key
            for cell, cell_key in keys.items():
                found = _role_chirotope(points, order) in classify6._cell_chirotopes(cell)
                assert found == (key == cell_key), (cell, points)
                hits[case, cell] += found
            hits[case] += 1
    assert hits == {"C": 192, "E": 192, ("C", "5.4"): 128, ("C", "5.5"): 0,
                    ("E", "5.4"): 0, ("E", "5.5"): 128}


def test_cell_test_matches_the_orbit_oracle_on_every_order(cell_orbits):
    """The cell test of _embeddings41 against its oracle, the orbit of all
    720 relabelings of the cell's row (cell_orbits), on every one of the
    2 x 192 vertex orders of the two searches, walked or not, for either
    cell: an embedding's chirotope in the roles p1..p6 is one of the four
    of _cell_chirotopes exactly when its own chirotope lies in the orbit.
    128 orders of each search have its own cell and none the other's.  On
    the walked orders, the chirotope that the search reads off the volume
    table through _Base.roles is the one of the relabeled points."""
    hits = Counter()
    for case, _, coeffs in EMBEDDING_SEARCHES:
        for points, order in _embeddings(coeffs):
            role, chi = _role_chirotope(points, order), chirotope(PointConfig(points).volumes())
            for cell, orbit in cell_orbits.items():
                found = role in classify6._cell_chirotopes(cell)
                assert found == (chi in orbit), (case, cell, points)
                hits[case, cell] += found
    assert hits == {("C", "5.4"): 128, ("C", "5.5"): 0, ("E", "5.4"): 0, ("E", "5.5"): 128}
    for _, _, coeffs in EMBEDDING_SEARCHES:
        built = {(points[:5], order): points for points, order in _embeddings(coeffs)}
        for base in classify6._bases():
            for (order, _), role in zip(base.embeddings, base.roles):
                points = built[base.config.points, order]
                cfg = PointConfig._extended(base.extension, points[-1])
                assert chirotope(role(cfg.volumes())) == _role_chirotope(points, order), order


def test_cell_orbits_match_the_catalog_on_row_images(bundle, cell_orbits):
    """On a relabeled unimodular image of every table row and on its
    mirror image, the oracle orbits of cells 5.4 and 5.5 (cell_orbits),
    which the cell test of _embeddings41 is checked against, agree with
    match_om; the rows of those cells are the hits."""
    rng = random.Random(17)
    keys = {cell: key_candidates(cell)[0] for _, cell, _ in EMBEDDING_SEARCHES}
    hits = []
    for row in bundle.class_rows:
        img = shuffled(rng, apply_map(random_unimodular(rng), row.config()))
        mirror = PointConfig([(-x, y, z) for x, y, z in img.points])
        for cfg in (img, mirror):
            key = match_om(cfg).key
            for cell, cell_key in keys.items():
                found = chirotope(cfg.volumes()) in cell_orbits[cell]
                assert found == (key == cell_key), (row.id, cell)
                if found:
                    hits.append((row.id, cell))
    assert hits == [(rid, cell) for rid, cell in (("C.4", "5.4"), ("C.5", "5.4"),
                                                  ("E.1", "5.5"), ("E.2", "5.5"))
                    for _ in range(2)]


def test_embedded41_caps_are_the_printed_triangulations():
    """On each embedding of either search that has its cell, the caps
    over _BASE41_FACETS are the printed triangulation's tetrahedra, their
    labels p1..p6 read through the vertex order onto the base's labels,
    and the cap rule keeps exactly the hulls of six points.  The search
    visits one embedding per orbit of the base's symmetries and the swap
    of p2 and p3 and yields it with its orbit's size: weighted so, 128
    embeddings of either search have its cell, and 16 of them six points.
    Each search counts its 192 embeddings as examined in the funnel: the
    weighted yields and the 64 it rejects.  literal_cef checks the caps
    of all 128 of each search."""
    seen = Counter()
    for case, cell, coeffs in EMBEDDING_SEARCHES:
        funnel = classify6._Funnel(case)
        yielded = 0
        for base, p4, order, w in classify6._embeddings41(cell, coeffs, funnel):
            points = base.config.points + (p4,)
            caps, kept = _cap_rule(points, classify6._BASE41_FACETS)
            assert sorted(map(sorted, caps)) == _printed_caps(case, order), (case, points)
            six = size(PointConfig(points)) == 6
            assert kept == six, (case, points)
            seen[case, six] += w
            yielded += w
        assert funnel.examined == 192 == 128 + sum(funnel.rejected.values()), case
        assert yielded == 128, case
    assert seen == {("C", True): 16, ("C", False): 112, ("E", True): 16, ("E", False): 112}


def _orbit_of(labels, perms, swap=False) -> set:
    """The images of the tuple of base point indices labels under the
    point permutations perms and, when swap, the swap of its second and
    third entries."""
    starts = (labels, (labels[0], labels[2], labels[1], *labels[3:])) if swap else (labels,)
    return {tuple(perm[k] for k in start) for start in starts for perm in perms}


def _first_of_orbit(labels, perms, swap=False) -> bool:
    """Whether labels comes first, in lexicographic order, in its orbit
    (_orbit_of)."""
    return labels == min(_orbit_of(labels, perms, swap))


@pytest.fixture(scope="module")
def literal_cef(cell_orbits):
    """Oracle for the orbit walks of cases C, E and F: the loops before
    them, over all 8 x 4! embeddings of either (4,1) search and all
    8 x 20 ordered point pairs of case F, each candidate counted once and
    decided by its hull (size) and, in F, its circuits, with det4 volumes
    of its own; an embedding has its search's cell when its chirotope lies
    in the cell's orbit (cell_orbits).  Built once per module.

    Per search, "C" (C's interior subcase), "E" and "F": a namespace
    with examined, rejected (a Counter by reason) and accepted, the
    accepted configurations in enumeration order, each as (configuration,
    whether its vertex order or pair comes first in its orbit under the
    base's _brute_force_symmetries and, for a vertex order, the swap of
    p2 and p3, which builds the same configuration, as both searches give
    p2 and p3 one coefficient in p4).  A configuration is the base's
    points in their own order, then the new point.  On each embedding with
    the search's cell, the caps are the printed triangulation's tetrahedra
    and the cap rule agrees with the hull."""
    found = {}
    for case, cell, (c1, c2, c3) in EMBEDDING_SEARCHES:
        assert c2 == c3
        got = types.SimpleNamespace(examined=0, rejected=Counter(), accepted=[])
        for cls5 in catalog41():
            pts = cls5.representative.points
            perms = _brute_force_symmetries(pts)
            for order in permutations(range(1, 5)):
                got.examined += 1
                p1, p2, p3 = (pts[k] for k in order[:3])
                p4 = tuple(c1 * p1[t] + c2 * p2[t] + c3 * p3[t] for t in range(3))
                points = pts + (p4,)
                if len(set(points)) != 6:
                    got.rejected["degenerate embedding"] += 1
                    continue
                cfg = PointConfig(points)
                if chirotope(cfg.volumes()) not in cell_orbits[cell]:
                    got.rejected[f"oriented matroid is not {cell}"] += 1
                    continue
                caps, kept = _cap_rule(points, classify6._BASE41_FACETS)
                six = size(cfg) == 6
                assert sorted(map(sorted, caps)) == _printed_caps(case, order), (case, points)
                assert kept == six, (case, points)
                if case == "C" and abs(det4(p1, p2, p3, pts[0])) not in (1, 3):
                    got.rejected["subtetrahedron p1p2p3p5 volume is not 1 or 3"] += 1
                elif not six:
                    got.rejected["a triangulation tetrahedron is not empty" if case == "C"
                                 else "tetrahedron p2p3p4p6 is not empty"] += 1
                else:
                    got.accepted.append((cfg, _first_of_orbit(order, perms, swap=True)))
        found[case] = got
    got = types.SimpleNamespace(examined=0, rejected=Counter(), accepted=[])
    for cls5 in catalog41():
        pts = cls5.representative.points
        perms = _brute_force_symmetries(pts)
        for i, j in permutations(range(5), 2):
            got.examined += 1
            r3 = tuple(2 * pts[j][t] - pts[i][t] for t in range(3))
            if r3 in pts:
                got.rejected["degenerate extension"] += 1
                continue
            cfg = PointConfig(pts + (r3,))
            if size(cfg) != 6:
                got.rejected["extra lattice points in the convex hull"] += 1
            elif coplanarity_from_circuits(circuits(cfg)) != C21:
                got.rejected["additional coplanarity"] += 1
            else:
                got.accepted.append((cfg, _first_of_orbit((i, j), perms)))
    found["F"] = got
    return found


def _accepted_by_report(monkeypatch):
    """Record each _Funnel's accepted configurations as it reports: the
    returned dict maps its case to the list."""
    accepted = {}
    report = classify6._Funnel.report

    def recorded(funnel, *args):
        accepted[funnel.case] = list(funnel.accepted)
        return report(funnel, *args)

    monkeypatch.setattr(classify6._Funnel, "report", recorded)
    return accepted


#: The rejection reasons of case C's edge and "both vertices" subcases;
#: every other reason of case C is its interior subcase's.
C_OUTER_REASONS = ("T3456 is not empty", "extra lattice points in the convex hull")


def test_orbit_walks_match_the_literal_oracle(monkeypatch, literal_cef):
    """run_case_c's interior subcase, run_case_e and run_case_f against the
    full loops (literal_cef): the same examined count and per-reason
    rejection counts, each walk's rejections weighted by orbit size; the
    accepted configurations are the oracle's that come first in their
    orbit, in the same order, and the reports, which identify the first
    accepted configuration of each class, are those of the oracle's
    accepted lists.  Case C's accepted list is its three edge
    configurations, the interior subcase's and the one "both vertices"
    configuration."""
    accepted = _accepted_by_report(monkeypatch)
    reports = {"C": classify6.run_case_c(), "E": classify6.run_case_e(), "F": classify6.run_case_f()}
    interior = accepted["C"][3:-1]
    outer = accepted["C"][:3], accepted["C"][-1:]
    counts = {}
    for case, got in literal_cef.items():
        report = reports[case]
        walked = interior if case == "C" else accepted[case]
        assert walked == [cfg for cfg, first in got.accepted if first], case
        oracle = [cfg for cfg, _ in got.accepted]
        rejected = Counter(report.rejected)
        if case == "C":
            rejected = Counter({r: n for r, n in rejected.items() if r not in C_OUTER_REASONS})
            oracle = outer[0] + oracle + outer[1]
        else:
            assert report.candidates_examined == got.examined
        assert rejected == got.rejected, case
        assert report == _funnel_report(case, report.candidates_examined, report.rejected, oracle)
        counts[case] = (got.examined, len(walked), len(got.accepted))
    assert counts == {"C": (192, 2, 16), "E": (192, 2, 16), "F": (160, 17, 49)}


def test_base_walks_visit_the_first_of_each_orbit():
    """The vertex orders and point pairs of each base that _bases keeps
    for the walks are the first of their orbits (_orbit_of) under
    _brute_force_symmetries, in enumeration order, each with its orbit's
    size: 62 of the 192 embedding orders, under the symmetries and the
    swap of the second and third vertex, of weight 2 |Aut| or, where a
    symmetry that swaps those two vertices meets the swap, |Aut|; and
    108 of the 160 pairs, under the symmetries, where a symmetry can fix
    a pair."""
    orders = pairs = 0
    stabilized = Counter()
    for base in classify6._bases():
        perms = _brute_force_symmetries(base.config.points)
        expected = [(o, len(_orbit_of(o, perms, swap=True)))
                    for o in permutations(range(1, 5)) if _first_of_orbit(o, perms, swap=True)]
        assert list(base.embeddings) == expected
        assert {w for _, w in expected} <= {len(perms), 2 * len(perms)}
        stabilized["orders"] += any(w < 2 * len(perms) for _, w in expected)
        expected = [(p, len(_orbit_of(p, perms)))
                    for p in permutations(range(5), 2) if _first_of_orbit(p, perms)]
        assert list(base.pairs) == expected
        stabilized["pairs"] += any(w < len(perms) for _, w in expected)
        orders += len(base.embeddings)
        pairs += len(base.pairs)
    assert (orders, pairs) == (62, 108) and min(stabilized.values()) > 0


def test_extension_tables_match_quad_volumes(monkeypatch):
    """Every volume table that cases C, E, F, G and H read off a base's
    Extension in one classify_all is the one quad_volumes computes from
    the base's points and the new point: the volumes (Extension.volumes)
    at p4 of 62 embeddings in either search, whose cell test reads their
    table, and at the glued point of 426 gluing verdicts, whose
    coplanarity test reads them, and the table of each configuration built
    as a base plus one point (PointConfig._extended) once the cap rule
    keeps it: 2 in either search, 17 of F's 108 candidates and 32 of the
    gluing verdicts."""
    evaluated, built = [], []
    volumes, extended = Extension.volumes, PointConfig._extended.__func__

    def evaluate(ext, point):
        evaluated.append((ext.points + (point,), volumes(ext, point)))
        return evaluated[-1][1]

    def recorded(cls, ext, point):
        built.append(extended(cls, ext, point))
        return built[-1]

    monkeypatch.setattr(Extension, "volumes", evaluate)
    monkeypatch.setattr(PointConfig, "_extended", classmethod(recorded))
    classify6.classify_all()
    assert len(built) == 2 + 2 + 17 + 32
    assert len(evaluated) == 2 * 62 + 426 + len(built)
    for points, vols in evaluated:
        assert vols == quad_volumes(points)[:15], points
    for cfg in built:
        assert cfg.volumes() == quad_volumes(cfg.points), cfg


def test_cell_orbit_sizes(cell_orbits):
    """720 relabelings times two signs: 5.4 has no relabeling that flips
    the sign, 5.5 has one for every chirotope.  The cell test keeps four
    chirotopes of each orbit (_cell_chirotopes): the row's, as stored and
    with p2 and p3 swapped, each with both signs."""
    assert len(cell_orbits["5.4"]) == 1440
    assert len(cell_orbits["5.5"]) == 720
    assert {len(chi) for orbit in cell_orbits.values() for chi in orbit} == {15}
    for cell, orbit in cell_orbits.items():
        assert len(classify6._cell_chirotopes(cell)) == 4 and classify6._cell_chirotopes(cell) <= orbit


@pytest.mark.parametrize("accept_all", [False, True])
def test_glued_points_are_bound_checked(monkeypatch, fresh_gluing_tables, accept_all):
    """A glued point past the coordinate bound raises from run_case_gh,
    where check_point reads it before its verdict, also when the verdict
    would accept it: no verdict is made.  The glued points are placed
    once per process, with the walk (_gluing_tables), so the tables are
    built afresh here."""
    far = (COORD_BOUND + 1, 0, 0)
    monkeypatch.setattr(classify6, "_barycentric_image", lambda weights, vol, dst, dst_vol: far)
    verdict, made = classify6._glued_verdict, []

    def recorded(target, point, glued):
        made.append(point)
        return ("G", None, PointConfig._of_checked(target.config.points + (point,))) if accept_all \
            else verdict(target, point, glued)

    monkeypatch.setattr(classify6, "_glued_verdict", recorded)
    with pytest.raises(ValueError, match="exceeds bound"):
        classify6.run_case_gh()
    assert made == []


def test_embedded_points_are_bound_checked(monkeypatch):
    """p4 past the coordinate bound raises from the embedding search
    before its cell test reads the point's volumes."""
    calls = count_calls(monkeypatch, chirotope)
    read, volumes = [], Extension.volumes
    monkeypatch.setattr(Extension, "volumes", lambda ext, point: read.append(point) or volumes(ext, point))
    with pytest.raises(ValueError, match="exceeds bound"):
        list(classify6._embeddings41("5.4", (COORD_BOUND + 1, 0, 0), classify6._Funnel("C")))
    assert calls == {"chirotope": 0} and read == []


#: The eleven size-argument cross-check sites: runner, and the message its
#: first disagreement raises.
CROSS_CHECK_SITES = {
    "B.i": ("run_case_b", "B.i triangulation check failed at (0, 0)"),
    "B.ii": ("run_case_b", "B.ii triangulation check failed at (1, 2)"),
    "B.iii": ("run_case_b", "B.iii triangulation check failed at (-1, -2)"),
    "C edge": ("run_case_c", "C edge triangulation check failed at (-1, 0, 2)"),
    "C interior": ("run_case_c", "C interior triangulation check failed"),
    "C vertices": ("run_case_c", "C vertices triangulation check failed"),
    "D": ("run_case_d", "D triangulation check failed at (3, 3)"),
    "E": ("run_case_e", "E triangulation check failed"),
    "F": ("run_case_f", "F triangulation check failed in group 4.21"),
    "G": ("run_case_gh", "G triangulation check failed"),
    "H": ("run_case_gh", "H triangulation check failed"),
}


def _count_hulls_by_site(monkeypatch, count):
    """Patch classify6.size so that a hull count made inside _six_by_caps
    returns count(site, cfg) for its site; other counts are unchanged."""
    sites = []
    six_by_caps, hull_size = classify6._six_by_caps, classify6.size

    def at_site(cfg, caps, site, at=""):
        sites.append(site)
        try:
            return six_by_caps(cfg, caps, site, at)
        finally:
            sites.pop()

    monkeypatch.setattr(classify6, "_six_by_caps", at_site)
    monkeypatch.setattr(classify6, "size",
                        lambda cfg: count(sites[-1], cfg) if sites else hull_size(cfg))


def test_classify_all_cross_checks_at_every_site(monkeypatch):
    sites = set()

    def recorded(site, cfg):
        sites.add(site)
        return size(cfg)

    _count_hulls_by_site(monkeypatch, recorded)
    classify6.classify_all()
    assert sites == set(CROSS_CHECK_SITES)


@pytest.mark.parametrize("site", sorted(CROSS_CHECK_SITES))
def test_cross_check_site_raises_on_disagreement(monkeypatch, site):
    """A hull count that disagrees with the triangulation at one site
    raises that site's message."""
    runner, message = CROSS_CHECK_SITES[site]
    _count_hulls_by_site(monkeypatch, lambda at_site, cfg: 7 if at_site == site else size(cfg))
    with pytest.raises(classify6.ClassificationError) as err:
        getattr(classify6, runner)()
    assert str(err.value) == message


def test_case_b_11_hull_with_extra_points_raises(monkeypatch):
    """Subcase (1,1) has no rejection for extra lattice points: its region
    leaves none, so a non-empty cap there is an error, not a rejection.
    Every cap is made non-empty, so its first candidate, p6 = (0, 0, -1),
    raises."""
    monkeypatch.setattr(classify6, "_framed_empty", lambda x, y, h: False)
    with pytest.raises(classify6.ClassificationError,
                       match=re.escape("B.i candidate (0, 0) has extra points")):
        classify6.run_case_b()


def test_case_d_width_one_check_reads_x_plus_z(monkeypatch):
    """Case D rejects its apexes with a in {1, 2} as "width one (functional
    x+z)" on the range of x + z over the six points, with no width: a
    range other than 1 raises at the first such candidate, (1, 1)."""
    seen = []
    monkeypatch.setattr(classify6, "functional_range", lambda f, pts: seen.append(f) or 2)
    with pytest.raises(classify6.ClassificationError,
                       match=re.escape("D candidate (1, 1) should be width one")):
        classify6.run_case_d()
    assert seen == [(1, 0, 1)]


#: The error of each runner when every emptiness test of a cap (White's
#: congruence in its facet's frame, _framed_empty) is inverted.  A cap
#: that is empty is then rejected before any hull is counted, so B and D,
#: whose first caps are empty, end in their own checks; the others reach
#: a cross-check with a non-empty cap first.
INVERTED_EMPTINESS = {
    "run_case_b": "B.i candidate (0, 0) has extra points",
    "run_case_c": "C edge triangulation check failed at (1, 4, 6)",
    "run_case_d": "D survivors []",
    "run_case_e": "E triangulation check failed",
    "run_case_f": "F triangulation check failed in group 4.11",
    "run_case_gh": "G triangulation check failed",
}


@pytest.mark.parametrize("runner", sorted(INVERTED_EMPTINESS))
def test_inverted_emptiness_fails_the_cross_checks(monkeypatch, runner):
    def inverted(x, y, h):
        return not _framed_empty(x, y, h)

    monkeypatch.setattr(classify6, "_framed_empty", inverted)
    with pytest.raises(classify6.ClassificationError) as err:
        getattr(classify6, runner)()
    assert str(err.value) == INVERTED_EMPTINESS[runner]


def _cap_rule(points, facets):
    """classify6._caps of the last point over the _facet_table of the
    polytope on the others, as the caps' label quadruples and whether the
    cap rule finds every cap empty.  The caps are their oracle's, read in
    frames built from the points (caps_by_frames), and each cap's frame
    coordinates (x, y, h) are checked against its points: h is the cap's
    det4, and White's congruence says what the opposite-edge oracle says."""
    points = tuple(points)
    caps = classify6._caps(classify6._facet_table(points[:-1], facets), points[-1])
    assert caps == caps_by_frames(points, facets), points
    for labels, (x, y, h) in caps:
        quad = [points[i - 1] for i in labels]
        assert h == det4(*quad), labels
        assert _framed_empty(x, y, h) == is_empty_by_edges(quad), labels
    return tuple(labels for labels, _ in caps), all(_framed_empty(*xyh) for _, xyh in caps)


def _all_empty(points, quads):
    """Whether every tetrahedron of quads (1-based labels into points) holds
    no lattice point besides its vertices."""
    return all(white_type([points[i - 1] for i in quad]) is not None for quad in quads)


def _value(plane, p):
    a, b, c, o = plane
    return a * p[0] + b * p[1] + c * p[2] - o


def _edges(corners):
    """The edges (u, v) of a triangle, each with its opposite corner w."""
    c0, c1, c2 = corners
    return ((c0, c1, c2), (c1, c2, c0), (c2, c0, c1))


def _in_triangle(corners, p, q):
    """Whether p lies in the triangle corners; q is a point off its plane,
    so det4(u, v, q, p) has the sign of p's side of the edge line uv."""
    return det4(*corners, p) == 0 and all(det4(u, v, q, p) * det4(u, v, q, w) >= 0
                                          for u, v, w in _edges(corners))


def _separated(first, second, q):
    """Whether an edge line of the triangle first weakly separates it from
    the triangle second on the same plane; q is a point off that plane."""
    return any(all(det4(u, v, q, x) * det4(u, v, q, w) <= 0 for x in second)
               for u, v, w in _edges(first))


def _check_facet_table(labelled, facets):
    """What _caps needs of a facet table, on the polytope P of the points
    labelled (label -> point): P holds no other lattice point; each
    triangle lies on a hull facet of P and holds no lattice point besides
    its corners; each ref is a point of P strictly on P's side of that
    facet; and the triangles on each facet's plane cover the facet.

    Cover: the triangles on a plane have pairwise disjoint interiors (an
    edge line of one weakly separates them, which two convex polygons
    with disjoint interiors always admit), and each of their edges lies
    on a second facet, so on the facet's boundary, or is the edge of
    exactly one other triangle on the plane.  Their union then has no
    boundary inside the facet, so it is the facet."""
    points = list(labelled.values())
    assert lattice_points(PointConfig(points)) == tuple(sorted(points))
    planes = hull_facets(PointConfig(points))
    on_plane = {plane: [] for plane in planes}
    for *tri, ref in facets:
        corners = [labelled[i] for i in tri]
        (plane,) = [pl for pl in planes if all(_value(pl, p) == 0 for p in corners)]
        q = labelled[ref]
        assert _value(plane, q) > 0, (tri, ref)
        assert sorted(p for p in points if _in_triangle(corners, p, q)) == sorted(corners), tri
        on_plane[plane].append((tri, corners, q))
    for plane, tris in on_plane.items():
        assert tris, plane
        for (t1, c1, q), (t2, c2, _) in combinations(tris, 2):
            assert _separated(c1, c2, q) or _separated(c2, c1, q), (t1, t2)
        edges = Counter(frozenset(e) for tri, _, _ in tris for e in combinations(tri, 2))
        for edge, count in edges.items():
            ends = [labelled[i] for i in edge]
            on_boundary = any(pl != plane and all(_value(pl, p) == 0 for p in ends)
                              for pl in planes)
            assert count == (1 if on_boundary else 2), (plane, sorted(edge))


def test_base41_facets_are_empty_around_the_interior_point():
    """What the cap rule of cases F, G and H relies on, on each of the
    eight (4,1) bases (_check_facet_table): the four _BASE41_FACETS, empty
    triangles on its vertices p2..p5, cover its boundary, and their ref,
    the interior point p1, lies strictly inside each."""
    assert {ref for *_, ref in classify6._BASE41_FACETS} == {1}
    for cls5 in catalog41():
        _check_facet_table(dict(enumerate(cls5.representative.points, 1)), classify6._BASE41_FACETS)


def test_embedded41_facets_are_the_base_facets():
    """What the cap rule of the embedding searches relies on: every
    embedding either search yields is a catalog41() base, in its own
    order, followed by p4, and the base's facet table is the one over
    _BASE41_FACETS, which cover the boundary of its first five points
    (test_base41_facets_are_empty_around_the_interior_point);
    and p4 lies in the plane of the base facet on p1, p2 and p3, the base
    points a, b and c of the vertex order, so that facet is never a cap.
    Each search yields 54 of its 62 visited orders."""
    bases = {cls5.representative.points for cls5 in catalog41()}
    yielded = Counter()
    for case, cell, coeffs in EMBEDDING_SEARCHES:
        for base, p4, (a, b, c, _), _ in classify6._embeddings41(cell, coeffs, classify6._Funnel(case)):
            points = base.config.points + (p4,)
            assert points[:5] in bases
            assert base.facets == classify6._facet_table(points[:5], classify6._BASE41_FACETS)
            assert det4(*(points[k] for k in (a, b, c, 5))) == 0
            caps = classify6._caps(base.facets, p4)
            assert {a + 1, b + 1, c + 1} not in [set(labels[:3]) for labels, _ in caps]
            yielded[case] += 1
    assert yielded == {"C": 54, "E": 54}


B_LABELS = dict(enumerate(classify6._B_BASE, 1))

#: The pyramids that cases B, C and D extend by one point: their labelled
#: points and their facet table.  B and C's edge subcase put p5 at (0, 0, 1)
#: or (1, 2, 3); C's "both vertices" subcase lists p6 = (1, 2, 3) as label
#: 5, so its pyramid is the second one's, labels included.
PYRAMIDS = {
    "B-i-ii-C-edge": ({**B_LABELS, 5: (0, 0, 1)}, classify6._PYRAMID31_FACETS),
    "B-iii-C-edge": ({**B_LABELS, 5: (1, 2, 3)}, classify6._PYRAMID31_FACETS),
    "C-vertices": ({**B_LABELS, 5: (1, 2, 3)}, classify6._PYRAMID31_FACETS),
    "D": ({**dict(enumerate(classify6._D_BASE, 1)), 5: (0, 0, 1)}, classify6._D_FACETS),
}


@pytest.mark.parametrize("pyramid", sorted(PYRAMIDS))
def test_pyramid_facets_cover_the_boundary(pyramid):
    """What the cap rule of cases B, C and D relies on: each pyramid holds
    only its five points, and its table's triangles are empty and cover
    its boundary, each with a ref strictly inside (_check_facet_table)."""
    _check_facet_table(*PYRAMIDS[pyramid])


#: Tampered copies of D's facet table, each with the failure it raises:
#: the base triangle p1p2p4 left out (a free interior edge p1p4), listed
#: twice (an overlap), or with a ref in its plane.
D_BASE_TRIANGLE = (1, 2, 4, 5)
BAD_FACET_TABLES = {
    "gap": (tuple(f for f in classify6._D_FACETS if f != D_BASE_TRIANGLE),
            r"\(0, 0, 1, 0\), \[1, 4\]"),
    "overlap": ((D_BASE_TRIANGLE,) + classify6._D_FACETS, r"\[1, 2, 4\], \[1, 2, 4\]"),
    "ref in plane": (tuple((1, 2, 4, 3) if f == D_BASE_TRIANGLE else f for f in classify6._D_FACETS),
                     r"\[1, 2, 4\], 3"),
}


@pytest.mark.parametrize("tampering", sorted(BAD_FACET_TABLES))
def test_facet_table_check_rejects_a_bad_table(tampering):
    """_check_facet_table fails each tampered copy of D's table, which
    itself passes (test_pyramid_facets_cover_the_boundary)."""
    labelled, _ = PYRAMIDS["D"]
    table, message = BAD_FACET_TABLES[tampering]
    with pytest.raises(AssertionError, match=message):
        _check_facet_table(labelled, table)


@pytest.mark.parametrize("runner", ["run_case_b", "run_case_c"])
def test_non_unimodular_facet_triangle_raises(monkeypatch, runner):
    """A facet table whose triangle is not unimodular has no frame: the
    (3,1) pyramid's base triangle p2p3p4, listed whole instead of split
    around p1, raises from the first runner that reads it."""
    whole = ((2, 3, 4, 5),) + classify6._PYRAMID31_FACETS[3:]
    monkeypatch.setattr(classify6, "_PYRAMID31_FACETS", whole)
    with pytest.raises(classify6.ClassificationError,
                       match=re.escape("facet triangle (2, 3, 4) is not unimodular")):
        getattr(classify6, runner)()


def test_cap_rule_matches_size_on_case_c():
    """On all 400 "both vertices" candidates, listed as p1..p4, p6, p5,
    the cap rule keeps exactly the hulls of six points: only (1, 1),
    whose one cap is T2356, labels 2, 3, 5 and 6 in that order."""
    kept = []
    for a in range(1, classify6.SCAN_BOUND + 1):
        for b in range(1, classify6.SCAN_BOUND + 1):
            points = tuple(classify6._B_BASE + [(1, 2, 3), (a, b, 1)])
            caps, six = _cap_rule(points, classify6._PYRAMID31_FACETS)
            assert six == (size(PointConfig(points)) == 6), (a, b)
            if six:
                kept.append(((a, b), caps))
    assert kept == [((1, 1), ((2, 3, 5, 6),))]


#: The printed triangulation tetrahedra of seven of case B's candidates,
#: beyond the two 5-point subpolytopes, by (subcase, a, b); (ii, 2, 7) and
#: (ii, 2, 13) are the two with one that is not empty.
B_PRINTED_TETRAS = {
    ("ii", 1, 2): (), ("ii", 1, 5): ((2, 3, 5, 6),), ("ii", 2, 7): ((2, 3, 5, 6),),
    ("ii", 1, 8): ((2, 3, 5, 6), (3, 4, 5, 6)),
    ("ii", 2, 13): ((2, 3, 5, 6), (3, 4, 5, 6)),
    ("iii", -1, -2): (), ("iii", -1, 1): ((2, 3, 5, 6), (3, 4, 5, 6)),
}


def test_case_b_caps_are_the_printed_triangulations():
    """On each of case B's 18 candidates past its region and filters, p6
    sees the whole base, and the cap rule keeps exactly the hulls of six
    points, 16 of them; at the 7 printed candidates, the caps beyond the
    base split are the printed tetrahedra."""
    base_split = ((1, 2, 3, 6), (1, 3, 4, 6), (1, 4, 2, 6))
    seen, kept, printed = 0, 0, set()
    for tag, p5, h6, region, filters, _, _ in classify6._B_SUBCASES:
        for a, b in ((a, b) for a, bs in region for b in bs):
            if not all(test(a, b) for test, _ in filters):
                continue
            points = tuple(classify6._B_BASE + [p5, (a, b, h6)])
            caps, six = _cap_rule(points, classify6._PYRAMID31_FACETS)
            assert caps[:3] == base_split, (tag, a, b)
            assert six == (size(PointConfig(points)) == 6), (tag, a, b)
            seen, kept = seen + 1, kept + six
            if (tag, a, b) in B_PRINTED_TETRAS:
                assert caps[3:] == B_PRINTED_TETRAS[tag, a, b], (tag, a, b)
                printed.add((tag, a, b))
    assert (seen, kept) == (18, 16) and printed == set(B_PRINTED_TETRAS)


#: Case C's edge candidates, p5 and p6 = 2 p5 - p2 or 2 p5 - p1, with the
#: printed tetrahedra of their hulls beyond the pyramid conv(_B_BASE + p5).
C_EDGE_PRINTED = (
    ((0, 0, 1), (-1, 0, 2), ((3, 4, 5, 6),)),
    ((1, 2, 3), (1, 4, 6), ((3, 4, 5, 6),)),
    ((0, 0, 1), (0, 0, 2), ((2, 3, 5, 6), (2, 4, 5, 6), (3, 4, 5, 6))),
    ((1, 2, 3), (2, 4, 6), ((2, 3, 5, 6), (2, 4, 5, 6), (3, 4, 5, 6))),
)


def test_case_c_edge_caps_are_the_printed_tetrahedra():
    """The caps of each of C's four edge candidates are its printed
    tetrahedra, as label sets, and the cap rule keeps exactly the hulls
    of six points: all but p6 = (1, 4, 6), whose T3456 is not empty."""
    kept = []
    for p5, p6, printed in C_EDGE_PRINTED:
        points = tuple(classify6._B_BASE + [p5, p6])
        caps, six = _cap_rule(points, classify6._PYRAMID31_FACETS)
        assert sorted(map(sorted, caps)) == sorted(map(sorted, printed)), p6
        assert six == (size(PointConfig(points)) == 6), p6
        kept += [p6] if six else []
    assert kept == [(-1, 0, 2), (0, 0, 2), (2, 4, 6)]


def test_cap_rule_matches_size_on_case_d():
    """On case D's 35 region candidates with a >= 3, those whose width the
    runner does not reject, the cap rule keeps exactly the hulls of six
    points: (3, 3), (3, 4) and (4, 5)."""
    seen, kept = 0, []
    for a, b in classify6._scan_box():
        if not (3 <= a <= b and b < a + 2):
            continue
        seen += 1
        points = tuple(classify6._D_BASE + [(0, 0, 1), (a, b, -1)])
        _, six = _cap_rule(points, classify6._D_FACETS)
        assert six == (size(PointConfig(points)) == 6), (a, b)
        kept += [(a, b)] if six else []
    assert seen == 35 and kept == [(3, 3), (3, 4), (4, 5)]


def _f_group_triangulation(i, j):
    """The printed triangulation of a case-F survivor r3 = 2 r2 - r1 with
    r1, r2 the base's points i, j, as 1-based label quadruples."""
    others = [k + 1 for k in range(1, 5) if k not in (i, j)]
    r2, r3 = j + 1, 6
    if i == 0:  # 4.21
        return [(v, w, r2, r3) for v, w in combinations(others, 2)]
    if j == 0:  # 4.22
        return [(*others, r3)]
    return [(*others, r2, r3)]  # 4.11


def test_cap_rule_matches_size_on_case_f():
    """On all 160 candidates of case F the cap rule keeps exactly the
    hulls of six points, 49 of them, and their caps are the tetrahedra of
    the group's printed triangulation."""
    facets = tuple((*tri, 1) for tri in combinations(range(2, 6), 3))
    kept = 0
    for cls5 in catalog41():
        pts = cls5.representative.points
        for i, j in permutations(range(5), 2):
            r3 = tuple(2 * pts[j][t] - pts[i][t] for t in range(3))
            points = pts + (r3,)
            caps, six = _cap_rule(points, facets)
            assert six == (size(PointConfig(points)) == 6), points
            if six:
                kept += 1
                assert sorted(map(sorted, caps)) == sorted(map(sorted, _f_group_triangulation(i, j)))
    assert kept == 49


def test_cap_rule_matches_size_on_base_extensions():
    """Seeded one-point extensions of the eight (4,1) bases, random points
    of a box and points on each facet plane outside the facet (seen, but
    not strictly): the cap rule keeps exactly the hulls of six points."""
    rng = random.Random(20)
    facets = tuple((*tri, 1) for tri in combinations(range(2, 6), 3))
    kept = on_plane = 0
    for cls5 in catalog41():
        pts = cls5.representative.points
        extra = [tuple(rng.randint(-6, 6) for _ in range(3)) for _ in range(120)]
        for tri in facets:
            a, b, c = (pts[k - 1] for k in tri[:3])
            for s, t in ((-1, 0), (0, -1), (2, -1), (-1, 2), (-1, -1), (2, 2), (3, -1)):
                extra.append(tuple(a[k] + s * (b[k] - a[k]) + t * (c[k] - a[k]) for k in range(3)))
        for p in extra:
            if p in pts:
                continue
            points = pts + (p,)
            on_plane += any(det4(*(pts[k - 1] for k in tri[:3]), p) == 0 for tri in facets)
            _, six = _cap_rule(points, facets)
            assert six == (size(PointConfig(points)) == 6), points
            kept += six
    assert kept > 0 and on_plane >= 8 * 4 * 7


def _two_side(circ):
    """The two-point side of a (3,2)-circuit, as point indices."""
    return set(circ.positive if len(circ.positive) == 2 else circ.negative)


def _gh_printed_triangulation(cfg, case, ex_s, glued_interior):
    """The printed size argument of a glued configuration of case G or H,
    as 1-based label quadruples, with the point roles read off its
    (3,2)-circuits.  cfg is the target base's five points, interior point
    first, followed by the new point; ex_s is the target vertex left out
    of the gluing, and glued_interior the source's interior point.

    G: the hull is the base plus one cut tetrahedron on the quadrilateral
    facet the new point sweeps.  The circuits whose two-point side leaves
    out the interior point all share one such side; the cut tetrahedron
    leaves out the interior point and the point of that side other than
    ex_s and the new point.  H: one glued copy plus five tetrahedra over
    the edge from the base interior point to the new point.  That edge is
    one circuit's two-point side; its three-point side holds the glued
    interior point, ex_s and one further vertex, and the other two-point
    side {glued interior, ex_s} is a circuit's too.
    """
    circs = [c for c in circuits(cfg) if c.signature == (3, 2)]
    if case == "G":
        pairs = {frozenset(_two_side(c)) for c in circs if 0 not in _two_side(c)}
        assert len(pairs) == 1, "ambiguous circuit structure in case G"
        rest = set(pairs.pop()) - {ex_s, 5}
        assert len(rest) == 1, "no usable circuit in case G"
        return [tuple(k + 1 for k in range(6) if k not in {0} | rest)]
    glued = cfg.points.index(glued_interior)
    edge = [c for c in circs if _two_side(c) == {0, 5}]
    assert len(edge) == 1, "ambiguous circuit structure in case H"
    three = set(edge[0].support) - {0, 5}
    assert three >= {glued, ex_s}, "unexpected circuit support in case H"
    (across,) = three - {glued, ex_s}
    (last,) = set(range(6)) - {0, 5, glued, ex_s, across}
    assert any(_two_side(c) == {glued, ex_s} for c in circs), "missing counterpart circuit in case H"
    quads = ((glued, across), (glued, last), (glued, 0), (across, 0), (last, 0))
    return [(a + 1, b + 1, 6, ex_s + 1) for a, b in quads]


def test_gh_cap_rule_matches_printed_triangulations(literal_gh):
    """On every verdict of the literal-keyed loop that reaches case G or
    H, the printed triangulation, the cap rule and the hull agree on
    whether the gluing has six lattice points, and the verdict accepts
    exactly those.  G's cut tetrahedron is its one cap where the new point
    sees one base facet; where it sees two, the cut tetrahedron is no cap.
    H's new point always sees three base facets."""
    seen = Counter()
    for (_, _, ex_s, glued), (case, reason, cfg) in literal_gh.verdicts.items():
        if case == "shared":
            continue
        printed = _gh_printed_triangulation(cfg, case, ex_s, glued)
        caps, kept = _cap_rule(cfg.points, classify6._BASE41_FACETS)
        six = size(cfg) == 6
        assert _all_empty(cfg.points, printed) == six, (case, cfg)
        assert kept == six, (case, cfg)
        assert (reason is None) == six
        if case == "G":
            assert (set(printed[0]) in map(set, caps)) == (len(caps) == 1), cfg
        seen[case, len(caps), six] += 1
    assert seen == {("G", 1, True): 25, ("G", 1, False): 21, ("G", 2, True): 98,
                    ("G", 2, False): 47, ("H", 3, True): 106, ("H", 3, False): 114}


def test_quad_volume_coplanarity_matches_circuits(literal_gh):
    """The gluing verdict's coplanarity test, a zero among the 15 quadruple
    volumes, says what the circuits say on all 1,532 verdict configurations
    of the literal-keyed loop (the verdict rejects exactly those for
    coplanarity), and the two tests agree on seeded full-dimensional
    six-point sets of a small box."""
    verdicts = literal_gh.verdicts
    assert len(verdicts) == 1532
    coplanar = 0
    for _, reason, glued in verdicts.values():
        cfg = PointConfig(glued.points)
        expected = coplanarity_from_circuits(circuits(cfg)) != NO_COPLANARITY
        assert (reason == "coplanarity present") == expected
        assert (0 in quad_volumes(cfg.points)) == expected
        coplanar += expected
    assert 0 < coplanar < 1532
    rng = random.Random(21)
    seen = Counter()
    while sum(seen.values()) < 600:
        points = {tuple(rng.randint(-2, 2) for _ in range(3)) for _ in range(6)}
        cfg = PointConfig(sorted(points)) if len(points) == 6 else None
        if cfg is None or not cfg.is_full_dimensional():
            continue
        expected = coplanarity_from_circuits(circuits(cfg)) != NO_COPLANARITY
        assert (0 in quad_volumes(cfg.points)) == expected, cfg
        seen[expected] += 1
    assert min(seen.values()) > 50


def test_run_case_reports_one_case(case_reports):
    for case, report in by_case(case_reports).items():
        assert classify6.run_case(case) == report
    for bad in ("", "I", "GH", "all"):
        with pytest.raises(ValueError):
            classify6.run_case(bad)


def test_case_f_checks_its_one_21_circuit(monkeypatch):
    """A case F survivor whose circuits hold a second (2,1)-circuit, here
    the first one listed twice, fails the run."""
    def doubled(cfg):
        circs = circuits(cfg)
        return circs + tuple(c for c in circs if c.signature == (2, 1))

    monkeypatch.setattr(classify6, "circuits", doubled)
    with pytest.raises(classify6.ClassificationError,
                       match=re.escape("expected exactly one (2,1)-circuit")):
        classify6.run_case_f()


def test_case_f_splits_by_catalog_label(case_reports):
    found = by_case(case_reports)["F"].classes_found
    groups = {}
    for cls in found:
        groups.setdefault(cls.om_label, 0)
        groups[cls.om_label] += 1
    assert sorted(groups.values(), reverse=True) == [6, 6, 5]


def _relabeled_case_f(monkeypatch, change):
    """Make _Funnel.report hand run_case_f its report with the classes changed."""
    report = classify6._Funnel.report

    def changed(*args):
        made = report(*args)
        return dataclasses.replace(made, classes_found=change(made.classes_found))

    monkeypatch.setattr(classify6._Funnel, "report", changed)


def test_case_f_checks_each_class_against_its_group(monkeypatch):
    """A case F class listed under another group's oriented matroid, or a
    group short of a class, fails the run."""
    def swap_first(classes):
        first, *rest = classes
        other = next(c.om_label for c in rest if c.om_label != first.om_label)
        return (dataclasses.replace(first, om_label=other), *rest)

    _relabeled_case_f(monkeypatch, swap_first)
    with pytest.raises(classify6.ClassificationError, match=r"^F\.1: group 4\.\d+ is not its oriented matroid"):
        classify6.run_case_f()
    monkeypatch.undo()
    _relabeled_case_f(monkeypatch, lambda classes: classes[1:])
    with pytest.raises(classify6.ClassificationError, match=re.escape("F group counts")):
        classify6.run_case_f()


def test_identify(bundle):
    assert identify(bundle.rows_by_id["A.1"].config()) == "A.1"
    assert identify(bundle.rows_by_id["H.12"].config()) == "H.12"
    # width one: outside the classification
    assert identify(width1_family("(3,3)/6.4", (1, 1, 2, 3))) is None
    assert identify(sporadic5((2, 2), 1)) is None


def test_identify_generated_configs(case_reports, bundle):
    for r in by_case(case_reports).values():
        for cls in r.classes_found:
            assert identify(cls.generated) == cls.id


def _gate_passers(bundle):
    """The rows, four seeded relabeled unimodular images of each, and
    every six-point set that moves one point of those by a unit vector
    and passes the gate of |volumes|, each point set once."""
    rng = random.Random(45)
    images = [img for row in bundle.class_rows for img in [row.config()] + [
        shuffled(rng, apply_map(random_unimodular(rng), row.config())) for _ in range(4)]]
    units = [u for u in product((-1, 0, 1), repeat=3) if any(u)]
    seen, moved = set(), []
    for img in images:
        for i, u in product(range(6), units):
            pts = list(img.points)
            pts[i] = tuple(map(add, pts[i], u))
            if len(set(pts)) == 6 and frozenset(pts) not in seen:
                seen.add(frozenset(pts))
                cfg = PointConfig(pts)
                if _profile(cfg) in classify6._class_rows().gate:
                    moved.append(cfg)
    return images, moved


def test_named_row_matches_the_key_index_oracle(bundle, monkeypatch):
    """identify and _class_rows name the row that the normal-form key names
    (equivalence_oracles.key_named_row), with a witness map onto the
    row's points, on the rows and four seeded images of each (the twins
    G.5/G.12 and G.6/G.9 share their profile, so the least table
    decides), on SIZE7_IN_GATE, and on over 2,000 unit moves of those
    that pass the gate: some are images of a row, some of none, and some
    have the least table of a row they are not an image of.  Normal
    forms are taken on that miss path alone, two per such row."""
    images, moved = _gate_passers(bundle)
    assert len(moved) >= 2000
    gate = classify6._class_rows().gate
    for a, b in (("G.5", "G.12"), ("G.6", "G.9")):
        assert [rid for rid, _ in gate[_profile(bundle.rows_by_id[a].config())]] == [a, b]
    keys = {row.id: key for key, (row, _, _) in row_key_index().items()}
    calls = count_calls(monkeypatch, normal_form)
    misses, named = 0, Counter()
    for cfg in images + [PointConfig(SIZE7_IN_GATE)] + moved:
        expected = key_named_row(cfg)
        assert identify(cfg) == expected, cfg
        got = classify6._class_rows().name(cfg)
        if expected is None:
            assert got is None, cfg
        else:
            rid, rep, (perm, m) = got
            assert rid == expected and rep.points == bundle.rows_by_id[rid].representative, cfg
            assert abs(m.det) == 1 and [m.apply(p) for p in cfg] == [rep[j] for j in perm], cfg
        named[expected is not None] += 1
        key = oracle_normal_form(cfg)[0]
        for rid, _ in gate[_profile(cfg)]:
            if rid == expected:
                break
            misses += keys[rid][0] == key[0]
    assert named[True] > len(images) and named[False] > 100 and misses > 10, (named, misses)
    assert calls == {"normal_form": 2 * 2 * misses}


def test_row_index_rejects_equivalent_rows(bundle, monkeypatch):
    """A table row that is a relabeled image of another row has its
    profile, its least table and a witness map onto it, so the first
    query that passes the row set's gate, which builds the rows' stages,
    fails instead of listing one class twice."""
    rng = random.Random(14)
    row = bundle.rows_by_id["B.14"]
    img = shuffled(rng, apply_map(random_unimodular(rng), row.config()))
    twin = dataclasses.replace(row, id="B.16", representative=img.points)
    rows = (*bundle.class_rows, twin)
    tampered = types.SimpleNamespace(class_rows=rows, rows_by_id={r.id: r for r in rows})
    monkeypatch.setattr(classify6, "load_tables", lambda: tampered)
    classify6._class_rows.cache_clear()
    try:
        with pytest.raises(classify6.ClassificationError, match="^B.14 and B.16 coincide$"):
            identify(row.config())
    finally:
        monkeypatch.undo()
        classify6._class_rows.cache_clear()


def test_set_up_identify_builds_the_row_index_without_edge_forms(bundle, monkeypatch):
    """The first identify of a process builds the row set and its stages:
    76 least tables and their orders, with no Hermite form (edge_form)
    and no normal form, and the witness that names A.1."""
    classify6._class_rows.cache_clear()
    calls = count_calls(monkeypatch, edge_form, normal_form)
    assert identify(bundle.class_rows[0].config()) == "A.1"
    rows = classify6._class_rows()
    assert "_stages" in vars(rows) and len(rows._stages) == 76
    assert calls == {"edge_form": 0, "normal_form": 0}


def test_width1_family_members():
    c = width1_family("(3,3)/6.4", (1, 1, 2, 3))
    assert size(c) == 6
    assert width(c)[0] == 1
    c = width1_family("(4,2)/5.6", (3, 1))
    assert size(c) == 6 and width(c)[0] == 1 and pair_sums_distinct(lattice_points(c))
    c = width1_family("(5,1)/3.2")
    assert size(c) == 6 and width(c)[0] == 1


def test_width1_family_all_members(bundle):
    singles = [f"{s['table']}/{s['om_label']}" for s in bundle.width1_families["singles"]]
    assert len(singles) == 17
    for name in singles:
        c = width1_family(name)
        assert size(c) == 6 and width(c)[0] == 1, name
    samples = {
        "(4,2)/4.1": [(1, 0), (2, 1)],
        "(4,2)/5.6": [(3, 1), (3, 2)],
        "(4,2)/5.8": [(2, 1), (3, 1)],
        "(4,2)/4.15": [(2, 1), (3, 2)],
        "(4,2)/4.9": [(2, 1), (3, 2)],
        "(3,3)/2.1": [(1, 0), (3, 1)],
        "(3,3)/4.15": [(1, 1), (2, 1)],
        "(3,3)/5.8": [(2,), (5,)],
        "(3,3)/5.15": [(4,), (6,)],
        "(3,3)/6.4": [(1, 1, 2, 3), (2, 1, 3, 2)],
    }
    family_ids = [f["family_id"] for f in bundle.width1_families["families"]]
    assert sorted(samples) == sorted(family_ids)
    for name, plist in samples.items():
        for params in plist:
            c = width1_family(name, params)
            assert size(c) == 6 and width(c)[0] == 1, (name, params)


def test_width1_family_rejects_bad_input():
    with pytest.raises(BadParameters):
        width1_family("no/such.family")
    with pytest.raises(BadParameters):
        width1_family("(4,2)/5.6", (9, 3))  # parameters not coprime
    with pytest.raises(BadParameters):
        width1_family("(4,2)/5.6", (2, 1))  # the excluded 2b = a line
    with pytest.raises(BadParameters):
        width1_family("(3,3)/5.15", (2,))  # below the allowed range
    with pytest.raises(BadParameters):
        width1_family("(3,3)/6.4", (1, 2, 1, 3))  # a = c: the top edge is parallel to a base edge
    with pytest.raises(BadParameters):
        width1_family("(3,3)/6.4", (1, 1, 2, 1))  # b = d: likewise
    with pytest.raises(BadParameters, match="not all integers"):
        width1_family("(4,2)/4.1", (2.9, 1.2))  # int() would truncate to (2, 1)
    with pytest.raises(BadParameters, match="not all integers"):
        width1_family("(4,2)/4.1", ("2", True))  # int() would read (2, 1)


def test_no_octahedron_smoke():
    assert no_octahedron_check(2)
    with pytest.raises(BadParameters):
        no_octahedron_check(1)


def test_export_import_json_round_trip(case_reports):
    classes = by_case(case_reports)["A"].classes_found
    parsed = json.loads(export_json(classes))
    assert [p["id"] for p in parsed] == ["A.1", "A.2"]
    for orig, copy in zip(classes, parsed):
        assert copy["id"] == orig.id
        assert copy["om_label"] == orig.om_label
        assert tuple(copy["volume_vector"]) == orig.volume_vector
        assert copy["width"] == orig.width
        assert tuple(copy["functional"]) == orig.functional
        assert PointConfig(copy["representative"]).points == orig.representative.points
        assert copy["dps"] == orig.dps


def test_export_csv_shape(case_reports):
    classes = by_case(case_reports)["D"].classes_found
    lines = export_csv(classes).strip().splitlines()
    assert lines[0] == "id,om_label,volume_vector,width,functional,representative,dps"
    assert len(lines) == 1 + len(classes)
    assert lines[1].startswith("D.1,")
