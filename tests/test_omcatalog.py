"""The catalog of rank-4 oriented matroids on six elements."""

import random
from itertools import combinations

import omcatalog_oracles as oracle
from conftest import apply_map, count_calls, random_unimodular, shuffled
from lattice6 import omcatalog
from lattice6.exactlinalg import det4, dot
from lattice6.invariants import SignedCircuit, circuits, coplanarity_class, pair_sums_distinct
from lattice6.omcatalog import canonical_circuit_form, enumerate_oms
from lattice6.polytope import PointConfig, hull_facets, hull_summary, lattice_points
from omcatalog_oracles import match_om


def test_catalog_has_55_records():
    records = enumerate_oms()
    assert len(records) == 55
    assert len({r.key for r in records}) == 55


def test_four_uniform_records():
    uniform = [
        r for r in enumerate_oms()
        if len(r.circuits) == 6
        and all(len(c.positive) + len(c.negative) == 5 for c in r.circuits)
    ]
    assert len(uniform) == 4


def test_record_statistics_are_self_consistent():
    """The oracle's statistics of every record are those of six points in
    3-space: 4..6 vertices, at most two interior points."""
    stats = oracle.record_statistics()
    assert sorted(stats) == sorted(r.key for r in enumerate_oms())
    for r in enumerate_oms():
        s = stats[r.key]
        assert 4 <= s["nvertices"] <= 6
        assert 0 <= s["ninterior"] <= 2
        assert s["nvertices"] + s["ninterior"] <= 6


def _spanning_sets(rng, count):
    """Random 6-point sets in [0,2]^3 that span 3-space."""
    box = [(x, y, z) for x in range(3) for y in range(3) for z in range(3)]
    while count:
        pts = rng.sample(box, 6)
        if any(det4(*q) for q in combinations(pts, 4)):
            count -= 1
            yield PointConfig(pts)


#: Record c4.20 relabeled by (5, 3, 2, 0, 1, 4), spelled out so that it
#: does not depend on the catalog.  It reaches the minimal form only with
#: the negative side of one of its two (2,2)-circuits sent to labels 0, 1.
C420_RELABELED = (
    SignedCircuit((0, 2), (3, 5)),
    SignedCircuit((1, 2, 4), (3, 5)),
    SignedCircuit((0, 3, 5), (1, 4)),
    SignedCircuit((0, 2), (1, 4)),
)


def _least_side_sizes(circs):
    """Least (smaller side, larger side) sizes over the circuits."""
    return min(tuple(sorted((len(c.positive), len(c.negative)))) for c in circs)


def test_canonical_form_matches_oracle(bundle):
    """Same form as the 720-relabeling oracle.

    The records whose least circuit has two equal sides get twelve
    relabelings each: some reach the minimum only with the circuit's
    negative side sent to labels 0 and 1, as C420_RELABELED does.
    """
    rng = random.Random(5)
    inputs = []
    for rec in enumerate_oms():
        s, t = _least_side_sizes(rec.circuits)
        for _ in range(12 if s == t else 3):
            perm = list(range(6))
            rng.shuffle(perm)
            inputs.append(tuple(oracle.relabeled(c, perm) for c in rec.circuits))
    inputs.append(C420_RELABELED)
    inputs += [circuits(row.config()) for row in bundle.class_rows]
    inputs += [circuits(c) for c in _spanning_sets(rng, 40)]
    for circs in inputs:
        assert canonical_circuit_form(circs) == oracle.canonical_circuit_form(circs)


def test_candidate_relabelings_per_record():
    """The bound the module docstring states: at most 96 of the 720."""
    counts = [len(omcatalog._first_key_relabelings([omcatalog._masks(c) for c in rec.circuits]))
              for rec in enumerate_oms()]
    assert max(counts) == 96


def test_dual_circuits_match_determinant_oracle():
    """Sides read off the line order and the ray sign are those of the
    determinants against increasing directions, on every line sequence;
    376 of the 1,033 sequences are not totally cyclic."""
    duals = list(omcatalog._iter_duals())
    got = [omcatalog._dual_circuits(lines) for lines, _ in duals]
    assert got == [oracle.dual_circuits(lines) for lines, _ in duals]
    assert (len(duals), got.count(None)) == (1033, 376)


def test_catalog_built_on_oracle_is_identical(monkeypatch):
    assert list(omcatalog._iter_duals()) == list(oracle.iter_duals())
    records = enumerate_oms()  # built and cached before the patches
    monkeypatch.setattr(omcatalog, "canonical_circuit_form", oracle.canonical_circuit_form)
    monkeypatch.setattr(omcatalog, "_iter_duals", oracle.iter_duals)
    monkeypatch.setattr(omcatalog, "_dual_circuits", oracle.dual_circuits)
    assert omcatalog.enumerate_oms.__wrapped__() == records


def test_catalog_build_takes_each_canonical_dual_once(monkeypatch):
    """One circuit computation per canonical dual (87, of which 32 are not
    totally cyclic) and one canonical circuit form per record."""
    calls = count_calls(monkeypatch, omcatalog._dual_circuits, omcatalog.canonical_circuit_form)
    assert len(omcatalog.enumerate_oms.__wrapped__()) == 55
    assert calls == {"_dual_circuits": 87, "canonical_circuit_form": 55}


def test_match_agrees_with_geometry(bundle):
    """The oracle's statistics of the matched record against the hull of
    the points: all 76 rows, then random spanning sets, whose hulls may
    hold more lattice points than the configuration."""
    rows = [row.config() for row in bundle.class_rows]
    for i, c in enumerate(rows + list(_spanning_sets(random.Random(13), 50))):
        rec = match_om(c)
        stats = oracle.record_statistics()[rec.key]
        facets = hull_facets(c)
        inside = [p for p in c.points if all(dot(f[:3], p) > f[3] for f in facets)]
        assert stats["nvertices"] == len(hull_summary(c)[2]), c
        assert stats["ninterior"] == len(inside), c
        assert stats["coplanarity"] == coplanarity_class(c), c
        assert len(rec.circuits) == len(circuits(c)), c
        if i < len(rows):
            assert stats["ninterior"] == len(hull_summary(c)[1]), c
            assert stats["dps"] == pair_sums_distinct(lattice_points(c)), c


def test_match_is_invariant(bundle):
    rng = random.Random(3)
    for cid in ("A.1", "F.4", "G.19"):
        c = bundle.rows_by_id[cid].config()
        key = match_om(c).key
        img = shuffled(rng, apply_map(random_unimodular(rng), c))
        assert match_om(img).key == key


def test_table_realizes_22_records(bundle):
    realized = {match_om(row.config()).key for row in bundle.class_rows}
    assert len(realized) == 22
    flagged = {cell.label for cell in bundle.om_cells if cell.realized}
    assert flagged == {row.om_label for row in bundle.class_rows}


def test_every_small_configuration_matches():
    """Any affinely spanning 6-point set realizes a catalog record."""
    for config in _spanning_sets(random.Random(9), 50):
        assert match_om(config) in enumerate_oms()
