"""Bundled classification tables: integrity checks and cross-statistics."""

import copy
import dataclasses
import hashlib
import json
import math
import shutil
import types
from pathlib import Path

import pytest

from lattice6 import classify6, tablesdata
from lattice6.omcatalog import enumerate_oms
from lattice6.polytope import hull_summary, size
from lattice6.tablesdata import CorruptData, load_tables
from omcatalog_oracles import record_statistics
from table_checks import (
    GCD_EXCEPTIONS,
    interior_count,
    key_candidates,
    result2_histogram,
    shape_of,
    validate_tables,
    width1_mismatches,
)

EXPECTED_RESULT2 = {
    "tetrahedron, 2 interior": 23,
    "tetrahedron, 1 interior": 11,
    "tetrahedron, 0 interior": 2,
    "square pyramid, 1 interior": 3,
    "bipyramid, 1 interior": 35,
    "square pyramid, 0 interior": 1,
    "bipyramid, 0 interior": 1,
}


def test_validation_is_clean(bundle):
    report = validate_tables(bundle)
    assert report.mismatches == ()
    assert report.rows_checked >= 76
    assert report.om_groups == 22
    assert report.notes == ("headline count table deviates from grid in: (2,1), (2,2)",)


@pytest.mark.parametrize("column, value, mismatches", [
    ("dps", False, ("G.1: dps flag mismatch", "dps count mismatch")),
    ("width", 3, ("G.1: recomputed width 2 != 3", "G.1: functional is not a width witness",
                  "width histogram {'2': 73, '3': 3}")),
    ("om_label", "6.1", ("G.1: matched c6.02, label map disagrees",
                         "G.1: c6.02 carries labels ('6.2',), not only 6.1",
                         "label 6.1: rows match distinct records ['c6.01', 'c6.02']")),
])
def test_validation_catches_a_changed_column(bundle, column, value, mismatches):
    """classify takes each class's width, oriented matroid label and dps
    flag from its row, so these checks are what catch a row whose column
    disagrees with its points: one changed column of G.1 (width 2,
    label 6.2, dps) gives its own mismatches."""
    row = bundle.rows_by_id["G.1"]
    changed = dataclasses.replace(row, **{column: value})
    rows = tuple(changed if r is row else r for r in bundle.class_rows)
    report = validate_tables(dataclasses.replace(bundle, class_rows=rows))
    assert report.mismatches == mismatches


def test_validation_catches_a_duplicate_width_one_single(bundle):
    """The width-one single (4,2)/4.7 once held a second image of
    (4,2)/4.16's class, c4.19, where the c4.18 representative now stands:
    those points give the one mismatch that one map joins two singles of
    different labels."""
    families = copy.deepcopy(bundle.width1_families)
    (single,) = [r for r in families["singles"] if (r["table"], r["om_label"]) == ("(4,2)", "4.7")]
    single["points"] = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [-1, -1, 0], [0, 0, 1], [1, 1, 1]]
    report = validate_tables(dataclasses.replace(bundle, width1_families=families))
    assert report.mismatches == ("width-one singles (4,2)/4.16 and (4,2)/4.7 are one class",)


def test_width_one_check_catches_a_member_of_another_record(bundle, monkeypatch):
    """(3,3)/6.4 once admitted members with a = c or b = d, whose top edge
    is parallel to a base edge: their record is c5.13, not the family's
    c6.04, while the records of all members were still the eight family
    records.  With those constraints back, the check of each member's
    record names the six such members with parameters up to 4."""
    top = classify6._w33_top

    def lax_top(name, params):
        if name == "(3,3)/6.4":
            a, b, c, d = params
            if a * d - b * c in (1, -1) and min(params) > 0 and c + d > a + b:
                return ((0, 0), (a, b), (c, d))
        return top(name, params)

    monkeypatch.setattr(classify6, "_w33_top", lax_top)
    members = [(1, 1, 1, 2), (1, 1, 2, 1), (1, 2, 1, 3), (1, 3, 1, 4), (2, 1, 3, 1), (3, 1, 4, 1)]
    labels = bundle.labels_by_key["c5.13"]
    assert width1_mismatches(bundle) == [f"width-one family (3,3)/6.4 member {params}: c5.13 carries labels {labels}"
                                         for params in members]


def test_volume_vector_gcds(bundle):
    report = validate_tables(bundle)
    assert GCD_EXCEPTIONS == {"A.1": 2, "A.2": 2, "B.14": 3, "B.15": 3, "C.3": 3}
    for row in bundle.class_rows:
        expected = GCD_EXCEPTIONS.get(row.id, 1)
        assert math.gcd(*row.volume_vector) == expected, row.id
        assert report.gcds[row.id] == expected


def test_row_counts(bundle):
    assert len(bundle.class_rows) == 76
    assert len(bundle.size5_rows) == 13
    assert len(bundle.om_cells) == 55


def _grid_column(name):
    """A label column of the oriented-matroid grid resource that only the
    tests read, loaded with its checksum check."""
    return frozenset(tablesdata._load_resource("om_cells")[name])


def test_result_counts():
    rc = tablesdata._load_resource("result_counts")
    assert rc["per_case"] == {"A": 2, "B": 15, "C": 6, "D": 2, "E": 2,
                              "F": 17, "G": 20, "H": 12}
    assert sum(rc["per_case"].values()) == 76
    assert rc["width_histogram"] == {"2": 74, "3": 2}
    assert rc["dps_count"] == 45
    assert rc["result2"] == EXPECTED_RESULT2


def test_result2_histogram_recomputes(bundle):
    configs = [row.config() for row in bundle.class_rows]
    assert result2_histogram(configs) == EXPECTED_RESULT2


def test_shape_helpers(bundle):
    h12 = bundle.rows_by_id["H.12"].config()
    assert shape_of(h12) == "tetrahedron"
    assert interior_count(h12) == 2
    g1 = bundle.rows_by_id["G.1"].config()
    assert shape_of(g1) == "bipyramid"
    assert interior_count(g1) == 1


def test_lookup_helpers(bundle):
    row = bundle.rows_by_id["F.3"]
    assert row.id == "F.3" and row.case == "F"
    with pytest.raises(KeyError):
        bundle.rows_by_id["F.99"]
    cell = bundle.cells_by_label[row.om_label]
    assert cell.label == row.om_label
    assert cell.realized


def test_ambiguous_labels(bundle):
    ambiguous = tablesdata._load_resource("om_labels")["ambiguous"]
    assert len(ambiguous) == 3
    for pair in ambiguous:
        assert len(pair["keys"]) == 2 and len(pair["labels"]) == 2
        for key in pair["keys"]:
            assert set(bundle.labels_by_key[key]) == set(pair["labels"])
        for label in pair["labels"]:
            assert set(key_candidates(label)) == set(pair["keys"])


def test_unambiguous_label_resolves_to_one_key(bundle):
    keys = key_candidates("3.2")
    assert len(keys) == 1
    assert bundle.labels_by_key[keys[0]] == ("3.2",)


def test_never_realized_labels(bundle):
    never_realized = _grid_column("never_realized")
    assert len(never_realized) == 6
    realized = {row.om_label for row in bundle.class_rows}
    assert not never_realized & realized
    for cell in bundle.om_cells:
        if cell.label in never_realized:
            assert not cell.realized


def test_width_one_labels(bundle):
    """width_one flags mark the labels covered by the bundled width-1 constructors;
    the six never-realized labels are the remaining hollow width-one shapes."""
    width_one = {cell.label for cell in bundle.om_cells if cell.width_one}
    fams = bundle.width1_families
    covered = {s["om_label"] for s in fams["singles"]}
    covered |= {f["family_id"].split("/")[1] for f in fams["families"]}
    assert width_one == covered
    assert len(width_one) == 20
    howe_width_one = _grid_column("howe_width_one")
    assert len(howe_width_one) == 12
    assert howe_width_one - width_one == _grid_column("never_realized")
    realized = {row.om_label for row in bundle.class_rows}
    for cell in bundle.om_cells:
        assert cell.realized == (cell.label in realized)


def test_cells_match_catalog_records(bundle):
    """Each cell has a candidate record whose oracle statistics and
    circuit count are the cell's."""
    by_key = {r.key: r for r in enumerate_oms()}
    stats = record_statistics()
    for cell in bundle.om_cells:
        keys = key_candidates(cell.label)
        assert keys
        assert any(
            stats[k]["coplanarity"] == cell.coplanarity
            and stats[k]["nvertices"] == cell.vertices
            and stats[k]["ninterior"] == cell.interior
            and len(by_key[k].circuits) == cell.n_circuits
            and stats[k]["dps"] == cell.dps
            for k in keys
        ), cell.label


def test_representatives_have_advertised_shape(bundle):
    cells = {cell.label: cell for cell in bundle.om_cells}
    for row in bundle.class_rows[:10]:
        c = row.config()
        assert size(c) == 6
        cell = cells[row.om_label]
        assert len(hull_summary(c)[2]) == cell.vertices
        assert len(hull_summary(c)[1]) == cell.interior


def _rechecksum(path, edit):
    """Apply edit to a resource's payload and store it with a matching sha256."""
    blob = json.loads(path.read_text())
    edit(blob["payload"])
    blob["sha256"] = hashlib.sha256(tablesdata._canonical(blob["payload"]).encode()).hexdigest()
    path.write_text(json.dumps(blob))


def _setting(path, value):
    """A tampering that sets the payload entry at path (keys and indices)
    to value."""
    *head, last = path

    def edit(payload):
        for key in head:
            payload = payload[key]
        payload[last] = value

    return lambda p: _rechecksum(p, edit)


#: CorruptData message: (resource, how its file is tampered with).
TAMPERINGS = {
    "checksum mismatch": ("om_cells", lambda p: p.write_text(p.read_text().replace("true", "false", 1))),
    "invalid JSON": ("classes76", lambda p: p.write_text('{"sha256": ')),
    "unexpected resource layout": ("size5", lambda p: p.write_text('{"payload": {}}')),
    "resource missing": ("width1_families", Path.unlink),
    "expected 76 distinct rows": ("classes76", lambda p: _rechecksum(p, lambda pl: pl["classes"].pop())),
    "bad row A.1": ("classes76",
                    lambda p: _rechecksum(p, lambda pl: pl["classes"][0]["representative"].pop())),
    "expected 55 rows": ("om_cells", lambda p: _rechecksum(p, lambda pl: pl["cells"].pop())),
    "map does not cover the grid": ("om_labels",
                                    lambda p: _rechecksum(p, lambda pl: pl["map"].pop("2.1"))),
    "row A.1 lacks dps": ("classes76",
                          lambda p: _rechecksum(p, lambda pl: pl["classes"][0].pop("dps"))),
    "bad row A.1: 2 coordinates": ("classes76",
                                   lambda p: _rechecksum(p, lambda pl: pl["classes"][0]["functional"].pop())),
    "cell 2.1 has unexpected note": ("om_cells",
                                     lambda p: _rechecksum(p, lambda pl: pl["cells"][0].update(note=""))),
    "row 1 lacks signature": ("size5",
                              lambda p: _rechecksum(p, lambda pl: pl["rows"][0].pop("signature"))),
    "row 2 lacks constraints": ("size5",
                                lambda p: _rechecksum(p, lambda pl: pl["rows"][1].pop("constraints"))),
    "bad row A.1: coordinate 0.5 is not an integer": (
        "classes76", _setting(("classes", 0, "representative", 0, 0), 0.5)),
    "bad row A.1: coordinate 'x' is not an integer": (
        "classes76", _setting(("classes", 0, "functional", 0), "x")),
    "bad row A.1: coordinate True is not an integer": (
        "classes76", _setting(("classes", 0, "volume_vector", 0), True)),
    "bad row A.1: not a list": ("classes76", _setting(("classes", 0, "functional"), 5)),
    "classes entry 1 is not an object": ("classes76", _setting(("classes", 0), ["A.1"])),
    "no classes list": ("classes76", lambda p: _rechecksum(p, lambda pl: pl.pop("classes"))),
    "no rows list": ("size5", lambda p: _rechecksum(p, lambda pl: pl.pop("rows"))),
    "no map object": ("om_labels", lambda p: _rechecksum(p, lambda pl: pl.pop("map"))),
    "no ambiguous list": ("om_labels", lambda p: _rechecksum(p, lambda pl: pl.pop("ambiguous"))),
    "ambiguous entry 1 is not an object": (
        "om_labels", _setting(("ambiguous", 0), [["c4.18", "c4.19"], ["4.16", "4.7"]])),
    "row B.3: om_label '9.9' names no grid cell": (
        "classes76", lambda p: _rechecksum(p, lambda pl: next(
            row for row in pl["classes"] if row["id"] == "B.3").update(om_label="9.9"))),
    "ambiguous entry 2 lacks labels": (
        "om_labels", lambda p: _rechecksum(p, lambda pl: pl["ambiguous"][1].pop("labels"))),
}


@pytest.mark.parametrize("message", sorted(TAMPERINGS))
def test_load_tables_rejects_corrupt_resource(tmp_path, monkeypatch, message):
    """Each CorruptData check of load_tables, on a tampered copy of data/."""
    name, tamper = TAMPERINGS[message]
    shutil.copytree(Path(tablesdata.__file__).parent / "data", tmp_path / "data")
    tamper(tmp_path / "data" / f"{name}.json")
    monkeypatch.setattr(tablesdata, "resources", types.SimpleNamespace(files=lambda _: tmp_path))
    load_tables.cache_clear()
    try:
        with pytest.raises(CorruptData, match=f"^{name}: {message}"):
            load_tables()
    finally:
        load_tables.cache_clear()
