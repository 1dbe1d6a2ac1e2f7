"""Checks of the bundled tables.  validate_tables recomputes every
derivable column from the stored representatives and reports mismatches,
instead of trusting the transcription, the width-one singles' and
families' oriented matroids included; no_octahedron_check scans for a
width-one configuration with the octahedral oriented matroid, which the
width-one classification excludes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Tuple

from lattice6.classify6 import BadParameters, ClassificationError, width1_family
from lattice6.equivalence import equivalence_witness
from lattice6.exactlinalg import dot
from lattice6.invariants import (
    NO_COPLANARITY,
    coplanarity_class,
    functional_range,
    pair_sums_distinct,
    signature5,
    volume_vector5,
    volume_vector6,
    width,
)
from lattice6.omcatalog import enumerate_oms
from lattice6.polytope import PointConfig, hull_facets, hull_summary, lattice_points, size
from lattice6.tablesdata import TableBundle, _load_resource
from omcatalog_oracles import match_om, record_statistics

GCD_EXCEPTIONS = {"A.1": 2, "A.2": 2, "B.14": 3, "B.15": 3, "C.3": 3}

#: The catalog records of the width-one families: the paper's eight
#: infinite classes, which the ten stored families (some classes in two
#: shapes) make up.
WIDTH1_FAMILY_RECORDS = {"c2.01", "c4.01", "c4.07", "c4.10", "c5.07", "c5.13", "c5.14", "c6.04"}


def shape_of(config: PointConfig) -> str:
    """Coarse hull shape used by the vertex/interior count table.

    Distinguishes the three hull combinatorics occurring at size 6 and
    width > 1: tetrahedra, and 5-vertex polytopes split by whether some
    facet contains four configuration points (quadrangular pyramid) or not
    (triangular bipyramid).
    """
    verts = hull_summary(config)[2]
    if len(verts) == 4:
        return "tetrahedron"
    if len(verts) != 5:
        raise ValueError(f"unexpected vertex count {len(verts)}")
    for *normal, offset in hull_facets(config):
        on = sum(1 for p in config.points if dot(normal, p) == offset)
        if on == 4:
            return "square pyramid"
    return "bipyramid"


def interior_count(config: PointConfig) -> int:
    """Configuration points strictly inside the hull.

    Counts only the given points, not every interior lattice point as
    hull_summary does; the two agree when the configuration
    is all of the polytope's lattice points, as for the 76 classes.
    """
    facets = hull_facets(config)
    return sum(1 for p in config.points
               if all(dot(f[:3], p) > f[3] for f in facets))


def result2_histogram(configs) -> Dict[str, int]:
    """Histogram over ``"<shape>, <k> interior"`` keys for size-6 configs."""
    hist: Dict[str, int] = {}
    for config in configs:
        key = f"{shape_of(config)}, {interior_count(config)} interior"
        hist[key] = hist.get(key, 0) + 1
    return hist


def key_candidates(label: str) -> Tuple[str, ...]:
    """Catalog record keys a grid label may denote (two when ambiguous),
    read off the om_labels resource: the inverse of the bundle's
    labels_by_key, which the library reads."""
    labels = _load_resource("om_labels")
    if label in labels["map"]:
        return (labels["map"][label],)
    for pair in labels["ambiguous"]:
        if label in pair["labels"]:
            return tuple(pair["keys"])
    raise KeyError(label)


def family_members(family: dict):
    """(parameters, member) for the members of a width-one family row
    whose parameters lie in [0, 4]^n, as width1_family builds them: those
    that satisfy the family's constraints."""
    for params in itertools.product(range(5), repeat=family["n_params"]):
        try:
            yield params, width1_family(family["family_id"], params)
        except BadParameters:
            continue


def width1_mismatches(bundle: TableBundle) -> List[str]:
    """The width-one table's mismatches: two singles that one unimodular
    map joins (equivalence_witness) although their oriented matroid labels
    differ, a single whose catalog record's labels (labels_by_key) do not
    hold its label, a family member whose record's labels do not hold its
    family's label, and family records other than WIDTH1_FAMILY_RECORDS,
    read off the families' members with parameters up to 4
    (family_members).  The per-member check is what sees a family whose
    constraints admit members of another record: the records of all
    members can still be the eight."""
    bad: List[str] = []
    singles = [(f"{r['table']}/{r['om_label']}", r["om_label"], PointConfig(r["points"]))
               for r in bundle.width1_families["singles"]]
    for (name1, label1, cfg1), (name2, label2, cfg2) in itertools.combinations(singles, 2):
        if label1 != label2 and equivalence_witness(cfg1, cfg2) is not None:
            bad.append(f"width-one singles {name1} and {name2} are one class")
    for name, label, cfg in singles:
        key = match_om(cfg).key
        if label not in bundle.labels_by_key[key]:
            bad.append(f"width-one single {name}: {key} carries labels {bundle.labels_by_key[key]}")
    records = set()
    for family in bundle.width1_families["families"]:
        for params, cfg in family_members(family):
            key = match_om(cfg).key
            records.add(key)
            if family["om_label"] not in bundle.labels_by_key[key]:
                bad.append(f"width-one family {family['family_id']} member {params}: "
                           f"{key} carries labels {bundle.labels_by_key[key]}")
    if records != WIDTH1_FAMILY_RECORDS:
        bad.append(f"width-one family records {sorted(records)}")
    return bad


@dataclass(frozen=True)
class ValidationReport:
    rows_checked: int
    mismatches: Tuple[str, ...]
    gcds: Dict[str, int]
    om_groups: int
    notes: Tuple[str, ...]


def validate_tables(bundle: TableBundle) -> ValidationReport:
    """Recompute every derivable column of the bundle and collect mismatches.

    Checks, per class row: size, volume vector (up to global sign, stored
    with positive leading entry), its gcd, width, that the stored functional
    witnesses the width, the dps flag, and the matched catalog record.  Rows
    sharing a grid label must match the same record, all count tables
    must agree with the rows, and the width-one table must pass
    width1_mismatches.
    """
    bad: List[str] = []
    notes: List[str] = []
    gcds: Dict[str, int] = {}
    keys_by_label: Dict[str, set] = {}

    for row in bundle.class_rows:
        config = row.config()
        if size(config) != 6:
            bad.append(f"{row.id}: representative has size {size(config)}")
            continue
        vv = volume_vector6(config)
        neg = tuple(-c for c in vv)
        if row.volume_vector not in (vv, neg):
            bad.append(f"{row.id}: stored volume vector does not match")
        lead = next((c for c in row.volume_vector if c), 0)
        if lead <= 0:
            bad.append(f"{row.id}: volume vector not lead-positive")
        g = math.gcd(*[abs(c) for c in row.volume_vector if c])
        gcds[row.id] = g
        if g != GCD_EXCEPTIONS.get(row.id, 1):
            bad.append(f"{row.id}: volume vector gcd {g}")
        w, _ = width(config)
        if w != row.width:
            bad.append(f"{row.id}: recomputed width {w} != {row.width}")
        if functional_range(row.functional, row.representative) != row.width:
            bad.append(f"{row.id}: functional is not a width witness")
        if pair_sums_distinct(lattice_points(config)) != row.dps:
            bad.append(f"{row.id}: dps flag mismatch")
        record = match_om(config)
        keys_by_label.setdefault(row.om_label, set()).add(record.key)
        if key_candidates(row.om_label) != (record.key,):
            bad.append(f"{row.id}: matched {record.key}, label map disagrees")
        # analyze prints row.om_label for an identified input: the record's
        # labels must name that row's label alone
        if bundle.labels_by_key[record.key] != (row.om_label,):
            bad.append(f"{row.id}: {record.key} carries labels "
                       f"{bundle.labels_by_key[record.key]}, not only {row.om_label}")

    for label, keys in keys_by_label.items():
        if len(keys) != 1:
            bad.append(f"label {label}: rows match distinct records {sorted(keys)}")

    realized = set(keys_by_label)
    flagged = {c.label for c in bundle.om_cells if c.realized}
    if realized != flagged:
        bad.append("realized flags disagree with class rows")

    for row in bundle.size5_rows:
        if "representative" not in row:
            continue
        config = PointConfig(row["representative"])
        if size(config) != 5:
            bad.append(f"size5 {row['volume_vector']}: wrong size")
            continue
        v5 = volume_vector5(config)
        stored = tuple(row["volume_vector"])
        if stored not in (v5, tuple(-c for c in v5)):
            bad.append(f"size5 {stored}: volume vector mismatch")
        if sorted(signature5(config), reverse=True) != list(row["signature"]):
            bad.append(f"size5 {stored}: signature mismatch")
        if width(config)[0] != row["width"]:
            bad.append(f"size5 {stored}: width mismatch")

    counts = _load_resource("result_counts")
    per_case: Dict[str, int] = {}
    for row in bundle.class_rows:
        per_case[row.case] = per_case.get(row.case, 0) + 1
    if per_case != counts["per_case"]:
        bad.append(f"per-case counts {per_case}")
    widths: Dict[str, int] = {}
    for row in bundle.class_rows:
        widths[str(row.width)] = widths.get(str(row.width), 0) + 1
    if widths != counts["width_histogram"]:
        bad.append(f"width histogram {widths}")
    if sum(r.dps for r in bundle.class_rows) != counts["dps_count"]:
        bad.append("dps count mismatch")

    hist = result2_histogram(r.config() for r in bundle.class_rows)
    if hist != counts["result2"]:
        bad.append(f"vertex/interior histogram {hist}")

    # The realized/total counts per coplanarity class must agree with the
    # grid; the separately stored headline table deviates from the grid in
    # the (2,2)/(2,1) columns and is kept verbatim for reference.
    grid: Dict[str, List[int]] = {}
    for cell in bundle.om_cells:
        got = grid.setdefault(cell.coplanarity, [0, 0])
        got[0] += cell.realized
        got[1] += 1
    expect = {k: list(v) for k, v in counts["result1_grid"].items()}
    if grid != expect:
        bad.append(f"coplanarity counts {grid}")
    if counts["result1_printed"] != counts["result1_grid"]:
        diff = [k for k in counts["result1_printed"]
                if counts["result1_printed"][k] != counts["result1_grid"][k]]
        notes.append("headline count table deviates from grid in: "
                     + ", ".join(sorted(diff)))

    bad += width1_mismatches(bundle)

    return ValidationReport(
        rows_checked=len(bundle.class_rows) + len(bundle.size5_rows),
        mismatches=tuple(bad),
        gcds=gcds,
        om_groups=len(keys_by_label),
        notes=tuple(notes),
    )


@lru_cache(maxsize=1)
def _v6i0_keys():
    """(octahedral key, hexagonal-family key): the two uniform vertex-only
    oriented matroids, told apart by which one the width-one prisms hit."""
    hex_key = match_om(width1_family("(3,3)/6.4", (1, 1, 2, 3))).key
    stats = record_statistics()
    rest = [r.key for r in enumerate_oms()
            if all(len(c.support) == 5 for c in r.circuits)  # uniform
            and stats[r.key]["nvertices"] == 6 and stats[r.key]["ninterior"] == 0
            and r.key != hex_key]
    if len(rest) != 1:
        raise ClassificationError("vertex-only uniform cell is not a pair")
    return rest[0], hex_key


def _parallel(u, v):
    return u[0] * v[1] == u[1] * v[0]


def no_octahedron_check(bound: int) -> bool:
    """True when no width-one six-point configuration is octahedral.

    A width-one octahedral configuration would split three-and-three
    across two consecutive levels, with both triangles empty; modulo
    normalization the bottom triangle is unit and the top one is spanned
    by a unimodular pair scanned over [-bound, bound]^2.  Any hit on the
    octahedral oriented matroid disproves the claim.
    """
    if bound < 2:
        raise BadParameters("bound must be at least 2")
    octa_key, _ = _v6i0_keys()
    base = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
    tri_dirs = ((1, 0), (0, 1), (1, -1))
    box = list(itertools.product(range(-bound, bound + 1), repeat=2))
    for q1 in box:
        for q2 in box:
            det = q1[0] * q2[1] - q1[1] * q2[0]
            if det not in (1, -1):
                continue
            d12 = (q1[0] - q2[0], q1[1] - q2[1])
            if any(_parallel(d, t) for d in (q1, q2, d12) for t in tri_dirs):
                continue  # a prism edge pair forces coplanarity
            cfg = PointConfig(base + [(q1[0], q1[1], 1), (q2[0], q2[1], 1)])
            if size(cfg) > 6:
                continue
            if coplanarity_class(cfg) != NO_COPLANARITY:
                continue
            if match_om(cfg).key == octa_key:
                return False
    return True
