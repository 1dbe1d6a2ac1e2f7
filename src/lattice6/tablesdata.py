"""Bundled classification tables and their self-validation.

The package ships its ground truth as checksummed JSON resources under
``data/``: the 76 classes of size-6 width>1 polytopes, the size-5 catalog,
the 55-entry oriented-matroid cell grid, the width-one families, the label
map from grid labels to catalog record keys, and the expected count tables.
`load_tables` parses and checksums them; `validate_tables` recomputes every
derivable column from the stored representatives and reports mismatches
instead of trusting the transcription.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from typing import Dict, List, Optional, Tuple

from .exactlinalg import IntVec3
from .invariants import functional_range, is_dps, signature5, volume_vector5, volume_vector6, width
from .omcatalog import match_om
from .polytope import PointConfig, hull_facets, size, vertices

GCD_EXCEPTIONS = {"A.1": 2, "A.2": 2, "B.14": 3, "B.15": 3, "C.3": 3}


class CorruptData(Exception):
    """A bundled table resource failed its checksum or schema check."""


@dataclass(frozen=True)
class ClassRow:
    """One row of the size-6 classification: a class and its invariants."""

    id: str
    om_label: str
    volume_vector: Tuple[int, ...]
    width: int
    functional: IntVec3
    representative: Tuple[IntVec3, ...]
    dps: bool

    @property
    def case(self) -> str:
        return self.id.split(".")[0]

    def config(self) -> PointConfig:
        return PointConfig(self.representative)


@dataclass(frozen=True)
class OMCell:
    """One label of the oriented-matroid grid with its classifying data."""

    label: str
    coplanarity: str
    vertices: int
    interior: int
    n_circuits: int
    dps: bool
    realized: bool
    width_one: bool


@dataclass(frozen=True)
class TableBundle:
    size5_rows: Tuple[dict, ...]
    class_rows: Tuple[ClassRow, ...]
    om_cells: Tuple[OMCell, ...]
    result_counts: dict
    width1_families: dict
    om_label_map: Dict[str, str]
    ambiguous_labels: Tuple[dict, ...]
    never_realized: frozenset
    howe_width_one: frozenset

    def class_by_id(self, cid: str) -> ClassRow:
        for row in self.class_rows:
            if row.id == cid:
                return row
        raise KeyError(cid)

    def cell_by_label(self, label: str) -> OMCell:
        for cell in self.om_cells:
            if cell.label == label:
                return cell
        raise KeyError(label)

    def key_candidates(self, label: str) -> Tuple[str, ...]:
        """Catalog record keys a grid label may denote (two when ambiguous)."""
        if label in self.om_label_map:
            return (self.om_label_map[label],)
        for pair in self.ambiguous_labels:
            if label in pair["labels"]:
                return tuple(pair["keys"])
        raise KeyError(label)

    def label_candidates(self, key: str) -> Tuple[str, ...]:
        """Grid labels a catalog record key may carry (two when ambiguous)."""
        hits = tuple(l for l, k in self.om_label_map.items() if k == key)
        if hits:
            return hits
        for pair in self.ambiguous_labels:
            if key in pair["keys"]:
                return tuple(pair["labels"])
        raise KeyError(key)


def _canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _load_resource(name: str):
    try:
        text = resources.files(__package__).joinpath(f"data/{name}.json").read_text()
    except (FileNotFoundError, OSError) as exc:
        raise CorruptData(f"{name}: resource missing ({exc})")
    try:
        blob = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CorruptData(f"{name}: invalid JSON ({exc})")
    if not isinstance(blob, dict) or set(blob) != {"sha256", "payload"}:
        raise CorruptData(f"{name}: unexpected resource layout")
    digest = hashlib.sha256(_canonical(blob["payload"]).encode()).hexdigest()
    if digest != blob["sha256"]:
        raise CorruptData(f"{name}: checksum mismatch")
    return blob["payload"]


def _vec(seq) -> IntVec3:
    x, y, z = seq
    return (int(x), int(y), int(z))


@lru_cache(maxsize=1)
def load_tables() -> TableBundle:
    classes = _load_resource("classes76")["classes"]
    cells = _load_resource("om_cells")
    labels = _load_resource("om_labels")
    size5 = _load_resource("size5")["rows"]
    families = _load_resource("width1_families")
    counts = _load_resource("result_counts")

    class_rows = []
    for row in classes:
        pts = tuple(_vec(p) for p in row["representative"])
        if len(pts) != 6 or len(row["volume_vector"]) != 15:
            raise CorruptData(f"classes76: bad row {row.get('id')}")
        class_rows.append(ClassRow(
            id=row["id"], om_label=row["om_label"],
            volume_vector=tuple(row["volume_vector"]), width=row["width"],
            functional=_vec(row["functional"]), representative=pts,
            dps=row["dps"]))
    if len(class_rows) != 76 or len({r.id for r in class_rows}) != 76:
        raise CorruptData("classes76: expected 76 distinct rows")

    om_cells = tuple(OMCell(**cell) for cell in cells["cells"])
    if len(om_cells) != 55:
        raise CorruptData("om_cells: expected 55 rows")

    label_map = dict(labels["map"])
    ambiguous = tuple(labels["ambiguous"])
    covered = set(label_map) | {l for p in ambiguous for l in p["labels"]}
    if covered != {c.label for c in om_cells}:
        raise CorruptData("om_labels: map does not cover the grid")

    return TableBundle(
        size5_rows=tuple(size5),
        class_rows=tuple(class_rows),
        om_cells=om_cells,
        result_counts=counts,
        width1_families=families,
        om_label_map=label_map,
        ambiguous_labels=ambiguous,
        never_realized=frozenset(cells["never_realized"]),
        howe_width_one=frozenset(cells["howe_width_one"]),
    )


def shape_of(config: PointConfig) -> str:
    """Coarse hull shape used by the vertex/interior count table.

    Distinguishes the three hull combinatorics occurring at size 6 and
    width > 1: tetrahedra, and 5-vertex polytopes split by whether some
    facet contains four configuration points (quadrangular pyramid) or not
    (triangular bipyramid).
    """
    verts = vertices(config)
    if len(verts) == 4:
        return "tetrahedron"
    if len(verts) != 5:
        raise ValueError(f"unexpected vertex count {len(verts)}")
    for facet in hull_facets(config):
        on = sum(1 for p in config.points if facet.value(p) == 0)
        if on == 4:
            return "square pyramid"
    return "bipyramid"


def interior_count(config: PointConfig) -> int:
    """Configuration points strictly inside the hull.

    Counts only the given points, not every interior lattice point as
    polytope.interior_points does; the two agree when the configuration
    is all of the polytope's lattice points, as for the 76 classes.
    """
    facets = hull_facets(config)
    return sum(1 for p in config.points
               if all(f.value(p) > 0 for f in facets))


def result2_histogram(configs) -> Dict[str, int]:
    """Histogram over ``"<shape>, <k> interior"`` keys for size-6 configs."""
    hist: Dict[str, int] = {}
    for config in configs:
        key = f"{shape_of(config)}, {interior_count(config)} interior"
        hist[key] = hist.get(key, 0) + 1
    return hist


@dataclass(frozen=True)
class ValidationReport:
    rows_checked: int
    mismatches: Tuple[str, ...]
    gcds: Dict[str, int]
    om_groups: int
    notes: Tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.mismatches


def validate_tables(bundle: Optional[TableBundle] = None) -> ValidationReport:
    """Recompute every derivable column of the bundle and collect mismatches.

    Checks, per class row: size, volume vector (up to global sign, stored
    with positive leading entry), its gcd, width, that the stored functional
    witnesses the width, the dps flag, and the matched catalog record.  Rows
    sharing a grid label must match the same record, and all count tables
    must agree with the rows.
    """
    if bundle is None:
        bundle = load_tables()
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
        if is_dps(config) != row.dps:
            bad.append(f"{row.id}: dps flag mismatch")
        record, _ = match_om(config)
        keys_by_label.setdefault(row.om_label, set()).add(record.key)
        if bundle.key_candidates(row.om_label) != (record.key,):
            bad.append(f"{row.id}: matched {record.key}, label map disagrees")

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
        config = PointConfig(tuple(_vec(p) for p in row["representative"]))
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

    counts = bundle.result_counts
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

    return ValidationReport(
        rows_checked=len(bundle.class_rows) + len(bundle.size5_rows),
        mismatches=tuple(bad),
        gcds=gcds,
        om_groups=len(keys_by_label),
        notes=tuple(notes),
    )
