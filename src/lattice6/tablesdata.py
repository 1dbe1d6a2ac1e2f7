"""Bundled classification tables.

The package ships its ground truth as checksummed JSON resources under
``data/``: the 76 classes of size-6 width>1 polytopes, the size-5 catalog,
the 55-entry oriented-matroid cell grid, the width-one families, the label
map from grid labels to catalog record keys, and the expected count tables.
`load_tables` parses and checksums the ones the library reads and checks
their shape (row counts, distinct ids, lists of objects holding the
keys of every class row, size-5 row, grid cell and ambiguous label
pair, vectors of ints of the right length, a grid cell for each class
row's label, a label map object covering the grid), raising CorruptData,
which names the resource, otherwise.  It builds the bundle's lookup
dicts beside those checks.  The count tables, the grid's never-realized
and Howe width-one columns, and the derivable columns of the stored
representatives are read and recomputed by tests (tests/table_checks.py),
not by a library step.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields
from functools import lru_cache
from importlib import resources
from typing import Dict, Tuple

from .exactlinalg import IntVec3, VerificationFailed
from .polytope import PointConfig


class CorruptData(VerificationFailed):
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
    """The bundled tables, with one dict per key the library looks up:
    class rows by id, grid cells by label, and the grid labels a catalog
    record key may carry (two when ambiguous).  load_tables builds each
    dict beside the checks of the payload it comes from."""

    size5_rows: Tuple[dict, ...]
    class_rows: Tuple[ClassRow, ...]
    om_cells: Tuple[OMCell, ...]
    width1_families: dict
    rows_by_id: Dict[str, ClassRow]
    cells_by_label: Dict[str, OMCell]
    labels_by_key: Dict[str, Tuple[str, ...]]


def _canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _load_resource(name: str):
    try:
        text = resources.files(__package__).joinpath(f"data/{name}.json").read_text()
    except OSError as exc:
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


#: The keys of a class row and of a grid cell: their fields.
_CLASS_KEYS = {f.name for f in fields(ClassRow)}
_CELL_KEYS = {f.name for f in fields(OMCell)}
#: The keys of a concrete size-5 row and of a family row; a row is
#: concrete when it has a representative.  cli catalog prints every key;
#: size5 reads a concrete row's signature, width and representative.
_SIZE5_KEYS = {"signature", "width", "volume_vector", "representative"}
_FAMILY_KEYS = {"signature", "width", "volume_vector_formula", "representative_formula",
                "constraints"}


def _check_keys(what: str, row: dict, keys: set) -> None:
    """Raise CorruptData naming what unless row has exactly the keys."""
    missing, extra = sorted(keys - set(row)), sorted(set(row) - keys)
    if missing:
        raise CorruptData(f"{what} lacks {', '.join(missing)}")
    if extra:
        raise CorruptData(f"{what} has unexpected {', '.join(extra)}")


def _rows(name: str, payload, key: str) -> list:
    """payload[key] of resource name, once the payload is an object whose
    key holds a list of objects; else CorruptData naming the resource."""
    rows = payload.get(key) if isinstance(payload, dict) else None
    if not isinstance(rows, list):
        raise CorruptData(f"{name}: no {key} list")
    for k, row in enumerate(rows, 1):
        if not isinstance(row, dict):
            raise CorruptData(f"{name}: {key} entry {k} is not an object")
    return rows


def _vec(seq, where: str, n: int = 3) -> tuple:
    """seq as a tuple of n ints (a bool is not one); else CorruptData
    naming where."""
    if not isinstance(seq, list):
        raise CorruptData(f"{where}: not a list")
    if len(seq) != n:
        raise CorruptData(f"{where}: {len(seq)} coordinates")
    for x in seq:
        if type(x) is not int:
            raise CorruptData(f"{where}: coordinate {x!r} is not an integer")
    return tuple(seq)


@lru_cache(maxsize=1)
def load_tables() -> TableBundle:
    classes = _rows("classes76", _load_resource("classes76"), "classes")
    cells = _rows("om_cells", _load_resource("om_cells"), "cells")
    labels = _load_resource("om_labels")
    ambiguous = _rows("om_labels", labels, "ambiguous")
    size5 = _rows("size5", _load_resource("size5"), "rows")
    families = _load_resource("width1_families")

    class_rows = []
    for row in classes:
        _check_keys(f"classes76: row {row.get('id')}", row, _CLASS_KEYS)
        where = f"classes76: bad row {row['id']}"
        pts = tuple(_vec(p, where) for p in row["representative"])
        if len(pts) != 6:
            raise CorruptData(where)
        class_rows.append(ClassRow(**{
            **row, "volume_vector": _vec(row["volume_vector"], where, 15),
            "functional": _vec(row["functional"], where), "representative": pts}))
    rows_by_id = {row.id: row for row in class_rows}
    if len(class_rows) != 76 or len(rows_by_id) != 76:
        raise CorruptData("classes76: expected 76 distinct rows")

    for k, row in enumerate(size5, 1):
        keys = _SIZE5_KEYS if "representative" in row else _FAMILY_KEYS
        _check_keys(f"size5: row {k}", row, keys)

    for cell in cells:
        _check_keys(f"om_cells: cell {cell.get('label')}", cell, _CELL_KEYS)
    om_cells = tuple(OMCell(**cell) for cell in cells)
    if len(om_cells) != 55:
        raise CorruptData("om_cells: expected 55 rows")
    cells_by_label = {cell.label: cell for cell in om_cells}
    for row in class_rows:
        if row.om_label not in cells_by_label:
            raise CorruptData(f"classes76: row {row.id}: om_label {row.om_label!r} names no grid cell")

    for k, pair in enumerate(ambiguous, 1):
        _check_keys(f"om_labels: ambiguous entry {k}", pair, {"keys", "labels"})
    label_map = labels.get("map")
    if not isinstance(label_map, dict):
        raise CorruptData("om_labels: no map object")
    covered = set(label_map) | {l for p in ambiguous for l in p["labels"]}
    if covered != set(cells_by_label):
        raise CorruptData("om_labels: map does not cover the grid")
    labels_by_key: Dict[str, Tuple[str, ...]] = {}
    for label, key in label_map.items():
        labels_by_key[key] = labels_by_key.get(key, ()) + (label,)
    for pair in ambiguous:
        for key in pair["keys"]:
            labels_by_key.setdefault(key, tuple(pair["labels"]))

    return TableBundle(
        size5_rows=tuple(size5),
        class_rows=tuple(class_rows),
        om_cells=om_cells,
        width1_families=families,
        rows_by_id=rows_by_id,
        cells_by_label=cells_by_label,
        labels_by_key=labels_by_key,
    )
