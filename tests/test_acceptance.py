"""End-to-end acceptance checks for the size-6 classification library.

Each test states a headline property of the finished artifact: the
classification regenerates from first principles, the bundled tables are
internally consistent, and every derived quantity agrees with an
independently coded oracle, in exact arithmetic throughout.
"""

import math
import random
import time

from lattice6 import classify6
from lattice6.emptytetra import canonical_type, white_type
from lattice6.exactlinalg import det4
from lattice6.invariants import (
    circuits,
    coplanarity_class,
    pair_sums_distinct,
    volume_vector6,
    width,
)
from lattice6.omcatalog import enumerate_oms
from lattice6.polytope import PointConfig, hull_summary, lattice_points, size
from lattice6.size5 import admissible_apex_31, classify5, rep21, rep32

from conftest import APEX31_BASE, random_unimodular
from emptytetra_oracles import standard_tetrahedron, type_orbit, white_classes
from equivalence_oracles import canonical_key
from omcatalog_oracles import match_om, record_statistics
from table_checks import GCD_EXCEPTIONS, key_candidates, no_octahedron_check, validate_tables


def test_classification_regenerates_all_76_classes(case_reports, bundle):
    """Running all eight cases yields exactly the 76 known classes."""
    reports, elapsed = case_reports
    assert elapsed < 300
    classes = [cls for r in reports for cls in r.classes_found]
    assert len(classes) == 76
    per_case = {r.case: len(r.classes_found) for r in reports}
    assert per_case == {"A": 2, "B": 15, "C": 6, "D": 2, "E": 2,
                        "F": 17, "G": 20, "H": 12}
    widths = {}
    for cls in classes:
        widths[cls.width] = widths.get(cls.width, 0) + 1
    assert widths == {2: 74, 3: 2}
    assert sum(1 for cls in classes if cls.dps) == 45
    for cls in classes:
        row = bundle.rows_by_id[cls.id]
        assert canonical_key(cls.generated) == canonical_key(row.config()), cls.id


def test_bundled_tables_are_internally_consistent(bundle):
    start = time.monotonic()
    report = validate_tables(bundle)
    assert time.monotonic() - start < 60
    assert report.mismatches == ()
    for row in bundle.class_rows:
        assert report.gcds[row.id] == GCD_EXCEPTIONS.get(row.id, 1)
        assert (math.gcd(*row.volume_vector) == 1) == (row.id not in GCD_EXCEPTIONS)


def test_oriented_matroid_catalog_is_complete(bundle):
    start = time.monotonic()
    records = enumerate_oms()
    assert len(records) == 55
    uniform = [
        r for r in records
        if len(r.circuits) == 6
        and all(len(c.positive) + len(c.negative) == 5 for c in r.circuits)
    ]
    assert len(uniform) == 4
    by_key = {r.key: r for r in records}
    stats = record_statistics()
    for cell in bundle.om_cells:
        assert any(
            stats[k]["coplanarity"] == cell.coplanarity
            and stats[k]["nvertices"] == cell.vertices
            and stats[k]["ninterior"] == cell.interior
            and len(by_key[k].circuits) == cell.n_circuits
            for k in key_candidates(cell.label)
        ), cell.label
    realized = {match_om(row.config()).key for row in bundle.class_rows}
    assert len(realized) == 22
    assert time.monotonic() - start < 60


def test_width_three_classes_have_certificates(bundle):
    """C.3 and H.12 have width 3: a witness functional attains 3, and a
    search over all primitive functionals in a box finds nothing smaller."""
    for cid in ("C.3", "H.12"):
        c = bundle.rows_by_id[cid].config()
        w, f = width(c)
        assert w == 3
        vals = [sum(a * b for a, b in zip(f, p)) for p in c.points]
        assert max(vals) - min(vals) == 3
        best = min(
            max(vals) - min(vals)
            for fx in range(-4, 5) for fy in range(-4, 5) for fz in range(-4, 5)
            if math.gcd(fx, fy, fz) == 1
            for vals in [[fx * x + fy * y + fz * z for x, y, z in c.points]]
        )
        assert best == 3, cid


def test_empty_tetrahedra_match_lattice_point_oracle():
    rng = random.Random(2024)
    checked = 0
    while checked < 10_000:
        pts = [tuple(rng.randrange(-4, 5) for _ in range(3)) for _ in range(4)]
        if det4(*pts) == 0:
            continue
        t = white_type(pts)
        assert (t is not None) == (len(lattice_points(PointConfig(pts))) == 4)
        if t is not None:
            assert t[1] == abs(det4(*pts))
        checked += 1
    for q in range(1, 13):
        ps = [p for p in range(q) if math.gcd(p, q) == 1]
        orbits = set()
        for p in ps:
            t = standard_tetrahedron(p, q)
            assert white_type(t) == canonical_type(p, q)
            orbits.add(frozenset(type_orbit(p, q)))
        assert len(white_classes(q)) == len(orbits)


def test_size5_classification_and_admissibility(bundle):
    rows_checked = 0
    for row in bundle.size5_rows:
        sig = tuple(row["signature"])
        kind = f"{sig[0]}{sig[1]}"
        if "representative" in row:
            samples = [PointConfig(row["representative"])]
        elif sig == (2, 1):
            samples = [rep21(1, 3), rep21(2, 5)]
        else:
            samples = [rep32(1, 2), rep32(2, 3)]
        for c in samples:
            cls = classify5(c)
            assert cls.kind.startswith(kind)  # "31" splits into "31u"/"31w2"
            assert cls.width == row["width"]
            assert canonical_key(cls.representative) == canonical_key(c)
        rows_checked += 1
    assert rows_checked == 13
    for a in range(-6, 7):
        for b in range(-6, 7):
            apex = PointConfig(APEX31_BASE + [(a, b, 3)])
            assert admissible_apex_31(a, b) == (size(apex) == 5)


def test_width_one_configurations_exist_but_no_sixth_point_extends_octahedron():
    """A width-one configuration with six vertices exists; no width-one 3+3
    configuration up to coordinate 8 has the octahedral oriented matroid."""
    start = time.monotonic()
    hexa = classify6.width1_family("(3,3)/6.4", (2, 1, 3, 2))
    assert size(hexa) == 6
    assert width(hexa)[0] == 1
    assert len(hull_summary(hexa)[2]) == 6
    assert hull_summary(hexa)[1] == ()
    assert no_octahedron_check(8)
    assert time.monotonic() - start < 120


def test_invariants_survive_relabeling_and_unimodular_maps(bundle):
    rng = random.Random(76)
    rows = bundle.class_rows
    for _ in range(200):
        row = rng.choice(rows)
        c = row.config()
        m = random_unimodular(rng)
        perm = list(range(6))
        rng.shuffle(perm)
        img = PointConfig([m.apply(c.points[i]) for i in perm])
        assert size(img) == 6
        assert width(img)[0] == row.width
        assert pair_sums_distinct(lattice_points(img)) == row.dps
        assert coplanarity_class(img) == coplanarity_class(c)
        assert len(circuits(img)) == len(circuits(c))
        assert canonical_key(img) == canonical_key(c)
        expected = volume_vector6(PointConfig([c.points[i] for i in perm]))
        if m.det == -1:
            expected = tuple(-x for x in expected)
        assert volume_vector6(img) == expected
