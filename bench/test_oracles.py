"""Tests of the benchmark's own oracles and input generation.

    python3 -m unittest discover -s bench -p 'test_*.py'

Expected values are worked out by hand from small polytopes, not taken from
lattice6, which these oracles exist to check.
"""

import itertools
import json
import random
import unittest
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import compare
import oracles
import run
import workloads

SRC = Path(__file__).resolve().parent.parent / "src"
CUBE = tuple(itertools.product((0, 1), repeat=3))
OCTAHEDRON = ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1))


class BruteCounts(unittest.TestCase):
    def test_unit_cube(self):
        self.assertEqual(oracles.brute_counts(CUBE), {"size": 8, "interior": 0, "vertices": 8})

    def test_octahedron_has_its_centre_inside(self):
        self.assertEqual(oracles.brute_counts(OCTAHEDRON),
                         {"size": 7, "interior": 1, "vertices": 6})

    def test_doubled_cube(self):
        big = tuple(tuple(2 * c for c in p) for p in CUBE)
        self.assertEqual(oracles.brute_counts(big), {"size": 27, "interior": 1, "vertices": 8})

    def test_standard_empty_tetrahedra(self):
        for p, q in ((0, 1), (1, 2), (2, 5), (3, 7), (5, 12)):
            tet = ((0, 0, 0), (1, 0, 0), (0, 0, 1), (p, q, 1))
            self.assertEqual(oracles.brute_counts(tet)["size"], 4, (p, q))

    def test_non_empty_tetrahedron(self):
        # (1,1,1) lies inside: it is the centroid of the four vertices
        tet = ((0, 0, 0), (4, 0, 0), (0, 4, 0), (0, 0, 4))
        self.assertEqual(oracles.brute_counts(tet)["size"], 35)

    def test_point_inside_is_not_a_vertex(self):
        pts = OCTAHEDRON + ((0, 0, 0),)
        self.assertEqual(oracles.brute_counts(pts)["vertices"], 6)

    def test_refuses_large_boxes(self):
        with self.assertRaises(ValueError):
            oracles.brute_counts(((0, 0, 0), (100, 0, 0), (0, 100, 0), (0, 0, 100)))


SHEAR = ((1, 2, 0), (0, 1, 0), (3, 1, 1))  # determinant 1


def image(points, matrix=SHEAR, t=(4, -2, 7)):
    return tuple(tuple(sum(matrix[r][c] * p[c] for c in range(3)) + t[r] for r in range(3))
                 for p in points)


class Witness(unittest.TestCase):
    def test_accepts_a_true_witness(self):
        b = image(OCTAHEDRON)
        self.assertIsNone(oracles.check_witness(OCTAHEDRON, b, range(6), SHEAR, (4, -2, 7)))

    def test_accepts_relabeled_targets(self):
        b = image(OCTAHEDRON)[::-1]
        perm = [5 - i for i in range(6)]
        self.assertIsNone(oracles.check_witness(OCTAHEDRON, b, perm, SHEAR, (4, -2, 7)))

    def test_rejects_a_wrong_permutation(self):
        b = image(OCTAHEDRON)
        perm = [1, 0, 2, 3, 4, 5]
        self.assertIn("maps to", oracles.check_witness(OCTAHEDRON, b, perm, SHEAR, (4, -2, 7)))

    def test_rejects_determinant_two(self):
        m = ((2, 0, 0), (0, 1, 0), (0, 0, 1))
        b = image(CUBE, m, (0, 0, 0))
        self.assertIn("determinant", oracles.check_witness(CUBE, b, range(8), m, (0, 0, 0)))

    def test_rejects_non_integer_entries(self):
        m = ((1, 0, 0), (0, 1.0, 0), (0, 0, 1))
        self.assertIn("non-integer", oracles.check_witness(CUBE, CUBE, range(8), m, (0, 0, 0)))

    def test_rejects_a_non_bijection(self):
        ident = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        self.assertIn("bijection",
                      oracles.check_witness(CUBE, CUBE, [0] * 8, ident, (0, 0, 0)))


class FindEquivalence(unittest.TestCase):
    def test_finds_and_certifies_an_image(self):
        a = ((0, 0, 0), (1, 0, 0), (0, 0, 1), (2, 5, 1), (-1, -2, -1), (4, 11, 2))
        b = list(image(a))
        random.Random(3).shuffle(b)
        perm, m, t = oracles.find_equivalence(a, b)
        self.assertIsNone(oracles.check_witness(a, b, perm, m, t))

    def test_different_volumes_are_not_equivalent(self):
        t1 = ((0, 0, 0), (1, 0, 0), (0, 0, 1), (1, 2, 1))
        t2 = ((0, 0, 0), (1, 0, 0), (0, 0, 1), (1, 3, 1))
        self.assertIsNone(oracles.find_equivalence(t1, t2))

    def test_white_inequivalent_tetrahedra_are_not_equivalent(self):
        # same volume 5, but 2 is not +-1 or +-1^(-1) mod 5
        t1 = ((0, 0, 0), (1, 0, 0), (0, 0, 1), (1, 5, 1))
        t2 = ((0, 0, 0), (1, 0, 0), (0, 0, 1), (2, 5, 1))
        self.assertIsNone(oracles.find_equivalence(t1, t2))


class WhiteRule(unittest.TestCase):
    def test_orbits(self):
        self.assertTrue(oracles.white_equivalent((1, 5), (4, 5)))   # -p
        self.assertTrue(oracles.white_equivalent((2, 5), (3, 5)))   # p^-1 = 3
        self.assertTrue(oracles.white_equivalent((2, 7), (4, 7)))   # p^-1 = 4
        self.assertTrue(oracles.white_equivalent((2, 7), (3, 7)))   # -p^-1 = 3
        self.assertTrue(oracles.white_equivalent((0, 1), (0, 1)))

    def test_non_orbits(self):
        self.assertFalse(oracles.white_equivalent((1, 7), (2, 7)))
        self.assertFalse(oracles.white_equivalent((1, 5), (2, 5)))
        self.assertFalse(oracles.white_equivalent((1, 5), (1, 7)))
        self.assertFalse(oracles.white_equivalent((2, 4), (2, 4)))  # not a unit


class WidthCertificate(unittest.TestCase):
    def test_parse(self):
        self.assertEqual(oracles.parse_functional("x-z"), (1, 0, -1))
        self.assertEqual(oracles.parse_functional("-2x+y+13z"), (-2, 1, 13))
        self.assertEqual(oracles.parse_functional("z"), (0, 0, 1))
        self.assertEqual(oracles.parse_functional("0"), (0, 0, 0))
        for bad in ("x*z", "2", "x+", "q"):
            with self.assertRaises(ValueError):
                oracles.parse_functional(bad)

    def test_spread(self):
        self.assertEqual(oracles.spread((0, 0, 1), OCTAHEDRON), 2)
        self.assertEqual(oracles.spread((1, 1, 1), CUBE), 3)


class Inputs(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for make in (workloads.analyze_ops, workloads.equiv_ops):
            a = [(op.name, op.configs) for op in make(SRC, 7)]
            b = [(op.name, op.configs) for op in make(SRC, 7)]
            c = [(op.name, op.configs) for op in make(SRC, 8)]
            self.assertEqual(a, b)
            self.assertNotEqual(a, c)

    def test_equiv_pairs_are_what_they_claim(self):
        for op in workloads.equiv_ops(SRC, 5):
            a, b = op.configs
            found = oracles.find_equivalence(a, b)
            self.assertEqual(found is not None, op.expect["equivalent"], op.name)

    def test_unrank_permutation(self):
        perms = list(itertools.permutations(range(4)))
        for rank, perm in enumerate(perms):
            self.assertEqual(workloads.unrank_permutation(rank, 4), perm)


def _fake_reports(tamper=None):
    """classify_all-shaped reports built from the data file's rows, each
    class with a seeded unimodular image of its row as generated witness;
    ``tamper(cls)`` may alter the first class."""
    rng = random.Random(3)
    rows, _ = workloads.load_data(SRC)
    reports = []
    for case, _ in workloads.PUBLISHED_CASE_COUNTS:
        classes = []
        for row in rows:
            if row["id"].split(".")[0] == case:
                m, t = workloads.random_map(rng, 4)
                classes.append(SimpleNamespace(
                    id=row["id"],
                    representative=SimpleNamespace(points=list(row["points"])),
                    generated=SimpleNamespace(points=workloads.apply(m, t, row["points"]))))
        reports.append(SimpleNamespace(case=case, classes_found=classes))
    if tamper:
        tamper(reports[0].classes_found[0])
    return reports


class ClassifyCheck(unittest.TestCase):
    def test_accepts_images_of_the_table_rows(self):
        self.assertIsNone(workloads.check_classify(_fake_reports(), SRC))

    def test_rejects_a_representative_that_is_not_the_row(self):
        def swap(cls):
            cls.representative = cls.generated
        reason = workloads.check_classify(_fake_reports(swap), SRC)
        self.assertIn("differs from the data file", reason)

    def test_rejects_a_witness_of_another_class(self):
        rows, _ = workloads.load_data(SRC)
        other = next(r for r in rows if r["id"] == "H.12")["points"]

        def wrong(cls):
            cls.generated = SimpleNamespace(points=other)
        reason = workloads.check_classify(_fake_reports(wrong), SRC)
        self.assertIn("no unimodular map", reason)


class Probe(unittest.TestCase):
    def test_scaled_time_follows_the_probe(self):
        with run.SpeedProbe() as probe:
            t0 = perf_counter()
            start = probe.mark()
            while perf_counter() - t0 < 0.3:
                pass
            raw, scaled = probe.stop(start)
            wall = perf_counter() - t0
        self.assertGreater(len(probe.durations), run.PROBE_MIN_SAMPLES)
        self.assertLess(raw, wall)
        # scaled by the reference over a mean of probe durations
        self.assertLessEqual(scaled, raw * run.PROBE_REFERENCE_S / min(probe.durations))
        self.assertGreaterEqual(scaled, raw * run.PROBE_REFERENCE_S / max(probe.durations))


class Compare(unittest.TestCase):
    SPEC = json.loads((SRC.parent / "BENCHMARK.json").read_text())

    def runs(self, failed):
        metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in self.SPEC["end_to_end"]}
        return {"analyze": [{"correct": True, "attempted": 100, "failed": failed,
                             "metrics": metrics}] * 3}

    def verdict(self, failed_first, failed_second):
        rows = compare.compare(self.runs(failed_first), self.runs(failed_second), self.SPEC)
        return next(r[-1] for r in rows if r[1] == "failed_share")

    def test_fewer_failures_are_ok(self):
        self.assertEqual(self.verdict(3, 0), "ok")
        self.assertEqual(self.verdict(3, 3), "ok")

    def test_more_failures_are_flagged(self):
        self.assertEqual(self.verdict(3, 4), "more failed")


if __name__ == "__main__":
    unittest.main()
