"""Inputs at the coordinate bound finish or fail by name.

Until the lattice-point enumerator follows the points it finds (ROADMAP
item 2), polytope._hull_points sums the normalized volumes of its placing
tetrahedra first and refuses a hull over ENUMERATION_BUDGET with
EnumerationBudgetExceeded, which analyze reports as an input error.  A
refusal is asserted by a work count, no tetrahedron enumerated, and not
by a time.  So is the work of the inputs at the bound that finish.  A
hull that holds only its own points is answered by the emptiness of its
fine triangulation's cells (polytope.holds_only_its_points) and
enumerates no lattice point, whatever its volume: the long empty
tetrahedra, the thin hulls, and the size-5 family members and White
tetrahedra with parameters near 10^4.  equiv of an input and a relabeled
image takes no hull at all.
"""

import pytest

from conftest import count_calls
from lattice6 import invariants, polytope
from lattice6.classify6 import identify
from lattice6.cli import main
from lattice6.size5 import classify5, rep21, rep32
from lattice6.polytope import (
    ENUMERATION_BUDGET,
    EnumerationBudgetExceeded,
    PointConfig,
    format_points,
    lattice_points,
)

#: Inputs the parser accepts whose hulls exceed the budget, with their
#: normalized volumes (the sum of |det4| over the placing triangulation).
OVER_BUDGET = [
    # the 8-point set whose enumeration raised MemoryError
    ([(10000, -10000, 9999), (-10000, 10000, -9999), (9999, 9998, -10000), (-1, 2, 3),
      (5, -7, 10000), (1, 1, 1), (-9999, -1, 2), (3, 10000, -4)], 7996800060066),
    # conv(0, 10^4 e_i)
    ([(0, 0, 0), (10000, 0, 0), (0, 10000, 0), (0, 0, 10000)], 10**12),
    # the thin hull: five lattice points
    ([(0, 0, 0), (9999, 10000, 0), (-9999, -10000, 0), (0, 0, 1), (1, 10000, 1)], 199960000),
]
IDS = ["baseline-8-points", "dilated-simplex", "thin-hull"]


def _message(volume):
    return f"hull of normalized volume {volume} exceeds the enumeration budget {ENUMERATION_BUDGET}"


@pytest.mark.parametrize("points, volume", OVER_BUDGET, ids=IDS)
def test_hull_over_budget_is_refused_before_enumeration(points, volume, monkeypatch):
    calls = count_calls(monkeypatch, polytope._tetrahedron_points)
    with pytest.raises(EnumerationBudgetExceeded) as info:
        lattice_points(PointConfig(points))
    assert str(info.value) == _message(volume)
    assert calls == {"_tetrahedron_points": 0}


@pytest.mark.parametrize("points, volume", OVER_BUDGET[:2], ids=IDS[:2])
def test_analyze_over_budget_is_an_input_error(points, volume, tmp_path, capsys, monkeypatch):
    """analyze prints nothing but the error and exits 2."""
    calls = count_calls(monkeypatch, polytope._tetrahedron_points)
    path = tmp_path / "points.txt"
    path.write_text(format_points(points))
    assert main(["analyze", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {_message(volume)}\n"
    assert calls == {"_tetrahedron_points": 0}


def test_budget_bounds_the_summed_volume(monkeypatch):
    """A hull of normalized volume exactly the budget is enumerated, one
    unit over it is refused: here 2 * simplex plus (1, 1, 1), volume 12
    summed over the placing's tetrahedra, the simplex (8) and the cone of
    (1, 1, 1) over the face it sees (4)."""
    config = PointConfig([(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 1)])
    monkeypatch.setattr(polytope, "ENUMERATION_BUDGET", 12)
    assert len(lattice_points(config)) == 11
    monkeypatch.setattr(polytope, "ENUMERATION_BUDGET", 11)
    with pytest.raises(EnumerationBudgetExceeded, match="normalized volume 12 exceeds"):
        lattice_points(config)


#: The thin hulls: OVER_BUDGET's five points, and those plus
#: (-1, -10000, 1), a six-point hull of width one, outside the
#: classification.  Each holds only its own points.
THIN_HULL5 = OVER_BUDGET[2][0]
THIN_HULL6 = THIN_HULL5 + [(-1, -10000, 1)]

#: Each thin hull with analyze's stdout.
THIN_HULLS = [
    (THIN_HULL5, """points: 5
size: 5
vertices: 4
interior points: 0
width: 1
functional: z
volume vector: 199960000 -99980000 -99980000 0 0
dps: non-dps
size-5 class: 21(9999, 99980000)
size 5, width 1
"""),
    (THIN_HULL6, """points: 6
size: 6
vertices: 4
interior points: 0
width: 1
functional: z
coplanarity: (2,1)
volume vector: 0 0 0 -99980000 99980000 199960000 99980000 -99980000 -199960000 0 199960000 -199960000 -399920000 0 0
dps: non-dps
oriented matroid: 2.1
class: not in classification (width 1 or size != 6)
size 6, width 1
"""),
]


@pytest.mark.parametrize("points, out", THIN_HULLS, ids=["thin-hull-5", "thin-hull-6"])
def test_analyze_of_a_thin_hull(points, out, tmp_path, capsys, monkeypatch):
    """analyze answers a thin hull, whose normalized volume is over the
    budget, from its fine cells, which are empty: one placing and no
    lattice point enumerated.  lattice_points of the same hull is still
    refused (test_hull_over_budget_is_refused_before_enumeration)."""
    calls = count_calls(monkeypatch, polytope._placing, polytope._tetrahedron_points)
    path = tmp_path / "points.txt"
    path.write_text(format_points(points))
    assert main(["analyze", str(path)]) == 0
    assert capsys.readouterr() == (out, "")
    assert calls == {"_placing": 1, "_tetrahedron_points": 0}


def _white(p, q):
    """White's empty tetrahedron T(p, q)."""
    return [(0, 0, 0), (1, 0, 0), (0, 0, 1), (p, q, 1)]


#: Empty tetrahedra at the bound, with the summary line analyze ends with.
LONG_TETRAHEDRA = [
    ([(0, 0, 0), (1, 0, 0), (0, 1, 0), (10000, 10000, 9999)], "size 4, width 1, White type (1,9999)"),
    (_white(2, 9999), "size 4, width 1, White type (2,9999)"),
]


@pytest.mark.parametrize("points, summary", LONG_TETRAHEDRA, ids=["needle", "white-2-9999"])
def test_analyze_of_a_long_empty_tetrahedron(points, summary, tmp_path, capsys, monkeypatch):
    """analyze takes one hull (one placing), whose one cell is empty, so
    it enumerates no lattice point, and one width."""
    calls = count_calls(monkeypatch, polytope._tetrahedron_points, polytope._placing,
                        invariants.width)
    path = tmp_path / "points.txt"
    path.write_text(format_points(points))
    assert main(["analyze", str(path)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == summary
    assert calls == {"_tetrahedron_points": 0, "_placing": 1, "width": 1}


#: Size-5 family members and White tetrahedra with parameters near 10^4,
#: with the line analyze names them by.
STRESS = [
    (rep21(4999, 9999).points, "size-5 class: 21(4999, 9999)"),
    (rep21(1, 10000).points, "size-5 class: 21(1, 10000)"),
    (rep21(3, 9998).points, "size-5 class: 21(3, 9998)"),
    (rep32(4999, 5000).points, "size-5 class: 32(4999, 5000)"),
    (rep32(1, 9999).points, "size-5 class: 32(1, 9999)"),
    (rep32(3, 9998).points, "size-5 class: 32(3, 9998)"),
    (_white(3, 9973), "size 4, width 1, White type (3,9973)"),
    (_white(5, 9998), "size 4, width 1, White type (5,9998)"),
    # 4999 = -2^-1 modulo 9999, so T(4999, 9999) has type (2, 9999)
    (_white(4999, 9999), "size 4, width 1, White type (2,9999)"),
    (_white(1, 10000), "size 4, width 1, White type (1,10000)"),
]
STRESS_IDS = ["rep21-4999-9999", "rep21-1-10000", "rep21-3-9998", "rep32-4999-5000",
              "rep32-1-9999", "rep32-3-9998", "white-3-9973", "white-5-9998",
              "white-4999-9999", "white-1-10000"]


@pytest.mark.parametrize("points, line", STRESS, ids=STRESS_IDS)
def test_analyze_of_a_stress_family_member(points, line, tmp_path, capsys, monkeypatch):
    """analyze names each member, with no lattice point enumerated."""
    calls = count_calls(monkeypatch, polytope._tetrahedron_points)
    path = tmp_path / "points.txt"
    path.write_text(format_points(points))
    assert main(["analyze", str(path)]) == 0
    assert line in capsys.readouterr().out.splitlines()
    assert calls == {"_tetrahedron_points": 0}


def _signed_swap(points):
    """A relabeled unimodular image that keeps every |coordinate|:
    (x, y, z) -> (y, -z, x), with the points in reverse order."""
    return [(y, -z, x) for x, y, z in reversed(points)]


@pytest.mark.parametrize(
    "points", [points for points, _ in LONG_TETRAHEDRA] + [THIN_HULL6] + [points for points, _ in STRESS],
    ids=["needle", "white-2-9999", "thin-hull-6"] + STRESS_IDS)
def test_equiv_of_an_image_at_the_bound(points, tmp_path, capsys, monkeypatch):
    """equiv finds the witness without a hull or a lattice point."""
    calls = count_calls(monkeypatch, polytope._placing, polytope._tetrahedron_points)
    path_a, path_b = tmp_path / "a.txt", tmp_path / "b.txt"
    path_a.write_text(format_points(points))
    path_b.write_text(format_points(_signed_swap(points)))
    assert main(["equiv", str(path_a), str(path_b)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "equivalent"
    assert calls == {"_placing": 0, "_tetrahedron_points": 0}


def test_thin_hulls_are_answered_without_enumeration(monkeypatch):
    """classify5 names the five-point thin hull's class from one placing
    whose fine cells are empty, and identify finds no row for the
    six-point one by its canonical key, with no hull; neither enumerates
    a lattice point."""
    calls = count_calls(monkeypatch, polytope._placing, polytope._tetrahedron_points)
    assert classify5(PointConfig(THIN_HULL5)).label == "21(9999, 99980000)"
    assert calls == {"_placing": 1, "_tetrahedron_points": 0}
    assert identify(PointConfig(THIN_HULL6)) is None
    assert calls == {"_placing": 1, "_tetrahedron_points": 0}
