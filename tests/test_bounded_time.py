"""Inputs at the coordinate bound finish or fail by name.

Until the lattice-point enumerator follows the points it finds (ROADMAP
item 2), polytope._hull_points sums the normalized volumes of its cone
tetrahedra first and refuses a hull over ENUMERATION_BUDGET with
EnumerationBudgetExceeded, which analyze reports as an input error.  A
refusal is asserted by a work count, no tetrahedron enumerated, and not
by a time.
"""

import pytest

from conftest import count_calls
from lattice6 import polytope
from lattice6.cli import main
from lattice6.polytope import (
    ENUMERATION_BUDGET,
    EnumerationBudgetExceeded,
    PointConfig,
    format_points,
    lattice_points,
)

#: Inputs the parser accepts whose hulls exceed the budget, with their
#: normalized volumes (the sum of |det4| over the cone triangulation).
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


@pytest.mark.parametrize("points, volume", OVER_BUDGET, ids=IDS)
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
    summed over three cone tetrahedra of volume 4."""
    config = PointConfig([(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 1)])
    monkeypatch.setattr(polytope, "ENUMERATION_BUDGET", 12)
    assert len(lattice_points(config)) == 11
    monkeypatch.setattr(polytope, "ENUMERATION_BUDGET", 11)
    with pytest.raises(EnumerationBudgetExceeded, match="normalized volume 12 exceeds"):
        lattice_points(config)
