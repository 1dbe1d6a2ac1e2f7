"""Shared fixtures and helpers for the lattice6 test suite."""

from __future__ import annotations

import random
import sys
import time

import pytest

from lattice6.equivalence import AffineMap
from lattice6.polytope import PointConfig
from lattice6.tablesdata import load_tables
from lattice6 import classify6


def random_unimodular(rng: random.Random, translation_bound: int = 5) -> AffineMap:
    """Random affine map of determinant +-1 built from shears, swaps and signs."""
    m = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    for _ in range(rng.randrange(4, 10)):
        i, j = rng.sample(range(3), 2)
        k = rng.randrange(-3, 4)
        for c in range(3):
            m[i][c] += k * m[j][c]
    if rng.random() < 0.5:
        i, j = rng.sample(range(3), 2)
        m[i], m[j] = m[j], m[i]
    if rng.random() < 0.5:
        i = rng.randrange(3)
        m[i] = [-x for x in m[i]]
    t = tuple(rng.randrange(-translation_bound, translation_bound + 1) for _ in range(3))
    return AffineMap(tuple(tuple(row) for row in m), t)


def apply_map(m: AffineMap, config: PointConfig) -> PointConfig:
    return PointConfig([m.apply(p) for p in config.points])


#: Six points whose |volume| profile is a row's, with a seventh lattice
#: point in their hull: the gate of |volumes| lets it through and no row
#: is named.
SIZE7_IN_GATE = [(-1, 2, 0), (-1, 2, 1), (0, -1, -1), (0, 1, 0), (1, 1, 0), (2, -1, 0)]


#: The (3,1) base conv{o, e1, e2, -e1-e2} of the apex configurations
#: that size5.admissible_apex_31 decides.
APEX31_BASE = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (-1, -1, 0)]


def sporadic5(signature, width: int) -> PointConfig:
    """Representative of the sporadic size-5 row ((2, 2), 1), ((3, 1), 1) or
    ((3, 1), 2); the eight (4,1) rows are size5.catalog41()."""
    (row,) = [r for r in load_tables().size5_rows
              if tuple(r["signature"]) == signature and r["width"] == width]
    return PointConfig(row["representative"])


def shuffled(rng: random.Random, config: PointConfig) -> PointConfig:
    pts = list(config.points)
    rng.shuffle(pts)
    return PointConfig(pts)


def count_calls(monkeypatch, *functions) -> dict:
    """Wrap each function wherever a lattice6 module looks it up.

    Returns a dict from function name to call count, filled as calls
    happen; the wrappers are undone with the monkeypatch fixture.
    """
    calls = {fn.__name__: 0 for fn in functions}
    for fn in functions:
        def counted(*args, _fn=fn):
            calls[_fn.__name__] += 1
            return _fn(*args)

        for name, module in list(sys.modules.items()):
            if name.startswith("lattice6"):
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        monkeypatch.setattr(module, attr, counted)
    return calls


@pytest.fixture(scope="session")
def bundle():
    return load_tables()


@pytest.fixture(scope="session")
def reps(bundle):
    """Table representatives keyed by class id."""
    return {row.id: row.config() for row in bundle.class_rows}


@pytest.fixture(scope="session")
def case_reports():
    """One full classification run shared by all tests, with its wall time."""
    start = time.monotonic()
    reports = classify6.run_reports()
    elapsed = time.monotonic() - start
    return tuple(reports), elapsed
