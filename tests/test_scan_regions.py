"""The scan boxes of cases B, C and D hold every point of their
normalized regions that could survive.

Both runners scan the apex (a, b) over the box |a|, |b| <= SCAN_BOUND and
keep the points of the paper's normalized region.  B's three regions are
bounded: each is enumerated here from its strip coordinates, must be what
the runner's filter keeps, and must lie inside the box.  D's region is
unbounded.  On each unbounded piece every candidate fails, by a width-one
functional or by a seventh lattice point whose convex weights are affine
in a; those are checked as identities in a, not by sampling.  The points
no witness covers are D's three survivors, and they lie inside the box.
Case C's "both vertices" subcase scans p5 = (a, b, 1) over the part
1 <= a, b <= SCAN_BOUND of the quadrant a, b >= 1; one witness affine in
(a, b) puts a seventh lattice point in the hull of every other point of
the quadrant, so its one survivor (1, 1) lies inside the box.
"""

import pytest

from lattice6 import classify6
from lattice6.classify6 import SCAN_BOUND
from lattice6.exactlinalg import dot

# ---------------------------------------------------------------------------
# case B: three bounded regions

#: Per B subcase: the denominator d of its strip, 0 <= x < d and
#: 0 <= y < 3x + 2d for the crossing point (x, y) / d, and the apexes
#: (a, b) whose crossing point is the strip point (x, y).  (i) and (ii)
#: cross at (a, b) / d in the cone x <= y; (iii) crosses at (a + 1, b + 2) / 2
#: either way round.
B_STRIPS = {
    "i": (2, lambda x, y: [(x, y)] if x <= y else []),
    "ii": (4, lambda x, y: [(x, y)] if x <= y else []),
    "iii": (2, lambda x, y: [(x - 1, y - 2), (y - 1, x - 2)]),
}

#: Per B subcase: the printed list's length and the region's largest
#: |coordinate|.
B_SHAPES = {"i": (10, 6), "ii": (44, 16), "iii": (18, 5)}


def _b_region(tag):
    d, apexes = B_STRIPS[tag]
    return {p for x in range(d) for y in range(3 * x + 2 * d) for p in apexes(x, y)}


@pytest.mark.parametrize("subcase", classify6._B_SUBCASES, ids=lambda s: s[0])
def test_case_b_region_lies_in_the_scan_box(subcase):
    """The strip points, mapped back to apexes, are the printed list's
    length, reach at most SCAN_BOUND, and are exactly what the runner's
    region filter keeps of its box."""
    tag, _, _, region, _, _, printed = subcase
    points = _b_region(tag)
    reach = max(abs(c) for p in points for c in p)
    assert (len(points), reach) == B_SHAPES[tag]
    assert printed == len(points) and reach <= SCAN_BOUND
    assert {p for p in classify6._scan_box() if region(*p)} == points


# ---------------------------------------------------------------------------
# case D: an unbounded region, covered by witnesses affine in a

#: D's fixed points p1..p5: the runner's unit square of its
#: (2,2)-circuit and p5 = (0, 0, 1).  The apex is p6 = (a, b, -1).
D_FIXED = dict(zip(("p1", "p2", "p3", "p4", "p5"), (*classify6._D_BASE, (0, 0, 1))))

#: The apexes a whose candidates have width one: x + z has range 1.
D_WIDTH_ONE = (1, 2)

#: The seventh lattice point of the band witnesses; it is none of p1..p6,
#: as p6 lies at height -1.
SEVENTH = (2, 2, 0)

#: Per band b = a + k: the first a it covers, and m * SEVENTH = sum c_i p_i
#: with m and each c_i an affine function of a, (value at a = 0, slope).
#: For a >= start the c_i / m are convex weights, so SEVENTH lies in the
#: hull.
D_BAND_WITNESSES = (
    (0, 4, (0, 1), {"p1": (-4, 1), "p5": (2, 0), "p6": (2, 0)}),
    (1, 5, (1, 1), {"p1": (-5, 1), "p2": (2, 0), "p5": (2, 0), "p6": (2, 0)}),
)


def _at(f, a):
    return f[0] + f[1] * a


def test_case_d_low_apexes_have_width_one():
    """For a in {1, 2} the functional x + z takes its values in {0, 1} on
    the six points, for every b: its value on p6 = (a, 0, -1) + b (0, 1, 0)
    does not move with b."""
    f = (1, 0, 1)
    for a in D_WIDTH_ONE:
        p6_at_0, p6_slope = (a, 0, -1), (0, 1, 0)
        assert dot(f, p6_slope) == 0
        values = {dot(f, p) for p in (*D_FIXED.values(), p6_at_0)}
        assert (min(values), max(values)) == (0, 1)


@pytest.mark.parametrize("k, start, m, coeffs", D_BAND_WITNESSES, ids=["b=a", "b=a+1"])
def test_case_d_band_has_a_seventh_point(k, start, m, coeffs):
    """On the band b = a + k, for every a >= start, m(a) SEVENTH is a
    nonnegative combination of the points with weights summing to m(a) > 0,
    so the hull holds SEVENTH and the candidate has more than six points.

    p6 = (0, k, -1) + a (1, 1, 0) is the only point that moves, and its
    weight does not, so both sides are affine in a and agree everywhere
    once they agree at two values.  An affine weight is nonnegative from
    start on when it is at start and its slope is."""
    points = {name: (p, (0, 0, 0)) for name, p in D_FIXED.items()}
    points["p6"] = ((0, k, -1), (1, 1, 0))
    assert all(c[1] == 0 or points[name][1] == (0, 0, 0) for name, c in coeffs.items())
    for a in (start, start + 1):
        moved = {name: tuple(s + t * a for s, t in zip(*p)) for name, p in points.items()}
        combination = tuple(sum(_at(c, a) * moved[name][t] for name, c in coeffs.items())
                            for t in range(3))
        assert combination == tuple(_at(m, a) * t for t in SEVENTH)
    assert tuple(map(sum, zip(*coeffs.values()))) == m
    for f in (m, *coeffs.values()):
        assert f[1] >= 0 and _at(f, start) >= 0
    assert _at(m, start) > 0
    assert SEVENTH not in D_FIXED.values() and (points["p6"][0][2], points["p6"][1][2]) == (-1, 0)


def test_case_d_uncovered_points_are_its_survivors():
    """D's region, 1 <= a <= b with a < 2 or b < a + 2, is the ray a = 1
    and the bands b = a and b = a + 1 from a = 2.  The runner's filter
    keeps exactly that many points of its box.  Width one covers a = 1
    and a = 2, and each band's witness covers it from its start, so the
    points left are (3, 3), (3, 4) and (4, 5), D's survivors, inside the
    box."""
    s = SCAN_BOUND
    in_box = {(1, b) for b in range(1, s + 1)} | {
        (a, a + k) for k in (0, 1) for a in range(2, s + 1 - k)}
    report = classify6.run_case_d()
    outside = report.rejected["intersection point outside the normalized region"]
    assert report.candidates_examined - outside == len(in_box)
    uncovered = {(a, a + k) for k, start, _, _ in D_BAND_WITNESSES
                 for a in range(2, start) if a not in D_WIDTH_ONE}
    assert uncovered == {(3, 3), (3, 4), (4, 5)}
    assert all(max(map(abs, p)) <= SCAN_BOUND for p in uncovered)


# ---------------------------------------------------------------------------
# case C: the "both vertices" quadrant, covered by one witness affine in (a, b)

#: The points of C's witness: p5 = (a, b, 1), p6 = (1, 2, 3) and two
#: points of _B_BASE.  Only p5 moves: (1, 1, 1) + (a - 1, b - 1, 0).
C_POINTS = {"p5": ((1, 1, 1), (1, 0, 0), (0, 1, 0)), "p6": ((1, 2, 3), (0, 0, 0), (0, 0, 0)),
            "e1": ((1, 0, 0), (0, 0, 0), (0, 0, 0)), "e2": ((0, 1, 0), (0, 0, 0), (0, 0, 0))}

#: m (1, 1, 1) = sum c_i p_i with m and each c_i affine in (a, b), as
#: (value at (1, 1), slope in a, slope in b): with U = 3(a - 1) + 6(b - 1)
#: and V = 3(a - 1), m = 3(2 + U + V), c_p5 = 6, c_p6 = U + V,
#: c_e1 = 2U and c_e2 = 2V.
C_M = (6, 18, 18)
C_WEIGHTS = {"p5": (6, 0, 0), "p6": (0, 6, 6), "e1": (0, 6, 12), "e2": (0, 6, 0)}


def _affine(f, a, b):
    return f[0] + f[1] * (a - 1) + f[2] * (b - 1)


def test_case_c_quadrant_has_a_seventh_point():
    """For every a, b >= 1, m (1, 1, 1) is a nonnegative combination of
    p5, p6 and two base points with weights summing to m > 0, so
    (1, 1, 1) lies in the hull; it is none of the six points unless
    p5 = (1, 1, 1), as p6 and the base are not (1, 1, 1).

    The weights of the moving p5 do not move, so both sides are affine in
    (a, b) and agree everywhere once they agree at (1, 1), (2, 1) and
    (1, 2).  An affine weight is nonnegative on the quadrant when its
    value at (1, 1) and both slopes are."""
    assert {(1, 0, 0), (0, 1, 0)} <= set(classify6._B_BASE)
    assert (1, 1, 1) not in classify6._B_BASE and C_POINTS["p6"][0] != (1, 1, 1)
    assert all(f[1:] == (0, 0) or C_POINTS[name][1:] == ((0, 0, 0),) * 2
               for name, f in C_WEIGHTS.items())
    for a, b in ((1, 1), (2, 1), (1, 2)):
        at = {name: tuple(p + (a - 1) * da + (b - 1) * db for p, da, db in zip(*pts))
              for name, pts in C_POINTS.items()}
        combination = tuple(sum(_affine(f, a, b) * at[name][t] for name, f in C_WEIGHTS.items())
                            for t in range(3))
        assert combination == (_affine(C_M, a, b),) * 3
    assert tuple(map(sum, zip(*C_WEIGHTS.values()))) == C_M
    assert all(min(f) >= 0 for f in (C_M, *C_WEIGHTS.values())) and C_M[0] > 0


def test_case_c_quadrant_survivor_lies_in_the_scan_box():
    """The witness leaves (1, 1) alone in the quadrant, and it lies in the
    box: the runner examines the SCAN_BOUND ** 2 points of
    [1, SCAN_BOUND] ** 2 and rejects all but that one for extra lattice
    points."""
    assert 1 <= SCAN_BOUND
    report = classify6.run_case_c()
    assert report.rejected["extra lattice points in the convex hull"] == SCAN_BOUND ** 2 - 1
