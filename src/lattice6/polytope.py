"""Small lattice point configurations in Z^3 and their convex hulls.

A PointConfig is an ordered tuple of 4..8 distinct lattice points.  Hulls
are computed by brute force over point triples (C(n,3) candidate planes,
each tested against n points; fine at these sizes), all predicates are
integer-exact, vertices are read off the facets through each point, and
lattice points of the hull are enumerated column by column over the
bounding box, each (x, y) column's z-interval read off the facet
inequalities (cost: box area times facets, plus the points found).  Hull
computations need affine rank 4 and raise NotFullDimensional otherwise.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, List, Sequence, Tuple

from .exactlinalg import (
    IntVec3,
    check_point,
    cross,
    det4,
    dot,
    gcd_all,
    sub,
)


class NotFullDimensional(ValueError):
    """Raised when an operation needs a full-dimensional configuration."""


class IndexOutOfRange(IndexError):
    """Raised by delete_point for a bad point index."""


@dataclass(frozen=True)
class Facet:
    """Supporting hyperplane of the hull: normal . x >= offset for all points.

    The normal is the primitive inward normal; at least 3 configuration
    points satisfy equality.
    """

    normal: IntVec3
    offset: int

    def value(self, p: Sequence[int]) -> int:
        return dot(self.normal, p) - self.offset


class PointConfig:
    """Ordered configuration of 4..8 distinct lattice points."""

    __slots__ = ("points",)

    def __init__(self, points: Sequence[Sequence[int]]):
        pts = tuple(check_point(p) for p in points)
        if not 4 <= len(pts) <= 8:
            raise ValueError(f"need 4..8 points, got {len(pts)}")
        if len(set(pts)) != len(pts):
            raise ValueError("points must be distinct")
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __getitem__(self, i):
        return self.points[i]

    def __eq__(self, other):
        return isinstance(other, PointConfig) and self.points == other.points

    def __hash__(self):
        return hash(self.points)

    def __repr__(self):
        return f"PointConfig({list(self.points)!r})"

    def is_full_dimensional(self) -> bool:
        return any(
            det4(*quad) != 0 for quad in itertools.combinations(self.points, 4)
        )


def independent_quadruple(config: PointConfig) -> Tuple[int, int, int, int]:
    """First (lexicographic) affinely independent index quadruple."""
    for quad in itertools.combinations(range(len(config)), 4):
        if det4(*(config[i] for i in quad)) != 0:
            return quad
    raise NotFullDimensional("all quadruples are coplanar")


def hull_facets(config: PointConfig) -> Tuple[Facet, ...]:
    """Facets of conv(config) as primitive inward normals with offsets.

    Brute force: every point triple spans a candidate plane; keep it when
    all points lie (weakly) on one side.  Raises NotFullDimensional for
    configurations of affine rank < 4.
    """
    pts = config.points
    if not config.is_full_dimensional():
        raise NotFullDimensional("configuration spans no 3-dimensional volume")
    facets = {}
    for a, b, c in itertools.combinations(pts, 3):
        n = cross(sub(b, a), sub(c, a))
        if n == (0, 0, 0):
            continue
        g = gcd_all(n)
        n = (n[0] // g, n[1] // g, n[2] // g)
        base = dot(n, a)
        values = [dot(n, p) - base for p in pts]
        if all(v >= 0 for v in values):
            facets[(n, base)] = Facet(n, base)
        elif all(v <= 0 for v in values):
            m = (-n[0], -n[1], -n[2])
            facets[(m, -base)] = Facet(m, -base)
    return tuple(sorted(facets.values(), key=lambda f: (f.normal, f.offset)))


def iter_hull_lattice_points(config: PointConfig) -> Iterator[IntVec3]:
    """Yield lattice points of conv(config), lexicographically sorted."""
    yield from _scan_box(config, hull_facets(config))


def _scan_box(config: PointConfig, facets: Sequence[Facet]) -> Iterator[IntVec3]:
    """Bounding-box points of config on the inner side of every facet.

    Column by column: for fixed (x, y) each facet a*x + b*y + c*z >= offset
    bounds z from below (c > 0) or above (c < 0), or holds or fails for
    the whole column (c = 0), so each column costs one pass over the
    facets plus the points it yields.
    """
    xs = [p[0] for p in config]
    ys = [p[1] for p in config]
    zs = [p[2] for p in config]
    z_lo, z_hi = min(zs), max(zs)
    rows = [(f.normal, f.offset) for f in facets]
    for x in range(min(xs), max(xs) + 1):
        for y in range(min(ys), max(ys) + 1):
            lo, hi = z_lo, z_hi
            for (a, b, c), offset in rows:
                r = offset - a * x - b * y  # need c * z >= r
                if c > 0:
                    lo = max(lo, -(-r // c))
                elif c < 0:
                    hi = min(hi, r // c)
                elif r > 0:
                    hi = lo - 1
                    break
            for z in range(lo, hi + 1):
                yield (x, y, z)


def lattice_points(config: PointConfig) -> Tuple[IntVec3, ...]:
    """All lattice points of conv(config), lexicographically sorted."""
    return tuple(iter_hull_lattice_points(config))


def size(config: PointConfig) -> int:
    """Number of lattice points of conv(config)."""
    return sum(1 for _ in iter_hull_lattice_points(config))


def size_exceeds(config: PointConfig, limit: int) -> bool:
    """True as soon as conv(config) contains more than `limit` lattice points.

    Early-exit variant of size() for rejection scans.
    """
    count = 0
    for _ in iter_hull_lattice_points(config):
        count += 1
        if count > limit:
            return True
    return False


def vertices(config: PointConfig) -> Tuple[IntVec3, ...]:
    """Configuration points that are vertices of conv(config), in input order.

    A point of a 3-polytope in the relative interior of an edge lies on
    two facets, of a facet on one, and a vertex on at least three (whose
    inward normals have rank 3).  So a point is a vertex iff at least
    three hull facets pass through it.  Cost: one hull_facets call.
    """
    facets = hull_facets(config)
    return tuple(
        p for p in config.points
        if sum(1 for f in facets if f.value(p) == 0) >= 3
    )


def lattice_and_interior_points(
    config: PointConfig,
) -> Tuple[Tuple[IntVec3, ...], Tuple[IntVec3, ...]]:
    """Lattice points of conv(config) and those strictly inside it.

    Both lexicographically sorted, from one hull and one scan, for callers
    that need the size and the interior points of the same hull.
    """
    facets = hull_facets(config)
    points = tuple(_scan_box(config, facets))
    return points, tuple(p for p in points if all(f.value(p) > 0 for f in facets))


def interior_points(config: PointConfig) -> Tuple[IntVec3, ...]:
    """Lattice points strictly inside conv(config), lexicographically sorted."""
    return lattice_and_interior_points(config)[1]


def delete_point(config: PointConfig, index: int) -> PointConfig:
    """Configuration with the index-th point removed."""
    if not 0 <= index < len(config):
        raise IndexOutOfRange(f"point index {index} out of range")
    return PointConfig(config.points[:index] + config.points[index + 1 :])


def parse_points(text: str) -> PointConfig:
    """Parse a points file: one 'x y z' triple per line.

    Blank lines and lines starting with '#' are ignored; coordinates are
    signed decimal integers.
    """
    pts: List[IntVec3] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"line {lineno}: expected 3 coordinates, got {len(parts)}")
        try:
            pts.append(tuple(int(s) for s in parts))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from exc
    return PointConfig(pts)


def format_points(points: Sequence[Sequence[int]]) -> str:
    return "\n".join(" ".join(str(c) for c in p) for p in points) + "\n"
