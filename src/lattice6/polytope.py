"""Small lattice point configurations in Z^3 and their convex hulls.

A PointConfig is an ordered tuple of 4..8 distinct lattice points.  Hulls
are computed in one pass over the point triples (C(n,3) candidate planes;
fine at these sizes), which also decides full dimensionality; all
predicates are integer-exact, and vertices are read off the facets
through each point.
Lattice points of the hull are enumerated per tetrahedron: the hull is
coned from its first vertex over a fan triangulation of every facet not
through it, and a tetrahedron of normalized volume D contributes the
points of its half-open fundamental parallelepiped (one per coset of the
edge lattice, D in all) whose barycentric numerators sum to at most D,
plus its three far vertices.  So the cost is the hull's normalized volume
plus the points found, whatever the size of the coordinates; the union
is returned lexicographically sorted.  Hull computations need affine
rank 4 and raise NotFullDimensional otherwise.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from math import gcd
from typing import List, Sequence, Tuple

from .exactlinalg import (
    IntVec3,
    _adjugate,
    check_point,
    det3,
    dot,
    hermite_normal_form,
    quad_volumes,
    sub,
)


_INTEGER = re.compile(r"[+-]?[0-9]+")


class NotFullDimensional(ValueError):
    """Raised when an operation needs a full-dimensional configuration."""


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
        self._set_points(tuple(check_point(p) for p in points))

    @classmethod
    def _of_checked(cls, points: Sequence[IntVec3]) -> "PointConfig":
        """A configuration of points that check_point has already accepted,
        such as the points of other configurations: only the count and
        distinctness are checked."""
        cfg = object.__new__(cls)
        cfg._set_points(tuple(points))
        return cfg

    def _set_points(self, pts: Tuple[IntVec3, ...]) -> None:
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
        return any(quad_volumes(self.points).values())


def hull_facets(config: PointConfig) -> Tuple[Facet, ...]:
    """Facets of conv(config) as primitive inward normals with offsets.

    One pass over the point triples: each spans a plane, which is a facet
    when no two points lie strictly on opposite sides of it (the scan stops
    at the first such pair; only facets are reduced by the gcd).  The
    points span 3-space iff one lies off some triple's plane; otherwise
    NotFullDimensional is raised.
    """
    pts = config.points
    full, facets = False, set()
    for (ax, ay, az), (bx, by, bz), (cx, cy, cz) in itertools.combinations(pts, 3):
        ux, uy, uz = bx - ax, by - ay, bz - az
        vx, vy, vz = cx - ax, cy - ay, cz - az
        nx, ny, nz = uy * vz - uz * vy, uz * vx - ux * vz, ux * vy - uy * vx
        base = nx * ax + ny * ay + nz * az
        pos = neg = False
        for x, y, z in pts:
            v = nx * x + ny * y + nz * z - base
            pos = pos or v > 0
            neg = neg or v < 0
            if pos and neg:
                break
        full = full or pos or neg
        if pos != neg:
            g = gcd(gcd(nx, ny), nz) * (-1 if neg else 1)
            facets.add(((nx // g, ny // g, nz // g), base // g))
    if not full:
        raise NotFullDimensional("configuration spans no 3-dimensional volume")
    return tuple(Facet(n, offset) for n, offset in sorted(facets))


def _planes(facets: Sequence[Facet]) -> List[Tuple[int, int, int, int]]:
    return [(*f.normal, f.offset) for f in facets]


def _vertices(config: PointConfig, facets: Sequence[Facet]) -> Tuple[IntVec3, ...]:
    """Configuration points that are vertices of conv(config), in input order.

    A point of a 3-polytope in the relative interior of an edge lies on
    two facets, of a facet on one, and a vertex on at least three (whose
    inward normals have rank 3).  So a point is a vertex iff at least
    three of the hull's facets pass through it.
    """
    planes = _planes(facets)
    return tuple(
        p for p in config.points
        if sum(a * p[0] + b * p[1] + c * p[2] == o for a, b, c, o in planes) >= 3
    )


def _cone_triangulation(
    config: PointConfig, facets: Sequence[Facet]
) -> List[Tuple[IntVec3, IntVec3, IntVec3, IntVec3]]:
    """Tetrahedra (v0, a, b, c) that triangulate conv(config).

    v0 is the first vertex of config.  Every facet not through v0 is a
    convex polygon; unless it is a triangle, its boundary is walked along
    its edges, the ordered vertex pairs (p, q) with every other vertex of
    the facet strictly on the positive side of det3(normal, q - p, r - p),
    and fanned from its first vertex.  Each triangle is coned from v0.
    """
    verts = _vertices(config, facets)
    v0 = verts[0]
    tetrahedra = []
    for a, b, c, o in _planes(facets):
        if a * v0[0] + b * v0[1] + c * v0[2] == o:
            continue
        poly = [p for p in verts if a * p[0] + b * p[1] + c * p[2] == o]
        if len(poly) == 3:
            tetrahedra.append((v0, *poly))
            continue
        succ = {}
        for p, q in itertools.permutations(poly, 2):
            pq = sub(q, p)
            if all(det3((a, b, c), pq, sub(r, p)) > 0 for r in poly if r != p and r != q):
                succ[p] = q
        ring = [poly[0]]
        while len(ring) < len(poly):
            ring.append(succ[ring[-1]])
        tetrahedra += [(v0, ring[0], ring[i], ring[i + 1]) for i in range(1, len(ring) - 1)]
    return tetrahedra


def _tetrahedron_points(v0: IntVec3, a: IntVec3, b: IntVec3, c: IntVec3) -> List[IntVec3]:
    """Lattice points of the tetrahedron conv(v0, a, b, c), unordered.

    With E the edge matrix (columns a - v0, b - v0, c - v0) and D = |det E|,
    each of the D cosets of Z^3 / E Z^3 has one point v0 + E (lambda / D)
    in the half-open parallelepiped 0 <= lambda_i < D, where lambda is
    sign(det E) adj(E) r mod D for any representative r; the coset
    representatives are read off the pivots of the Hermite normal form of
    the edge vectors.  The tetrahedron keeps the points with
    sum(lambda) <= D, plus a, b and c (the corners lambda = D e_i).
    Cost: D coset steps (Beck-Robins, Computing the Continuous
    Discretely, ch. 3).
    """
    edges = (sub(a, v0), sub(b, v0), sub(c, v0))
    e = tuple(zip(*edges))
    det = det3(*edges)
    if det == 0:
        raise RuntimeError(f"degenerate tetrahedron {(v0, a, b, c)}")
    d = abs(det)
    s = 1 if det > 0 else -1
    adj = _adjugate(e)
    (c00, c01, c02), (c10, c11, c12), (c20, c21, c22) = (
        tuple(s * x for x in row) for row in adj
    )
    (e00, e01, e02), (e10, e11, e12), (e20, e21, e22) = e
    x0, y0, z0 = v0
    hnf = hermite_normal_form(edges)
    points = [a, b, c]
    for r0, r1, r2 in itertools.product(*(range(hnf[i][i]) for i in range(3))):
        l0 = (c00 * r0 + c01 * r1 + c02 * r2) % d
        l1 = (c10 * r0 + c11 * r1 + c12 * r2) % d
        l2 = (c20 * r0 + c21 * r1 + c22 * r2) % d
        if l0 + l1 + l2 <= d:
            points.append((
                x0 + (e00 * l0 + e01 * l1 + e02 * l2) // d,
                y0 + (e10 * l0 + e11 * l1 + e12 * l2) // d,
                z0 + (e20 * l0 + e21 * l1 + e22 * l2) // d,
            ))
    return points


def _hull_points(config: PointConfig, facets: Sequence[Facet]) -> Tuple[IntVec3, ...]:
    """Lattice points of conv(config), lexicographically sorted: the union
    of the points of the tetrahedra of _cone_triangulation."""
    points = set()
    for tetrahedron in _cone_triangulation(config, facets):
        points.update(_tetrahedron_points(*tetrahedron))
    if not points.issuperset(config.points):
        raise RuntimeError(f"triangulation of {config!r} misses configuration points")
    return tuple(sorted(points))


def lattice_points(config: PointConfig) -> Tuple[IntVec3, ...]:
    """All lattice points of conv(config), lexicographically sorted."""
    return _hull_points(config, hull_facets(config))


def size(config: PointConfig) -> int:
    """Number of lattice points of conv(config)."""
    return len(_hull_points(config, hull_facets(config)))


def lattice_and_interior_points(
    config: PointConfig,
) -> Tuple[Tuple[IntVec3, ...], Tuple[IntVec3, ...]]:
    """Lattice points of conv(config) and those strictly inside it.

    Both lexicographically sorted, from one hull and one enumeration, for
    callers that need the size and the interior points of the same hull.
    """
    return _points_and_interior(config, hull_facets(config))


def hull_summary(
    config: PointConfig,
) -> Tuple[Tuple[IntVec3, ...], Tuple[IntVec3, ...], Tuple[IntVec3, ...]]:
    """lattice_and_interior_points and the vertices (_vertices) from one
    hull_facets call."""
    facets = hull_facets(config)
    return (*_points_and_interior(config, facets), _vertices(config, facets))


def _points_and_interior(config: PointConfig, facets: Sequence[Facet]):
    points = _hull_points(config, facets)
    planes = _planes(facets)
    return points, tuple(
        p for p in points if all(a * p[0] + b * p[1] + c * p[2] > o for a, b, c, o in planes))


def parse_points(text: str) -> PointConfig:
    """Parse a points file: one 'x y z' triple per line.

    Blank lines and lines starting with '#' are ignored; coordinates are
    signed decimal integers in ASCII digits ([+-]?[0-9]+).
    """
    pts: List[IntVec3] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"line {lineno}: expected 3 coordinates, got {len(parts)}")
        for part in parts:
            if not _INTEGER.fullmatch(part):
                raise ValueError(f"line {lineno}: not a decimal integer: {part!r}")
        pts.append(tuple(int(s) for s in parts))
    return PointConfig(pts)


def format_points(points: Sequence[Sequence[int]]) -> str:
    return "\n".join(" ".join(str(c) for c in p) for p in points) + "\n"
