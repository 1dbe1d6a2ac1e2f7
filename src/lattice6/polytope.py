"""Small lattice point configurations in Z^3 and their convex hulls.

A PointConfig is an ordered tuple of 4..8 distinct lattice points.  Hulls
are computed in one pass over the point triples (C(n,3) candidate planes;
fine at these sizes).  Each point's side of a triple's plane is an
entry of the configuration's volume table, PointConfig.volumes(): the
quadruple volumes followed by their negatives, indexed by
exactlinalg._slots.  So the facets share the one det4 pass of the
configuration, whose maximum, PointConfig.top_volume(), is the maximal
|volume| and decides full dimensionality.
A facet is a plane tuple (a, b, c, o), all predicates are integer-exact,
and the vertices are read off the facets through each point, once per
hull.
Lattice points of the hull are enumerated per tetrahedron: the hull is
coned from its first vertex over a fan triangulation of every facet not
through it, and a tetrahedron of normalized volume D contributes the
points of its half-open fundamental parallelepiped (one per coset of the
edge lattice, D in all) whose barycentric numerators sum to at most D,
plus its three far vertices.  So the cost is the hull's normalized volume
plus the points found, whatever the size of the coordinates; the union
is returned lexicographically sorted.  lattice_points, size and
hull_summary (which adds the interior points and the vertices) are the
entry points to that one enumeration.  The normalized volumes of the
cone tetrahedra are summed before any is enumerated, and a hull over
ENUMERATION_BUDGET raises EnumerationBudgetExceeded, an input error.
The budget is interim: it turns away thin hulls with few points too,
until an enumerator whose cost follows the points found replaces this
one.
Hull computations need affine rank 4 and raise NotFullDimensional
otherwise.
"""

from __future__ import annotations

import itertools
import re
from functools import cmp_to_key, lru_cache
from math import gcd
from operator import itemgetter
from typing import List, Sequence, Tuple

from .exactlinalg import (
    COORD_BOUND,
    IntVec3,
    _adjugate,
    _slots,
    check_point,
    det3,
    quad_volumes,
    sub,
)


#: A signed decimal integer; the second group is its significant digits.
_INTEGER = re.compile(r"([+-]?)0*([0-9]+)")
#: The digits of COORD_BOUND; a token with more significant digits is out
#: of bound.
_BOUND_DIGITS = len(str(COORD_BOUND))
#: A data line of three integer tokens of at most _BOUND_DIGITS digits,
#: which int() reads directly; other lines take the split path.
_POINT_LINE = re.compile(
    r"\s*([+-]?[0-9]{1,%d})\s+([+-]?[0-9]{1,%d})\s+([+-]?[0-9]{1,%d})\s*" % ((_BOUND_DIGITS,) * 3))

#: A facet plane (a, b, c, o): a x + b y + c z >= o on the hull.
Plane = Tuple[int, int, int, int]


class NotFullDimensional(ValueError):
    """Raised when an operation needs a full-dimensional configuration."""


#: The most normalized volume, summed over the cone tetrahedra, that
#: _hull_points enumerates: at the 0.5-0.75 us per unit measured on a
#: 2-vCPU host with Python 3.11, under about 10 s.
ENUMERATION_BUDGET = 10**7


class EnumerationBudgetExceeded(ValueError):
    """Raised, before any enumeration, for a hull whose normalized volume
    exceeds ENUMERATION_BUDGET."""


class PointConfig:
    """Ordered configuration of 4..8 distinct lattice points.

    volumes() is quad_volumes of the points, computed on its first call
    and kept in the configuration: one tuple, the volumes of the sorted
    quadruples followed by their negatives, indexed by _slots.  So the
    hull facets, circuits, volume vectors, chirotope, width and normal
    form of one configuration share one det4 pass, and top_volume, the
    maximal |volume|, is its maximum.
    """

    __slots__ = ("points", "_volumes")

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
        object.__setattr__(self, "_volumes", None)

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

    def volumes(self) -> Tuple[int, ...]:
        """quad_volumes(self.points), computed once per configuration."""
        if self._volumes is None:
            self._volumes = quad_volumes(self.points)
        return self._volumes

    def is_full_dimensional(self) -> bool:
        return any(self.volumes())

    def top_volume(self) -> int:
        """The maximal |volume| of a quadruple: the table's maximum, as it
        holds every volume with both signs.  Raises NotFullDimensional
        when it is 0."""
        top = max(self.volumes())
        if top == 0:
            raise NotFullDimensional("configuration spans no 3-dimensional volume")
        return top


@lru_cache(maxsize=None)
def _triple_sides(n: int) -> Tuple[Tuple[Tuple[int, int, int], itemgetter], ...]:
    """Per index triple i < j < k of n points, in combinations order: the
    triple and a getter of det4(p_i, p_j, p_k, p_l) for the other points
    l, at their _slots in the volume table.  The getter
    repeats its first entry, so that it returns a tuple also for n = 4.
    Built once per point count n."""
    slots = _slots(n)
    sides = []
    for tri in itertools.combinations(range(n), 3):
        at = [slots[tri + (l,)] for l in range(n) if l not in tri]
        sides.append((tri, itemgetter(*at, at[0])))
    return tuple(sides)


def hull_facets(config: PointConfig) -> Tuple[Plane, ...]:
    """Facets of conv(config) as sorted planes (a, b, c, o): the primitive
    inward normal (a, b, c) and the offset o, so that a x + b y + c z >= o
    on the hull, with equality on at least three configuration points.

    A point triple spans a facet when no two points lie strictly on
    opposite sides of its plane.  Point l lies on triple (i, j, k)'s side
    given by the sign of det4(p_i, p_j, p_k, p_l), which _triple_sides
    reads off the table config.volumes() keeps.  So the facets share the
    configuration's one det4 pass, and only the triples that pass take a
    cross product, and the facets a gcd; a collinear triple passes with
    all its sides zero and has a zero normal.  NotFullDimensional is
    raised when every volume is zero (top_volume).
    """
    config.top_volume()  # NotFullDimensional unless some volume is nonzero
    pts = config.points
    vols = config.volumes()
    facets = set()
    for (i, j, k), sides in _triple_sides(len(pts)):
        dets = sides(vols)
        if min(dets) >= 0:
            inward = 1
        elif max(dets) <= 0:
            inward = -1
        else:
            continue
        (ax, ay, az), (bx, by, bz), (cx, cy, cz) = pts[i], pts[j], pts[k]
        ux, uy, uz = bx - ax, by - ay, bz - az
        vx, vy, vz = cx - ax, cy - ay, cz - az
        nx, ny, nz = uy * vz - uz * vy, uz * vx - ux * vz, ux * vy - uy * vx
        if nx or ny or nz:
            g = gcd(nx, ny, nz) * inward
            facets.add((nx // g, ny // g, nz // g, (nx * ax + ny * ay + nz * az) // g))
    return tuple(sorted(facets))


def _vertices(config: PointConfig, planes: Sequence[Plane]) -> Tuple[IntVec3, ...]:
    """Configuration points that are vertices of conv(config), in input order.

    A point of a 3-polytope in the relative interior of an edge lies on
    two facets, of a facet on one, and a vertex on at least three (whose
    inward normals have rank 3).  So a point is a vertex iff at least
    three of the hull's facets pass through it.
    """
    return tuple(
        p for p in config.points
        if sum(a * p[0] + b * p[1] + c * p[2] == o for a, b, c, o in planes) >= 3
    )


def _cone_triangulation(
    verts: Sequence[IntVec3], planes: Sequence[Plane]
) -> List[Tuple[IntVec3, IntVec3, IntVec3, IntVec3]]:
    """Tetrahedra (v0, p0, q, r) that triangulate the hull with vertices
    verts and facets planes.

    v0 is verts[0].  Every facet not through v0 is a convex polygon; it is
    fanned from its first vertex p0 into triangles (p0, q, r) and each is
    coned from v0.  A polygon with more than three vertices is first
    sorted by angle around p0: q precedes r when det3(normal, q - p0,
    r - p0) > 0.  That is a total order because p0 is a vertex of the
    polygon, so every other vertex lies within an angle below pi at p0
    and no two of them are collinear with it.
    """
    v0 = verts[0]
    tetrahedra = []
    for a, b, c, o in planes:
        if a * v0[0] + b * v0[1] + c * v0[2] == o:
            continue
        p0, *ring = [p for p in verts if a * p[0] + b * p[1] + c * p[2] == o]
        if len(ring) > 2:
            normal = (a, b, c)
            ring.sort(key=cmp_to_key(lambda q, r: det3(normal, sub(r, p0), sub(q, p0))))
        tetrahedra += [(v0, p0, ring[i], ring[i + 1]) for i in range(len(ring) - 1)]
    return tetrahedra


def _cosets(v0: IntVec3, a: IntVec3, b: IntVec3, c: IntVec3):
    """The coset set-up of the tetrahedron conv(v0, a, b, c): (D, E, L,
    pivots) with E the edge matrix (columns a - v0, b - v0, c - v0),
    D = |det E|, L = sign(det E) adj(E), and pivots the ranges of the
    diagonal of the row Hermite normal form of the edge vectors.

    That diagonal is read off the determinantal divisors of the edge
    vectors as rows, which unimodular row operations keep: g1, the gcd of
    their first coordinates, g2, the gcd of their three 2x2 minors in the
    first two coordinates, and D give the pivots g1, g2 / g1 and D / g2
    (Cohen, GTM 138, 2.4).  Their product runs over one representative r
    of each of the D cosets of Z^3 / E Z^3, and lambda = L r mod D places
    the coset's point v0 + E (lambda / D) in the half-open parallelepiped
    0 <= lambda_i < D.  The barycentric coordinates of that point are
    (D - sum(lambda), lambda) / D.  Raises RuntimeError on a degenerate
    tetrahedron.
    """
    edges = (sub(a, v0), sub(b, v0), sub(c, v0))
    e = tuple(zip(*edges))
    det = det3(*edges)
    if det == 0:
        raise RuntimeError(f"degenerate tetrahedron {(v0, a, b, c)}")
    s = 1 if det > 0 else -1
    adj = tuple(tuple(s * x for x in row) for row in _adjugate(e))
    (x0, y0, _), (x1, y1, _), (x2, y2, _) = edges
    g1 = gcd(x0, x1, x2)
    g2 = gcd(x0 * y1 - x1 * y0, x0 * y2 - x2 * y0, x1 * y2 - x2 * y1)
    return abs(det), e, adj, [range(g1), range(g2 // g1), range(abs(det) // g2)]


def _tetrahedron_points(v0: IntVec3, a: IntVec3, b: IntVec3, c: IntVec3) -> List[IntVec3]:
    """Lattice points of the tetrahedron conv(v0, a, b, c), unordered.

    The tetrahedron keeps the coset points of _cosets with sum(lambda)
    <= D, plus a, b and c (the corners lambda = D e_i).  Cost: D coset
    steps (Beck-Robins, Computing the Continuous Discretely, ch. 3).
    """
    d, e, adj, (range0, range1, range2) = _cosets(v0, a, b, c)
    (c00, c01, c02), (c10, c11, c12), (c20, c21, c22) = adj
    (e00, e01, e02), (e10, e11, e12), (e20, e21, e22) = e
    x0, y0, z0 = v0
    points = [a, b, c]
    for r0 in range0:
        for r1 in range1:
            m0, m1, m2 = c00 * r0 + c01 * r1, c10 * r0 + c11 * r1, c20 * r0 + c21 * r1
            for r2 in range2:
                l0 = (m0 + c02 * r2) % d
                l1 = (m1 + c12 * r2) % d
                l2 = (m2 + c22 * r2) % d
                if l0 + l1 + l2 <= d:
                    points.append((
                        x0 + (e00 * l0 + e01 * l1 + e02 * l2) // d,
                        y0 + (e10 * l0 + e11 * l1 + e12 * l2) // d,
                        z0 + (e20 * l0 + e21 * l1 + e22 * l2) // d,
                    ))
    return points


def _hull_points(
    config: PointConfig, planes: Sequence[Plane], verts: Sequence[IntVec3]
) -> Tuple[IntVec3, ...]:
    """Lattice points of conv(config), lexicographically sorted: the union
    of the points of the tetrahedra of _cone_triangulation.  Their
    normalized volumes are summed first, and a sum over
    ENUMERATION_BUDGET raises EnumerationBudgetExceeded before any
    tetrahedron is enumerated."""
    tetrahedra = _cone_triangulation(verts, planes)
    volume = sum(abs(det3(sub(a, v0), sub(b, v0), sub(c, v0))) for v0, a, b, c in tetrahedra)
    if volume > ENUMERATION_BUDGET:
        raise EnumerationBudgetExceeded(
            f"hull of normalized volume {volume} exceeds the enumeration budget {ENUMERATION_BUDGET}")
    points = {p for tetrahedron in tetrahedra for p in _tetrahedron_points(*tetrahedron)}
    if not points.issuperset(config.points):
        raise RuntimeError(f"triangulation of {config!r} misses configuration points")
    return tuple(sorted(points))


def lattice_points(config: PointConfig) -> Tuple[IntVec3, ...]:
    """All lattice points of conv(config), lexicographically sorted."""
    planes = hull_facets(config)
    return _hull_points(config, planes, _vertices(config, planes))


def size(config: PointConfig) -> int:
    """Number of lattice points of conv(config)."""
    return len(lattice_points(config))


def hull_summary(
    config: PointConfig,
) -> Tuple[Tuple[IntVec3, ...], Tuple[IntVec3, ...], Tuple[IntVec3, ...]]:
    """The lattice points of conv(config), those strictly inside it (both
    lexicographically sorted) and its vertices (_vertices), from one
    hull_facets call and one _vertices pass."""
    planes = hull_facets(config)
    verts = _vertices(config, planes)
    points = _hull_points(config, planes, verts)
    inner = tuple(
        p for p in points if all(a * p[0] + b * p[1] + c * p[2] > o for a, b, c, o in planes))
    return points, inner, verts


def parse_points(text: str) -> PointConfig:
    """Parse a points file: one 'x y z' triple per line.

    Blank lines and lines starting with '#' are ignored; coordinates are
    signed decimal integers in ASCII digits ([+-]?[0-9]+) with
    |coordinate| <= COORD_BOUND.  A data line is read by one match of
    _POINT_LINE; only a line it rejects is split, to skip a comment or
    name the fault.  A token with more significant digits than the bound
    is rejected before int() reads it, and each point is checked against
    the bound as its line is read, so the first line at fault is named.
    """
    pts: List[IntVec3] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        m = _POINT_LINE.fullmatch(raw)
        if m:
            p = (int(m[1]), int(m[2]), int(m[3]))
        else:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 3:
                raise ValueError(f"line {lineno}: expected 3 coordinates, got {len(parts)}")
            p = []
            for part in parts:
                m = _INTEGER.fullmatch(part)
                if not m:
                    raise ValueError(f"line {lineno}: not a decimal integer: {part!r}")
                sign, digits = m.groups()
                if len(digits) > _BOUND_DIGITS:
                    raise ValueError(f"line {lineno}: coordinate of {len(digits)} digits "
                                     f"exceeds bound {COORD_BOUND}")
                p.append(int(sign + digits))
        try:
            pts.append(check_point(p))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    return PointConfig._of_checked(pts)


def format_points(points: Sequence[Sequence[int]]) -> str:
    return "\n".join(" ".join(str(c) for c in p) for p in points) + "\n"
