"""Small lattice point configurations in Z^3 and their convex hulls.

A PointConfig is an ordered tuple of 4..8 distinct lattice points.  A
hull is one placing triangulation (_placing): it starts from the first
quadruple of maximal |volume| and cones each further point over the
boundary faces it strictly sees.  Every side it tests is an entry of
the configuration's volume table, PointConfig.volumes(): the quadruple
volumes followed by their negatives, indexed by exactlinalg._slots.  So
the hull shares the one det4 pass of the configuration, whose maximum,
PointConfig.top_volume(), is the maximal |volume| and decides full
dimensionality.  A base plus one new point, always listed last
(PointConfig._extended), takes no det4 pass of its own: its Extension
table holds the base's volumes and, for each quadruple with the new
point, an affine functional of that point, from the normal of a base
triangle.
The placing's boundary faces give the facets: a plane tuple (a, b, c, o)
per face, by a cross product and a gcd, and all predicates are
integer-exact.  The vertices are read off the facets through each
point, once per hull_summary.
Lattice points of the hull are enumerated per placing tetrahedron: a
tetrahedron of normalized volume D, its signed volume a table entry,
contributes the points of its half-open fundamental parallelepiped (one
per coset of the edge lattice, D in all) whose barycentric numerators
sum to at most D, plus its three far vertices.  So the cost is the
hull's normalized volume plus the points found, whatever the size of
the coordinates; the union is returned lexicographically sorted.
Whether the hull holds only the configuration's points is decided
without enumeration (holds_only_its_points): the placing, refined by a
stellar insertion of each label it skipped, is a fine triangulation
(_fine_cells), and the hull holds only its points exactly when every
cell is an empty tetrahedron, which White's congruence decides in the
frame of one facet (emptytetra).  So its cost follows the point count,
not the volume or the coordinates.
lattice_points and size are the enumeration alone, the independent
count that tests and the cap rule's cross-check compare against;
hull_summary (which adds the interior points and the vertices)
decides the cells' emptiness on every call and enumerates only a hull
whose cells are not all empty.  Only hull_summary
and hull_facets read facets.  The normalized volumes of the tetrahedra
are summed before any is enumerated, and a hull over ENUMERATION_BUDGET
raises EnumerationBudgetExceeded, an input error.
The budget is interim: it turns away large hulls with few points
besides the configuration's too, until an enumerator whose cost follows
the points found replaces this one.
Hull computations need affine rank 4 and raise NotFullDimensional
otherwise.
"""

from __future__ import annotations

import re
from math import gcd
from typing import List, Sequence, Tuple

from .emptytetra import _framed_empty, _ordered_key
from .exactlinalg import (
    COORD_BOUND,
    IntVec3,
    VerificationFailed,
    _adjugate,
    _quadruples,
    _slots,
    check_point,
    cross,
    dot,
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


#: The most normalized volume, summed over the placing tetrahedra, that
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
    hull, circuits, volume vectors, chirotope, width and normal
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

    @classmethod
    def _extended(cls, ext: "Extension", point: Sequence[int]) -> "PointConfig":
        """The configuration of ext's base points followed by point,
        checked by check_point.  Its volume table is ext's affine
        functionals evaluated at point, with no det4."""
        x, y, z = check_point(point)
        cfg = object.__new__(cls)
        cfg._set_points(ext.points + ((x, y, z),))
        vols = [a * x + b * y + c * z + o for a, b, c, o in ext.functionals]
        cfg._volumes = tuple(vols + [-v for v in vols])
        return cfg

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


class Extension:
    """The volume tables of the one-point extensions of a base
    configuration, the new point last: points, the base points, and per
    quadruple of _quadruples(n + 1), n base points, the affine functional
    (a, b, c, o) whose value a x + b y + c z + o at the new point
    (x, y, z) is that quadruple's volume.  PointConfig._extended
    evaluates it.

    A quadruple of base points keeps its volume, read off the base's own
    table (_slots), as the constant functional (0, 0, 0, volume); the
    others are (i, j, k, new) with i < j < k, and det4(p_i, p_j, p_k, p)
    = nrm . (p - p_i) for the normal nrm = (p_j - p_i) x (p_k - p_i) of
    the base triangle ijk.  So the table takes the base's one det4 pass
    and ten cross products.
    """

    __slots__ = ("points", "functionals")

    def __init__(self, base: PointConfig):
        pts = base.points
        n = len(pts)
        vols, slots = base.volumes(), _slots(n)
        functionals = []
        for quad in _quadruples(n + 1):
            if quad[3] < n:
                functionals.append((0, 0, 0, vols[slots[quad]]))
                continue
            a, b, c = (pts[k] for k in quad[:3])
            nrm = cross(sub(b, a), sub(c, a))
            functionals.append((*nrm, -dot(nrm, a)))
        self.points, self.functionals = pts, tuple(functionals)


#: A label quadruple: a tetrahedron (i, j, k, p), or a boundary face
#: (i, j, k, ref), the triangle ijk with a label ref of the hull strictly
#: off its plane.
Quad = Tuple[int, int, int, int]


def _placing(config: PointConfig) -> Tuple[List[Quad], List[Quad]]:
    """The placing triangulation of conv(config): its tetrahedra and its
    boundary faces, as label quadruples.

    It starts from the first quadruple of maximal |volume| (top_volume,
    which raises NotFullDimensional on a flat configuration) and places
    the other labels in order.  Label p strictly sees face (i, j, k, ref)
    when det4 of (i, j, k, p) and of (i, j, k, ref) have opposite signs;
    p is coned over every face it sees, those faces leave the boundary,
    and each horizon edge uv, an edge of exactly one seen face (u, v, w),
    closes it with the face (u, v, p) and ref w.  A label that sees no
    face lies in the hull so far and is skipped.  Every sign is an entry
    of the volume table, so the placing computes no determinant (De
    Loera, Rambau and Santos, Triangulations, Springer 2010, 4.3).  Faces
    keep their triangle's labels sorted, so a shared edge reads the same
    from both faces.
    """
    top = config.top_volume()
    vols = config.volumes()
    n = len(config.points)
    slots = _slots(n)
    first = _quadruples(n)[next(m for m, v in enumerate(vols) if abs(v) == top)]
    a, b, c, d = first
    tetrahedra = [first]
    faces = [(a, b, c, d), (a, b, d, c), (a, c, d, b), (b, c, d, a)]
    for p in range(n):
        if p in first:
            continue
        seen = [f for f in faces if vols[slots[f[:3] + (p,)]] * vols[slots[f]] < 0]
        horizon = {}
        for i, j, k, _ in seen:
            tetrahedra.append((i, j, k, p))
            for edge, w in (((i, j), k), ((i, k), j), ((j, k), i)):
                horizon[edge] = None if edge in horizon else w
        faces = [f for f in faces if f not in seen]
        faces += [(*sorted((u, v, p)), w) for (u, v), w in horizon.items() if w is not None]
    return tetrahedra, faces


def _planes(config: PointConfig, faces: Sequence[Quad]) -> Tuple[Plane, ...]:
    """The sorted facet planes of the boundary faces of a placing: per
    face (i, j, k, ref), the cross product of its edges from p_i, divided
    by its gcd and oriented towards p_ref by the sign of the table entry
    det4(i, j, k, ref).  The faces on one facet give one plane."""
    pts = config.points
    vols = config.volumes()
    slots = _slots(len(pts))
    planes = set()
    for face in faces:
        i, j, k, _ = face
        (ax, ay, az), (bx, by, bz), (cx, cy, cz) = pts[i], pts[j], pts[k]
        ux, uy, uz = bx - ax, by - ay, bz - az
        vx, vy, vz = cx - ax, cy - ay, cz - az
        nx, ny, nz = uy * vz - uz * vy, uz * vx - ux * vz, ux * vy - uy * vx
        g = gcd(nx, ny, nz) if vols[slots[face]] > 0 else -gcd(nx, ny, nz)
        planes.add((nx // g, ny // g, nz // g, (nx * ax + ny * ay + nz * az) // g))
    return tuple(sorted(planes))


def hull_facets(config: PointConfig) -> Tuple[Plane, ...]:
    """Facets of conv(config) as sorted planes (a, b, c, o): the primitive
    inward normal (a, b, c) and the offset o, so that a x + b y + c z >= o
    on the hull, with equality on at least three configuration points.
    They are the planes of the boundary faces of one placing (_planes),
    which raises NotFullDimensional when every volume is zero."""
    return _planes(config, _placing(config)[1])


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


def _cosets(volume: int, v0: IntVec3, a: IntVec3, b: IntVec3, c: IntVec3):
    """The coset set-up of the tetrahedron conv(v0, a, b, c) of signed
    volume det4(v0, a, b, c): (D, E, L, pivots) with E the edge
    matrix (columns a - v0, b - v0, c - v0), D = |volume| = |det E|,
    L = sign(volume) adj(E), and pivots the ranges of the diagonal of the
    row Hermite normal form of the edge vectors.

    That diagonal is read off the determinantal divisors of the edge
    vectors as rows, which unimodular row operations keep: g1, the gcd of
    their first coordinates, g2, the gcd of their three 2x2 minors in the
    first two coordinates, and D give the pivots g1, g2 / g1 and D / g2
    (Cohen, GTM 138, 2.4).  Their product runs over one representative r
    of each of the D cosets of Z^3 / E Z^3, and lambda = L r mod D places
    the coset's point v0 + E (lambda / D) in the half-open parallelepiped
    0 <= lambda_i < D.  The barycentric coordinates of that point are
    (D - sum(lambda), lambda) / D.  Raises VerificationFailed on a
    degenerate tetrahedron.
    """
    if volume == 0:
        raise VerificationFailed(f"degenerate tetrahedron {(v0, a, b, c)}")
    edges = (sub(a, v0), sub(b, v0), sub(c, v0))
    e = tuple(zip(*edges))
    s = 1 if volume > 0 else -1
    adj = tuple(tuple(s * x for x in row) for row in _adjugate(e))
    (x0, y0, _), (x1, y1, _), (x2, y2, _) = edges
    g1 = gcd(x0, x1, x2)
    g2 = gcd(x0 * y1 - x1 * y0, x0 * y2 - x2 * y0, x1 * y2 - x2 * y1)
    return abs(volume), e, adj, [range(g1), range(g2 // g1), range(abs(volume) // g2)]


def _tetrahedron_points(volume: int, v0: IntVec3, a: IntVec3, b: IntVec3, c: IntVec3) -> List[IntVec3]:
    """Lattice points of the tetrahedron conv(v0, a, b, c) of signed
    volume det4(v0, a, b, c), unordered.

    The tetrahedron keeps the coset points of _cosets with sum(lambda)
    <= D, plus a, b and c (the corners lambda = D e_i).  Cost: D coset
    steps (Beck-Robins, Computing the Continuous Discretely, ch. 3).
    """
    d, e, adj, (range0, range1, range2) = _cosets(volume, v0, a, b, c)
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


def _hull_points(config: PointConfig, tetrahedra: Sequence[Quad]) -> Tuple[IntVec3, ...]:
    """Lattice points of conv(config), lexicographically sorted: the union
    of the points of the tetrahedra of its placing, whose signed volumes
    are table entries.  Their normalized volumes are summed first, and a
    sum over ENUMERATION_BUDGET raises EnumerationBudgetExceeded before
    any tetrahedron is enumerated."""
    pts = config.points
    vols = config.volumes()
    slots = _slots(len(pts))
    signed = [(vols[slots[t]], *(pts[label] for label in t)) for t in tetrahedra]
    volume = sum(abs(t[0]) for t in signed)
    if volume > ENUMERATION_BUDGET:
        raise EnumerationBudgetExceeded(
            f"hull of normalized volume {volume} exceeds the enumeration budget {ENUMERATION_BUDGET}")
    points = {p for t in signed for p in _tetrahedron_points(*t)}
    if not points.issuperset(config.points):
        raise VerificationFailed(f"triangulation of {config!r} misses configuration points")
    return tuple(sorted(points))


def _fine_cells(config: PointConfig, tetrahedra: Sequence[Quad]) -> List[Quad]:
    """A triangulation of conv(config) with every label as a vertex: the
    placing's tetrahedra, into which each label the placing skipped is
    inserted in turn.  A skipped label p lies in the closed hull; a cell
    holds it when each of its four barycentric numerators, the volume of
    the cell with p in place of one vertex, has the cell's sign or is
    zero.  p lies in the relative interior of the face spanned by the
    vertices of nonzero numerator, so each cell that holds it is replaced
    by the cells with p in place of one of those vertices (a stellar
    subdivision).  Every sign is a volume table entry (De Loera, Rambau
    and Santos, Triangulations, Springer 2010, 4.3)."""
    vols, slots = config.volumes(), _slots(len(config.points))
    cells = list(tetrahedra)
    for p in sorted(set(range(len(config.points))).difference(*tetrahedra)):
        refined = []
        for cell in cells:
            moved = [cell[:i] + (p,) + cell[i + 1:] for i in range(4)]
            holds = all(vols[slots[m]] * vols[slots[cell]] >= 0 for m in moved)
            refined += [m for m in moved if vols[slots[m]]] if holds else [cell]
        cells = refined
    return cells


def _cells_empty(config: PointConfig, tetrahedra: Sequence[Quad]) -> bool:
    """Whether every cell of _fine_cells over the placing tetrahedra is
    an empty tetrahedron: one of |volume| 1 is, and any other is decided
    by White's congruence on its key (emptytetra._ordered_key), which a
    cell whose first facet is not a unimodular triangle, and so holds a
    lattice point besides its vertices, does not have."""
    pts, vols, slots = config.points, config.volumes(), _slots(len(config.points))
    for cell in _fine_cells(config, tetrahedra):
        if abs(vols[slots[cell]]) > 1:
            key = _ordered_key(*(pts[label] for label in cell))
            if key is None or not _framed_empty(*key):
                return False
    return True


def holds_only_its_points(config: PointConfig) -> bool:
    """Whether conv(config) holds no lattice point besides config's own,
    with no lattice point enumerated: a lattice point of the hull lies in
    a cell of a fine triangulation (_fine_cells), and a point of config
    lies in a cell only as its vertex, so the hull holds only config's
    points exactly when every cell is empty (White, "Lattice tetrahedra",
    Canad. J. Math. 16, 1964).  The cost follows the point count, not the
    volume or the coordinates.  Raises NotFullDimensional on a flat
    configuration."""
    return _cells_empty(config, _placing(config)[0])


def lattice_points(config: PointConfig) -> Tuple[IntVec3, ...]:
    """All lattice points of conv(config), lexicographically sorted."""
    return _hull_points(config, _placing(config)[0])


def size(config: PointConfig) -> int:
    """Number of lattice points of conv(config)."""
    return len(lattice_points(config))


def hull_summary(config: PointConfig) -> Tuple[Tuple[IntVec3, ...], Tuple[IntVec3, ...],
                                              Tuple[IntVec3, ...]]:
    """The lattice points of conv(config), those strictly inside it (both
    lexicographically sorted) and its vertices (_vertices), from one
    placing, its facet planes and one _vertices pass.  A hull that holds
    only config's points (_cells_empty on the placing) has config's
    points as its points, and none is enumerated; any other is
    enumerated, within ENUMERATION_BUDGET."""
    tetrahedra, faces = _placing(config)
    planes = _planes(config, faces)
    empty = _cells_empty(config, tetrahedra)
    points = tuple(sorted(config.points)) if empty else _hull_points(config, tetrahedra)
    inner = tuple(
        p for p in points if all(a * p[0] + b * p[1] + c * p[2] > o for a, b, c, o in planes))
    return points, inner, _vertices(config, planes)


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
