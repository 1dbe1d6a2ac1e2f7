"""Regeneration of the size-6, width>1 classification from first principles.

The classification splits on the coplanarity pattern of the six points:

    A: five coplanar points         B/C: a (3,1)-circuit (opposite/same side)
    D/E: a (2,2)-circuit            F:   a (2,1)-circuit only
    G/H: no coplanarity             (one/two interior points)

Each ``run_case_*`` function enumerates the candidates of one branch by
bounded scans or embedding searches, rejects candidates with recorded
reasons, cross-checks the triangulation-emptiness size arguments against
direct lattice-point counts, and identifies the survivors against the
bundled tables (_Funnel.report): _class_rows, the row set of the 76 rows
(equivalence.RowSet), names the table row of each distinct survivor by
its |volume| profile, its least barycentric table and an integer
unimodular map, checked point by point, that carries its points onto the
row's; it takes no normal form.  A class is that row: its width,
oriented matroid label and dps flag are invariant under the map, so they
are read from the row, and tests/table_checks.py checks once per data
file that each row's columns hold for its points.
``classify_all`` runs every branch and checks that the classes come out
in table order.  All arithmetic is exact.

The runners share five steps: _Funnel, the one record of a case's
candidates examined, rejections by reason and survivors, whose report
identifies them; _bases, the per-process table of the eight
signature-(4,1) bases of cases C, E, F, G and H: their points, their
symmetries and their volume tables (polytope.Extension), which give the
15 volumes of a base plus one point as the base's 5 and 10 affine
functionals of the new point, with no det4 (PointConfig._extended);
_embeddings41, the one search over the 8 x 4! embeddings of the bases
(case C's interior subcase and case E); _six_by_caps, the one comparison
of a size argument's outcome with the hull count (B.i, B.ii, B.iii, the
three C subcases, D, E, F, G and H), where each site evaluates its
argument once per candidate; and _caps, the cap rule for a one-point
extension, its new point last, of a polytope whose boundary a facet
table lists as empty triangles.  Every candidate of cases B to H is such
an extension, in one layout: the polytope's points in its own order,
then the new point.  It extends the (3,1) pyramid over _B_BASE with its
apex as label 5 (_PYRAMID31_FACETS: B and C's edge and "both vertices"
subcases), D's square pyramid (_D_FACETS) or a (4,1) base in its own
order (_BASE41_FACETS: C's interior subcase, E, F, G and H), so the caps
are its size argument.  _caps reads each facet triangle in its
unimodular frame (emptytetra._facet_frame), built once per process by
_cap_frame, which is memoized on the facet's points, so a candidate's
new point maps to (x, y, h) by one 3 x 3 product per facet: the sign of
h says whether it sees the facet, and White's congruence on (x, y, h)
whether its cap is empty, with no det4 and no lattice point enumerated.
In B to H, _six_by_caps rejects a candidate with a non-empty cap without
a hull and counts the hull of each other candidate once, to cross-check
the argument, raising "<site> triangulation check failed<at>" when they
disagree; G and H first reject a gluing whose caps hold a lattice point
strictly inside, an extra interior point, by the level test on the same
caps.  Case A, whose five coplanar points have no caps, checks its
midpoint rule with polytope.holds_only_its_points, the emptiness of a
fine triangulation's cells, and counts no hull.  No runner reads a
hull's interior points: a gluing names its case G or H by whether its
two interior points coincide.

A symmetry of a base fixes its interior point and maps a candidate built
on it onto an equivalent candidate, label by label, with the same
verdict.  So cases C, E and F visit one candidate per orbit of the
base's symmetries (_orbit_walk, isomorph rejection after Read 1978 and
McKay 1998): the first in enumeration order, which keeps the first
configuration of each class where it was, counted, as examined and in
its rejections, with its orbit's size.  _embeddings41 also walks the
swap of the second and third vertex of an order, which builds the
identical configuration, and visits 62 of the 192 vertex orders;
run_case_f visits 108 of the 160 ordered point pairs.  A symmetry can
fix a pair, or meet the swap on an order, so each counts with its own
orbit's size.  _embeddings41 tests a visited embedding's oriented matroid
by its chirotope in the paper's roles p1..p6 against four chirotopes of
the cell's table row (_cell_chirotopes), with no orbit of relabelings.

The G/H gluing examines 24,576 vertex matchings of subtetrahedra.  A
matching glues when an integral unimodular map realizes it, which is
exactly when the two ordered subtetrahedra have the same key
(emptytetra._ordered_key), and 3,732 of them do.  An affine map keeps
barycentric coordinates, so each hit's glued point is placed without
solving the map, from entries of each base's volume vector v: a
subtetrahedron's |volume| is |v_ex|, the entry of its left-out vertex,
in any vertex order.  A symmetry of the source base, a symmetry of the
target base and the swap of source and target (the inverse map) each
carry a hit onto one that glues an equivalent configuration, with the
same verdict.  So the walk visits the first hit
of each orbit of the group they generate, 449 hits, and counts each with
its orbit's size.  It generates them, orderly, with no hit's orbit under
the whole group: the first hit of an orbit leaves out the least vertex
of its orbit in either base, so only those subtetrahedra are keyed and
matched, each such block of hits is walked under the symmetries that fix
both left-out vertices (_orbit_walk of _block_orbit), and the swap joins
blocks or doubles weights.  The walk and its glued points depend only on
the eight bases, so _gluing_tables builds them once per process.  Each
run_case_gh call makes one verdict (coplanarity, a cap's interior point,
and the cap rule's size with its hull cross-check) per visited hit of
six points, 426 of them, and an accepted one contributes one
configuration to identify.
"""

import csv
import io
import itertools
import json
from collections import Counter
from dataclasses import dataclass, fields
from functools import cached_property, lru_cache, partial
from math import gcd
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple

from .exactlinalg import (
    AffineMap,
    IntVec3,
    VerificationFailed,
    _relabelings,
    _slots,
    check_point,
    dot,
    sub,
)
from .polytope import Extension, PointConfig, holds_only_its_points, size
from .invariants import (
    C21,
    C31,
    circuits,
    coplanarity_class,
    coplanarity_from_circuits,
    functional_range,
    volume_vector5,
    volume_vector6,
    width,
)
from .equivalence import RowSet, symmetries
from .emptytetra import _facet_frame, _framed_empty, _framed_has_interior_point, _ordered_key
from .size5 import admissible_apex_31, catalog41
from .omcatalog import chirotope
from .tablesdata import ClassRow, load_tables

__all__ = [
    "BadParameters",
    "ClassificationError",
    "PolytopeClass",
    "CaseReport",
    "run_case_a",
    "run_case_b",
    "run_case_c",
    "run_case_d",
    "run_case_e",
    "run_case_f",
    "run_case_gh",
    "run_case",
    "run_reports",
    "classify_all",
    "identify",
    "width1_family",
    "export_json",
    "export_csv",
]

#: Bound for the integer scans that replace figure-derived candidate lists.
SCAN_BOUND = 20


class BadParameters(ValueError):
    """Family parameters violate the family's constraints."""


class ClassificationError(VerificationFailed):
    """An internal cross-check of the case analysis failed."""


@dataclass(frozen=True)
class PolytopeClass:
    """One equivalence class, annotated with the bundled table data.

    ``representative`` holds the table's points (volume_vector is computed
    from exactly that order); ``generated`` is the witness found by the
    case runner, equivalent to the representative but usually in different
    coordinates.
    """

    id: str
    om_label: str
    volume_vector: Tuple[int, ...]
    width: int
    functional: IntVec3
    representative: PointConfig
    dps: bool
    generated: PointConfig


@dataclass(frozen=True)
class CaseReport:
    case: str
    candidates_examined: int
    classes_found: Tuple[PolytopeClass, ...]
    rejected: Dict[str, int]
    notes: Tuple[str, ...] = ()


# ---------------------------------------------------------------------------
# identification against the bundled tables


@lru_cache(maxsize=1)
def _class_rows() -> RowSet:
    """The 76 table rows as a row set (equivalence.RowSet), under their
    ids: the one naming of identify, _Funnel.report and cli.cmd_analyze.
    Its gate has 74 |volume| profiles (G.5 and G.12 share one, as do G.6
    and G.9), which only six points can pass (a profile has one entry per
    quadruple) and a flat configuration, of profile all zeros, never
    does.  The first query that passes it builds each row's least table
    and checks that no two rows of one profile coincide; a row whose
    table matched but whose maps failed, or two rows that coincide, raise
    ClassificationError."""
    return RowSet([(row.id, row.config()) for row in load_tables().class_rows], ClassificationError)


class _Funnel:
    """The funnel of one case: how many candidates it examined, its
    rejections counted by reason, and the configurations it accepted, in
    order.  Every runner counts, rejects and accepts here and reports
    through report."""

    def __init__(self, case: str):
        self.case = case
        self.examined = 0
        self.rejected: Counter = Counter()
        self.accepted: List[PointConfig] = []

    def reject(self, reason: str, count: int = 1) -> None:
        self.rejected[reason] += count

    def report(self, notes=()) -> CaseReport:
        """Report of the case from its accepted configurations, in order.

        The representatives are the first-seen configurations up to
        equivalence: _class_rows names the row of each distinct point set
        through a witness map onto the row's points, so equal tables
        alone identify nothing, and a configuration whose row came
        earlier is a repeat.  Each representative must name a row of this
        case.  The class is then the row: width, oriented matroid up to
        sign and dps are invariant under that map, so they are the row's
        columns (tests/table_checks.py checks them on every row's points,
        and a test on the generated configurations).  Only the volume
        vector is computed, from the row set's configuration of the row,
        whose volumes are not computed again.  The rows are pairwise
        inequivalent: _class_rows checks that no witness joins two rows of
        one profile.  The classes found must be exactly the case's rows.
        """
        case = self.case
        point_sets, by_row = set(), {}
        for cfg in self.accepted:
            points = frozenset(cfg.points)
            if points in point_sets:
                continue
            point_sets.add(points)
            named = _class_rows().name(cfg)
            if named is None:
                raise ClassificationError("generated configuration matches no table row")
            rid, rep, _ = named
            row = load_tables().rows_by_id[rid]
            if row.id in by_row:
                continue
            if row.case != case:
                raise ClassificationError(f"case {case} produced table row {row.id}")
            by_row[row.id] = PolytopeClass(row.id, row.om_label, volume_vector6(rep), row.width,
                                           row.functional, rep, row.dps, generated=cfg)
        classes = sorted(by_row.values(), key=lambda c: int(c.id.split(".")[1]))
        found = [c.id for c in classes]
        expected = [r.id for r in load_tables().class_rows if r.case == case]
        if found != expected:
            raise ClassificationError(f"case {case}: found {found}, expected {expected}")
        return CaseReport(case, self.examined, tuple(classes), dict(self.rejected), tuple(notes))


#: A cap of _caps: its label quadruple and the new point's coordinates
#: (x, y, h) in the frame of its facet triangle.
Cap = Tuple[Tuple[int, int, int, int], IntVec3]


def _caps(points: Sequence[IntVec3], facets) -> Tuple[Cap, ...]:
    """The cap tetrahedra of a one-point extension, each as (labels,
    (x, y, h)).

    P is the polytope on the points before the last, p (1-based labels, as
    in the tables, so p's label is len(points)), and its lattice points
    are all among them.  facets covers the boundary of P that p can see,
    as label quadruples (a, b, c, ref): an empty triangle abc on a facet
    of P, and a label ref of P off that facet's plane, so strictly on P's
    side of it.  Each facet is read in its unimodular frame with the ref's
    height (_cap_frame, memoized on the four points); ClassificationError
    when abc is not a unimodular triangle.  p maps to (x, y, h) in that
    frame, and p strictly sees abc when h and the ref's height have
    opposite signs.  Then conv(P + p) is P plus the caps conv(abc + p)
    over the triangles p strictly sees, each unimodularly equivalent to
    conv(0, e1, e2, (x, y, h)).  So the hull has no further lattice point
    exactly when each cap is empty (_framed_empty): the caps are the size
    argument of _six_by_caps.
    """
    new = len(points)
    px, py, pz = points[-1]
    caps = []
    for facet in facets:
        i, j, k, r = facet
        frame = _cap_frame(points[i - 1], points[j - 1], points[k - 1], points[r - 1])
        if frame is None:
            raise ClassificationError(f"facet triangle {facet[:3]} is not unimodular")
        (ax, ay, az), (x0, x1, x2), (y0, y1, y2), (h0, h1, h2), side = frame
        dx, dy, dz = px - ax, py - ay, pz - az
        h = h0 * dx + h1 * dy + h2 * dz
        if h * side < 0:
            caps.append(((i, j, k, new),
                         (x0 * dx + x1 * dy + x2 * dz, y0 * dx + y1 * dy + y2 * dz, h)))
    return tuple(caps)


@lru_cache(maxsize=None)
def _cap_frame(a, b, c, ref):
    """a, the rows of the frame of the facet triangle abc
    (emptytetra._facet_frame), and the height of ref in it; None unless
    abc is a unimodular triangle.  A pure function of the four points,
    so each facet's frame is built once per process."""
    frame = _facet_frame(a, b, c)
    return None if frame is None else (a, *frame, dot(frame[2], sub(ref, a)))


def _six_by_caps(cfg: PointConfig, caps: Sequence[Cap], site: str, at: str = "") -> bool:
    """Whether the hull of cfg, a one-point extension with the given _caps,
    has exactly six lattice points, decided by the cap rule: False, with
    no hull, when some cap is not empty (_framed_empty); else the hull is
    counted once and must have six points, or ClassificationError
    "<site> triangulation check failed<at>".  Cases B to H decide size
    here."""
    if not all(_framed_empty(*xyh) for _, xyh in caps):
        return False
    if size(cfg) != 6:
        raise ClassificationError(f"{site} triangulation check failed{at}")
    return True


#: The facets of a catalog41() base, as _caps takes them: empty triangles
#: on its vertices p2..p5, each with the interior point p1 as ref.  The
#: cap facets of case C's interior subcase and of cases E, F, G and H,
#: whose configurations are a base in its own order plus one point.
_BASE41_FACETS = tuple((*tri, 1) for tri in itertools.combinations(range(2, 6), 3))


def _scan_box():
    rng = range(-SCAN_BOUND, SCAN_BOUND + 1)
    return itertools.product(rng, rng)


def _count_scan(funnel: _Funnel, inside: int) -> None:
    """Count one _scan_box scan of cases B and D in funnel: every box
    point as examined, and the points outside the scan's normalized
    region, all but inside of them, as one rejection."""
    box = (2 * SCAN_BOUND + 1) ** 2
    funnel.examined += box
    funnel.reject("intersection point outside the normalized region", box - inside)


@lru_cache(maxsize=None)
def _cell_chirotopes(cell: str) -> frozenset:
    """The chirotopes, in the roles p1..p6, of the embeddings of
    _embeddings41 with the oriented matroid cell: those of the first table
    row labelled cell, whose points are stored in those roles, as stored
    and with p2 and p3 swapped, each with both signs; built on first use.
    That every row labelled cell has the cell's one catalog record is a
    check of the tables (validate_tables), not of each run."""
    row = next((r for r in load_tables().class_rows if r.om_label == cell), None)
    if row is None:
        raise ClassificationError(f"no table row realizes cell {cell}")
    vols = row.config().volumes()  # the volumes, then their negatives
    return frozenset(chirotope(get(table)) for get in _relabelings([tuple(range(6)), (0, 2, 1, 3, 4, 5)])
                     for table in (vols, vols[15:] + vols[:15]))


def _base_automorphisms(base: PointConfig) -> List[Tuple[Tuple[int, ...], AffineMap]]:
    """The symmetries of a signature-(4,1) base (equivalence.symmetries),
    as (point permutation, map).  Raises ClassificationError unless there
    is one (the identity) and each fixes the interior point base[0]."""
    autos = symmetries(base)
    if not autos or any(perm[0] != 0 for perm, _ in autos):
        raise ClassificationError("no symmetry of a base, or one that moves its interior point")
    return autos


def _orbit_walk(items, orbit) -> tuple:
    """(item, orbit size) for the first item of each orbit of items under
    a group, in the order of items: orbit(item) is the set of item's
    images, and items holds every image.  A walk that visits these items,
    each counted with its orbit's size, counts every item once (isomorph
    rejection: Read, Ann. Discrete Math. 2, 1978; McKay, J. Algorithms 26,
    1998)."""
    seen, walk = set(), []
    for item in items:
        if item not in seen:
            images = orbit(item)
            seen |= images
            walk.append((item, len(images)))
    return tuple(walk)


class _Base:
    """A catalog41() base as _bases holds it.

    config is its representative, interior point first, and autos its
    symmetries (_base_automorphisms).  extension is the volume table of
    config plus a new last point (polytope.Extension), the configurations
    of cases C (interior subcase), E, F, G and H.  The walks are built on
    first use, each by the cases that read it.  embeddings lists, per
    vertex order (a, b, c, d) that _orbit_walk visits, its orbit's size
    under the base's symmetries and the swap of b and c (_embeddings41:
    cases C and E), and roles, per such order, the getter of its
    embedding's volume table in the roles p1..p6, the labels a + 1,
    b + 1, c + 1, 6, 1, d + 1 (exactlinalg._relabelings).  pairs lists,
    per ordered pair (i, j) of its points that _orbit_walk visits, its
    orbit's size under the symmetries (case F).  The G/H gluing reads
    config and autos (_gluing_tables)."""

    def __init__(self, config: PointConfig):
        self.config = config
        self.autos = tuple(_base_automorphisms(config))
        self.extension = Extension(config)

    @cached_property
    def embeddings(self) -> Tuple[Tuple[Tuple[int, ...], int], ...]:
        return _orbit_walk(itertools.permutations(range(1, 5)),
                           lambda o: self._orbit(o) | self._orbit((o[0], o[2], o[1], o[3])))

    @cached_property
    def roles(self) -> list:
        return _relabelings([(a, b, c, 5, 0, d) for (a, b, c, d), _ in self.embeddings])

    @cached_property
    def pairs(self) -> Tuple[Tuple[Tuple[int, int], int], ...]:
        return _orbit_walk(itertools.permutations(range(5), 2), self._orbit)

    def _orbit(self, labels) -> set:
        """The images of a tuple of base point indices under the base's
        symmetries, as _orbit_walk reads them."""
        return {tuple(map(perm.__getitem__, labels)) for perm, _ in self.autos}


@lru_cache(maxsize=1)
def _bases() -> Tuple[_Base, ...]:
    """The eight catalog41() bases (_Base) of cases C, E, F, G and H,
    built once per process, as they depend only on the catalog.  Their
    symmetries take no normal form, and their volume tables no det4 but
    each base's own pass."""
    return tuple(_Base(cls5.representative) for cls5 in catalog41())


def _embeddings41(cell: str, coeffs, funnel: _Funnel):
    """Embeddings of the catalog41() bases with the oriented matroid cell,
    one per orbit of the base's symmetries and the swap of p2 and p3.

    Each base's interior point plays p5 and its vertices p1, p2, p3, p6
    in every order (a, b, c, d), and p4 = c1 p1 + c2 p2 + c3 p3 for
    coeffs (c1, c2, c3), an affine combination (c1 + c2 + c3 = 1), with
    c2 = c3 in both searches.  The configuration is the base in its own
    order plus p4 (PointConfig._extended), so its volumes are read off
    the base's, and p1, p2, p3, p5, p6 are its labels a + 1, b + 1,
    c + 1, 1, d + 1.  A symmetry of the base fixes its interior point
    and permutes its vertices, so it maps an embedding, p4 included,
    onto the embedding of the permuted order: the two are equivalent,
    and every verdict of the search and of its callers is the same on
    both.  The orders (a, b, c, d) and (a, c, b, d) give p4 alike, so they
    build the identical configuration.  The walk visits the first order
    of each orbit under both (_Base.embeddings), 62 of the 8 x 4! = 192,
    and counts each in funnel, as examined and in its rejections, with
    its orbit's size, which the callers' rejections take too.  Yields
    (configuration, order, weight) for the embeddings whose oriented
    matroid is the grid cell's, in enumeration order; funnel rejects the
    others as a "degenerate embedding" (p4 is a base point) or by their
    matroid.

    The cell test reads the embedding's chirotope in the roles p1..p6
    (_Base.roles) and asks for one of the four of _cell_chirotopes.  The
    chirotope fixes the oriented matroid up to a global sign, so the
    complete test is the orbit of the cell row's chirotope under all 720
    relabelings, with both signs.  The construction gives each point its
    role, p5 inside the base and p4 on the plane of p1, p2 and p3, up to
    the swap of p2 and p3, which get one coefficient; the test keeps the
    relabelings that keep those roles, the identity and that swap.  It
    agrees with the whole orbit (tests/omcatalog_oracles.py) and with the
    catalog record of each embedding (match_om) on every one of the
    2 x 192 vertex orders of the two searches, which the tests check.  It
    reads the embedding's volumes, which its caller reads again, with no
    circuits, no canonical circuit form and no orbit.
    """
    cells = _cell_chirotopes(cell)
    c1, c2, c3 = coeffs
    for base in _bases():
        pts = base.config.points
        for (order, w), role in zip(base.embeddings, base.roles):
            funnel.examined += w
            p1, p2, p3 = (pts[k] for k in order[:3])
            p4 = tuple(c1 * p1[t] + c2 * p2[t] + c3 * p3[t] for t in range(3))
            if p4 in pts:
                funnel.reject("degenerate embedding", w)
                continue
            cfg = PointConfig._extended(base.extension, p4)
            if chirotope(role(cfg.volumes())) not in cells:
                funnel.reject(f"oriented matroid is not {cell}", w)
                continue
            yield cfg, order, w


# ---------------------------------------------------------------------------
# case A: five coplanar points


def run_case_a() -> CaseReport:
    """Five coplanar points plus one apex.

    Only three of the six 5-point polygons can support width > 1; for
    those the apex is forced (mod the plane) to (1,b,2) with b in {0,1}.
    A candidate dies exactly when some edge to the apex has an integer
    midpoint, i.e. a seventh lattice point.  The planar base has no caps,
    so polytope.holds_only_its_points checks the midpoint rule on each
    candidate, with no lattice point enumerated.
    """
    shapes = {1: (0, 0), 2: (1, 1), 5: (0, -1)}  # polygon id -> (c, d)
    funnel = _Funnel("A")
    for _, (c, d) in sorted(shapes.items()):
        base = [(0, 0, 0), (1, c, 0), (0, 1, 0), (-1, d, 0), (0, 2, 0)]
        for p6 in ((1, 0, 2), (1, 1, 2)):
            funnel.examined += 1
            bad = next(
                (
                    i
                    for i, p in enumerate(base)
                    if all((p[t] + p6[t]) % 2 == 0 for t in range(3))
                ),
                None,
            )
            cfg = PointConfig(base + [p6])
            if bad is not None:
                if holds_only_its_points(cfg):
                    raise ClassificationError("integer midpoint but no extra point")
                funnel.reject(f"midpoint of p{bad + 1}p6 is integer")
                continue
            if not holds_only_its_points(cfg):
                raise ClassificationError(f"case A candidate {p6} has extra points")
            funnel.accepted.append(cfg)
    return funnel.report()


# ---------------------------------------------------------------------------
# case B: (3,1)-circuit, remaining points on opposite sides

_B_BASE = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (-1, -1, 0)]

#: printed id assignments, used as extra cross-checks
_B_IDS = {
    ("i", 1, 4): "B.1", ("i", 0, 3): "B.2", ("i", 1, 2): "B.3",
    ("i", 1, 3): "B.4", ("i", 1, 5): "B.5", ("i", 1, 6): "B.6",
    ("i", 0, 2): "B.7", ("i", 0, 1): "B.8", ("i", 1, 1): "B.9",
    ("i", 0, 0): "B.10",
    ("ii", 1, 8): "B.11", ("ii", 1, 2): "B.12", ("ii", 1, 5): "B.13",
    ("iii", -1, 1): "B.14", ("iii", -1, -2): "B.15",
}

#: The boundary of the (3,1) pyramid conv(_B_BASE + apex), the apex
#: labelled 5, as _caps takes it: the base triangle p2p3p4 split around
#: its interior point p1, with the apex as ref, and the three side
#: triangles, with p1 as ref.  Cases B and C's edge subcase extend the
#: pyramid with apex p5 by p6; C's "both vertices" subcase lists its
#: points as p1..p4, p6, p5, so that its apex p6 is label 5 and p5 the
#: new point.
_PYRAMID31_FACETS = ((1, 2, 3, 5), (1, 3, 4, 5), (1, 4, 2, 5), (2, 3, 5, 1), (3, 4, 5, 1), (2, 4, 5, 1))


def _in_strip(x, y, d) -> bool:
    """0 <= x < 1 and 0 <= y < 3x + 2 for the point (x, y) / d."""
    return 0 <= x < d and 0 <= y < 3 * x + 2 * d


#: Per subcase: the tag of its _B_IDS keys, p5, the height h of
#: p6 = (a, b, h), the test that the edge p5p6 crosses the circuit plane
#: inside the normalized region, the filters run before the cap rule as
#: (test, rejection reason), the rejection reason for a non-empty cap
#: (None where the region leaves none, so that one is an error), and the
#: length of the printed candidate list.
_B_SUBCASES = (
    # (1,1): crossing (a, b) / 2, in the cone 0 <= x <= y
    ("i", (0, 0, 1), -1, lambda a, b: a <= b and _in_strip(a, b, 2), (), None, 10),
    # (1,3): crossing (a, b) / 4, in the cone 0 <= x <= y
    ("ii", (0, 0, 1), -3, lambda a, b: a <= b and _in_strip(a, b, 4),
     ((admissible_apex_31, "apex residues are not +-1 mod 3"),
      (lambda a, b: gcd(gcd(a, b), 4) == 1, "edge p5p6 is not primitive")),
     "a triangulation tetrahedron is not empty", 44),
    # (3,3): crossing (a + 1, b + 2) / 2, either way round
    ("iii", (1, 2, 3), -3,
     lambda a, b: _in_strip(a + 1, b + 2, 2) or _in_strip(b + 2, a + 1, 2),
     ((admissible_apex_31, "apex residues are not +-1 mod 3"),
      (lambda a, b: gcd(gcd(a - 1, b - 2), 6) % 3 != 0,
       "edge p5p6 has lattice points at heights +-1")),
     "a triangulation tetrahedron is not empty", 18),
)


def run_case_b() -> CaseReport:
    """(3,1)-circuit with p5, p6 on opposite sides of its plane.

    Both off-plane points sit at lattice distance 1 or 3, giving three
    subcases (1,1), (1,3) and (3,3) (_B_SUBCASES).  Each scans the apex
    over a box and keeps candidates whose edge p5p6 crosses the circuit
    plane inside the printed region; distance-3 apexes must also satisfy
    the residue condition a = -b = +-1 (mod 3) and a primitivity
    constraint.  p6 extends the pyramid conv(_B_BASE + p5), and the caps
    over the _PYRAMID31_FACETS it sees decide the hull (_six_by_caps):
    beyond the base split, they are the printed triangulation, which
    tests/test_classify6.py keeps as their oracle.
    """
    funnel = _Funnel("B")
    notes = []
    ids = {}
    for tag, p5, h6, region, filters, extra_points, printed in _B_SUBCASES:
        raw = 0
        for a, b in _scan_box():
            if not region(a, b):
                continue
            raw += 1
            reason = next((reason for test, reason in filters if not test(a, b)), None)
            if reason is not None:
                funnel.reject(reason)
                continue
            cfg = PointConfig(_B_BASE + [p5, (a, b, h6)])
            caps = _caps(cfg.points, _PYRAMID31_FACETS)
            if not _six_by_caps(cfg, caps, f"B.{tag}", f" at {(a, b)}"):
                if extra_points is None:
                    raise ClassificationError(f"B.{tag} candidate {(a, b)} has extra points")
                funnel.reject(extra_points)
                continue
            funnel.accepted.append(cfg)
            ids[cfg] = _B_IDS.get((tag, a, b))
        _count_scan(funnel, raw)
        notes.append(f"subcase ({p5[2]},{-h6}): {raw} raw candidates (printed list has {printed})")

    report = funnel.report(notes)
    for cls in report.classes_found:  # printed id table must agree
        if ids.get(cls.generated) != cls.id:
            raise ClassificationError(f"printed id table disagrees for {cls.id}")
    return report


# ---------------------------------------------------------------------------
# case C: (3,1)-circuit, remaining points on the same side


def run_case_c() -> CaseReport:
    """(3,1)-circuit with p5, p6 on the same side (p5 no higher than p6).

    Three subcases: p5 on an edge p_ip6 (four explicit candidates), p5
    interior to the tetrahedron T1236 (a (4,1)-extension search), and
    both p5, p6 vertices (a bounded plane scan at height 1).  In the
    first, p6 extends the pyramid conv(_B_BASE + p5), and its caps over
    _PYRAMID31_FACETS, the printed tetrahedra, decide the hull; a
    rejection names the first cap that is not empty.  In the second, the
    configuration is the (4,1) base on p1, p2, p3, p5, p6, in the base's
    own order, plus p4 = 3 p1 - p2 - p3 last; the search visits one
    embedding per orbit of the base's symmetries and the swap of p2 and
    p3, and its rejections count with the orbit's size (_embeddings41).
    p4 lies in the plane of p1, p2 and p3, so that facet is never a cap,
    and its caps over _BASE41_FACETS, the printed T1246 and T1346, decide
    the hull.  In the last, p6 = (1, 2, 3) and p5 = (a, b, 1) with
    a, b >= 1, the quadrant of the paper's normalization, scanned over its
    part with a, b <= SCAN_BOUND: every (a, b) but (1, 1) puts the
    seventh point (1, 1, 1) in the hull (tests/test_scan_regions.py
    proves it by a witness affine in (a, b)), so the scan must find
    (1, 1) alone.  The points are listed as p1..p4, p6, p5: p5 extends
    the pyramid conv(_B_BASE + p6), whose apex is label 5 as in
    _PYRAMID31_FACETS, and sees only its side facets, so the caps over
    those decide the hull.
    All three use _six_by_caps: a candidate with a nonempty cap is
    rejected without a hull, and the hull of each other candidate is
    counted and must have six points.
    """
    funnel = _Funnel("C")

    # p5 along an edge: p6 = 2 p5 - p2 or 2 p5 - p1, p5 at height 1 or 3
    for p5, p6 in (((0, 0, 1), (-1, 0, 2)), ((1, 2, 3), (1, 4, 6)),
                   ((0, 0, 1), (0, 0, 2)), ((1, 2, 3), (2, 4, 6))):
        funnel.examined += 1
        cfg = PointConfig(_B_BASE + [p5, p6])
        caps = _caps(cfg.points, _PYRAMID31_FACETS)
        if not _six_by_caps(cfg, caps, "C edge", f" at {p6}"):
            full = next(labels for labels, xyh in caps if not _framed_empty(*xyh))
            funnel.reject(f"T{''.join(map(str, full))} is not empty")
            continue
        funnel.accepted.append(cfg)

    # p5 interior: remove p4 and embed the rest as a size-5 signature-(4,1)
    # polytope, with p5 in the interior-point role and p4 = 3 p1 - p2 - p3
    for cfg, (a, b, c, _), w in _embeddings41("5.4", (3, -1, -1), funnel):
        if abs(cfg.volumes()[_slots(6)[a, b, c, 0]]) not in (1, 3):
            funnel.reject("subtetrahedron p1p2p3p5 volume is not 1 or 3", w)
            continue
        caps = _caps(cfg.points, _BASE41_FACETS)
        if not _six_by_caps(cfg, caps, "C interior"):
            funnel.reject("a triangulation tetrahedron is not empty", w)
            continue
        funnel.accepted.append(cfg)

    # both vertices: p6 = (1,2,3) at distance 3, p5 = (a,b,1) at distance 1,
    # listed as p1..p4, p6, p5
    survivors = []
    pyramid = tuple(map(check_point, _B_BASE + [(1, 2, 3)]))
    for a, b in itertools.product(range(1, SCAN_BOUND + 1), repeat=2):
        funnel.examined += 1
        cfg = PointConfig._of_checked(pyramid + (check_point((a, b, 1)),))
        caps = _caps(cfg.points, _PYRAMID31_FACETS)
        if not _six_by_caps(cfg, caps, "C vertices"):
            funnel.reject("extra lattice points in the convex hull")
            continue
        survivors.append((a, b))
        funnel.accepted.append(cfg)
    if survivors != [(1, 1)]:
        raise ClassificationError(f"C vertices subcase found {survivors}")

    return funnel.report()


# ---------------------------------------------------------------------------
# case D: (2,2)-circuit, remaining points on opposite sides

_D_BASE = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)]

#: The boundary of the square pyramid conv(_D_BASE + p5), p5 = (0, 0, 1),
#: as _caps takes it: the four side triangles, each with a base vertex off
#: its plane, and then the base square split along p1p4, with p5 as ref.
#: A rejected p6 sees a full cap over a side first, so the sides lead.
_D_FACETS = ((1, 2, 5, 4), (2, 4, 5, 1), (4, 3, 5, 1), (3, 1, 5, 2), (1, 2, 4, 5), (1, 4, 3, 5))


def run_case_d() -> CaseReport:
    """(2,2)-circuit with p5 = (0,0,1) and p6 = (a,b,-1) on opposite sides.

    The midpoint (a/2, b/2) is normalized into the cone 1/2 <= x <= y with
    the strip condition x < 1 or y < x + 1; apexes with a in {1, 2} give
    width one (x + z takes two values on the six points), and the
    survivor (3,3) re-routes to case B via its (3,1)-circuit.  p6
    extends the pyramid conv(_D_BASE + p5), and the caps over the
    _D_FACETS it sees decide the hull of every other candidate
    (_six_by_caps).
    """
    funnel = _Funnel("D")
    survivors = []
    inside = 0
    for a, b in _scan_box():
        if not (1 <= a <= b and (a < 2 or b < a + 2)):
            continue
        inside += 1
        cfg = PointConfig(_D_BASE + [(0, 0, 1), (a, b, -1)])
        if a in (1, 2):
            # a full-dimensional hull has width >= 1, so range 1 is width one
            if functional_range((1, 0, 1), cfg.points) != 1:
                raise ClassificationError(f"D candidate {(a, b)} should be width one")
            funnel.reject("width one (functional x+z)")
            continue
        caps = _caps(cfg.points, _D_FACETS)
        if not _six_by_caps(cfg, caps, "D", f" at {(a, b)}"):
            funnel.reject("extra lattice points in the convex hull")
            continue
        survivors.append((a, b))
        if coplanarity_class(cfg) == C31:
            if (a, b) != (3, 3):
                raise ClassificationError(f"unexpected (3,1)-circuit at {(a, b)}")
            funnel.reject("contains a (3,1) circuit")
            continue
        funnel.accepted.append(cfg)
    _count_scan(funnel, inside)
    if survivors != [(3, 3), (3, 4), (4, 5)]:
        raise ClassificationError(f"D survivors {survivors}")
    return funnel.report()


# ---------------------------------------------------------------------------
# case E: (2,2)-circuit, remaining points on the same side


def run_case_e() -> CaseReport:
    """(2,2)-circuit with both extra points above its plane.

    Here p5 must be the interior point of the size-5 signature-(4,1)
    polytope on {p1, p2, p3, p5, p6}, and p4 = p2 + p3 - p1 completes the
    unit parallelogram.  All 8 x 4! embeddings are examined, one per
    orbit of the base's symmetries and the swap of p2 and p3 visited and
    counted with its orbit's size (_embeddings41); survivors carry the
    oriented matroid 5.5.  The configuration is the base in its own order
    plus p4 last, and p4's one cap over _BASE41_FACETS, the printed
    T2346, decides the hull (_six_by_caps).
    """
    funnel = _Funnel("E")
    for cfg, _, w in _embeddings41("5.5", (-1, 1, 1), funnel):
        caps = _caps(cfg.points, _BASE41_FACETS)
        if not _six_by_caps(cfg, caps, "E"):
            funnel.reject("tetrahedron p2p3p4p6 is not empty", w)
            continue
        funnel.accepted.append(cfg)
    return funnel.report()


# ---------------------------------------------------------------------------
# case F: (2,1)-circuit, no other coplanarity


def run_case_f() -> CaseReport:
    """Extend a segment of a signature-(4,1) polytope: r3 = 2 r2 - r1.

    Ordered point pairs (r1, r2) of each of the eight base polytopes fall
    into three oriented-matroid groups: r1 interior (4.21), r2 interior
    (4.22), both vertices (4.11).  A symmetry of the base fixes its
    interior point, so it keeps a pair's group, and maps the pair's
    candidate onto an equivalent one, r3 included, as r3 is an affine
    combination of r1 and r2.  The walk visits the first pair of each
    orbit (_Base.pairs, from _orbit_walk), 108 of the 160, and counts it,
    as examined and in its rejections, with its orbit's size: a symmetry
    can fix a pair (one that fixes r2 fixes every pair (interior, r2)),
    so the size is not always |Aut|.  Each candidate is the base plus r3,
    whose volumes PointConfig._extended reads off the base's table.
    Survivors keep size 6 and have the (2,1)-circuit as their only
    coplanarity.  The base is a tetrahedron whose four facets are empty
    triangles around its interior point, so the cap tetrahedra over the
    facets r3 sees decide the hull (_six_by_caps): a candidate with a
    nonempty one is rejected without a hull, and the hull of each other
    candidate is counted and must have six points.  Each survivor's
    circuits, read once for the coplanarity test, must hold exactly one
    (2,1)-circuit.  The oriented matroid is an equivalence invariant, so
    each class lies in one group, and after the report every class's group
    must be its row's oriented matroid label, with 6, 6 and 5 classes in
    the three groups.
    """
    funnel = _Funnel("F")
    groups: Dict[PointConfig, str] = {}
    for base in _bases():
        pts = base.config.points
        for (i, j), w in base.pairs:
            funnel.examined += w
            r1, r2 = pts[i], pts[j]
            r3 = tuple(2 * r2[t] - r1[t] for t in range(3))
            if r3 in pts:
                funnel.reject("degenerate extension", w)
                continue
            cfg = PointConfig._extended(base.extension, r3)
            group = "4.21" if i == 0 else ("4.22" if j == 0 else "4.11")
            caps = _caps(cfg.points, _BASE41_FACETS)
            if not _six_by_caps(cfg, caps, "F", f" in group {group}"):
                funnel.reject("extra lattice points in the convex hull", w)
                continue
            circs = circuits(cfg)
            if coplanarity_from_circuits(circs) != C21:
                funnel.reject("additional coplanarity", w)
                continue
            if sum(c.signature == (2, 1) for c in circs) != 1:
                raise ClassificationError(f"F candidate {r3}: expected exactly one (2,1)-circuit")
            funnel.accepted.append(cfg)
            groups[cfg] = group
    report = funnel.report()
    labels = [groups[cls.generated] for cls in report.classes_found]
    for cls, label in zip(report.classes_found, labels):
        if label != cls.om_label:
            raise ClassificationError(f"{cls.id}: group {label} is not its oriented matroid {cls.om_label}")
    counts = tuple(map(labels.count, ("4.21", "4.22", "4.11")))
    if counts != (6, 6, 5):
        raise ClassificationError(f"F group counts {counts}")
    return report


# ---------------------------------------------------------------------------
# cases G and H: no coplanarity, glued from two signature-(4,1) polytopes


#: Per left-out vertex ex of a base, its subtetrahedron's point indices,
#: in base order.
_REST = tuple(tuple(k for k in range(5) if k != ex) for ex in range(5))


def _swapped(hit) -> tuple:
    """The reverse of a hit (_gluing_tables): the inverse map, which glues
    the target's left-out vertex onto the source base, as a hit of the
    target base on the source.  Target label j goes back to the source
    label k that went to it, and the mark moves to the target's left-out
    vertex, which now goes to the source's."""
    back = [0] * 5
    for k, j in enumerate(hit):
        back[j % 5] = k + j - j % 5
    return tuple(back)


def _block_orbit(src, tgt, swap, hit) -> set:
    """The images of a hit (_gluing_tables) under the symmetries src of
    the source base that fix its left-out vertex, tgt of the target base
    that fix its own, each as (getter of the inverse permutation, the
    permutation on the marked labels 0..9), and, when swap (one base, one
    left-out vertex), the reverse gluing (_swapped).  A source symmetry
    pi_s maps hit to hit o pi_s^-1, a target symmetry pi_t to pi_t o hit:
    the composed maps glue an equivalent configuration."""
    moved = [tuple(map(marked, start)) for start in ((hit, _swapped(hit)) if swap else (hit,))
             for _, marked in tgt]
    return {inverse(m) for inverse, _ in src for m in moved}


@lru_cache(maxsize=1)
def _gluing_tables():
    """The walk of the G/H gluing, which depends only on the bases
    (_bases), so it is built once per process: per pair of bases
    sb <= si, (sb, si, visited).

    A hit glues base sb's subtetrahedron without vertex ex, ex >= 1,
    onto base si's without ex_s by an integral unimodular map.  It is
    read on labels: hit[k] is the target label that source label k goes
    to, and hit[ex] = ex_s + 5 marks the left-out vertex, whose image is
    the glued point.  A hit is a pair of equal keys
    (emptytetra._ordered_key): the source's in its base order, the
    target's in the hit's order.  The hits come in enumeration order: by
    ex, then ex_s, then the target order.

    visited lists, in that order, the first hit of each orbit under sb's
    symmetries, si's and the swap of source and target, as (hit, glued
    point, weight): 449 hits, with no orbit under the whole group listed.
    A source symmetry moves ex, a target one ex_s, so the first hit of an
    orbit leaves out the least vertex of each one's orbit under its base,
    its representative; the keys are taken for the 23 representatives'
    subtetrahedra alone, in their 24 vertex orders.  Each of those is an
    empty tetrahedron, whose every facet is a unimodular triangle, so a
    missing key raises ClassificationError.  Per pair of representatives,
    the target orders with the source's key make one block of hits,
    walked under the symmetries that fix both left-out vertices
    (_orbit_walk of _block_orbit), and a first hit counts with its block
    orbit's size times the sizes of the two vertex orbits.  The swap (_swapped) maps a hit of sb on si
    without ex and ex_s onto one of si on sb without ex_s and ex, which
    comes later when sb < si, or on one base when ex < ex_s: such an
    orbit counts twice its members there, and the later blocks of a base
    on itself are not walked.  In a block of one base and one left-out
    vertex the swap joins the block orbits.
    No map is solved: with v the affine dependence volume_vector5 of a
    base, its left-out vertex ex is sum_k (-v_k / v_ex) p_k over the
    others, and an affine map keeps those coordinates, so the glued point
    is their _barycentric_image over the target subtetrahedron, whose
    |volume| is |v_ex_s|.
    """
    bases, by_key, reps = _bases(), {}, []
    for b, base in enumerate(bases):
        pts, v = base.config.points, volume_vector5(base.config)
        reps.append({})
        for ex in range(1, 5):
            images = {perm[ex] for perm, _ in base.autos}
            if min(images) != ex:
                continue
            stab = [(itemgetter(*map(perm.index, range(5))), (*perm, *(k + 5 for k in perm)).__getitem__)
                    for perm, _ in base.autos if perm[ex] == ex]
            orders = list(itertools.permutations(_REST[ex]))
            keys = [_ordered_key(*(pts[k] for k in order)) for order in orders]
            if None in keys:
                raise ClassificationError(f"base {b} without vertex {ex}: a facet is not a unimodular triangle")
            reps[b][ex] = len(images), stab, tuple(-v[k] for k in _REST[ex]), v[ex], keys[0]
            for order, key in zip(orders, keys):
                by_key.setdefault((b, key), {}).setdefault(ex, []).append(order)
    walk = []
    for sb, si in itertools.combinations_with_replacement(range(len(bases)), 2):
        spts, visited = bases[si].config.points, []
        for ex, (s_size, s_stab, weights, vol, key) in reps[sb].items():
            for ex_s, orders in by_key.get((si, key), {}).items():
                if sb == si and ex_s < ex:
                    continue
                t_size, t_stab, _, t_vol, _ = reps[si][ex_s]
                swap = sb == si and ex == ex_s
                hits = [(*order[:ex], ex_s + 5, *order[ex:]) for order in orders]
                for hit, size in _orbit_walk(hits, partial(_block_orbit, s_stab, t_stab, swap)):
                    new_pt = _barycentric_image(weights, vol, [spts[k] for k in hit if k < 5], abs(t_vol))
                    visited.append((hit, new_pt, size * s_size * t_size * (1 if swap else 2)))
        walk.append((sb, si, tuple(visited)))
    return tuple(walk)


def run_case_gh() -> Tuple[CaseReport, CaseReport]:
    """Glue two signature-(4,1) polytopes along empty subtetrahedra.

    Every ordered pair of the eight base polytopes, every choice of
    subtetrahedron (the interior point plus three of the four vertices)
    in each, and every vertex matching of the two subtetrahedra is
    examined; a matching survives when the affine map it defines is
    integral and unimodular.  That holds exactly when the two ordered
    subtetrahedra have the same key (emptytetra._ordered_key), which
    3,732 of the 24,576 matchings do; _gluing_tables generates, once per
    process, the first hit of each of their orbits below.  The union is six
    points; coinciding interior points give one interior point (case G),
    otherwise two (case H), and the gluing names its case so.  A gluing
    is accepted when its hull has six lattice points; the configuration
    is the target base plus one point, whose volumes
    PointConfig._extended reads off the target's table, so its caps are
    case F's (_caps over _BASE41_FACETS).  A cap
    with a lattice point strictly inside rejects the gluing for an extra
    interior point without a hull (286 of the 426 verdicts); on the
    others the caps are the size argument, as in case F (_glued_verdict).

    A verdict depends only on the configuration and on the roles of its
    two interior points, and both are kept by a unimodular map that
    carries the interior points onto each other's roles.  Three kinds of
    map give hits the same verdict: a symmetry of the source base, which
    glues the same point onto the same target; a symmetry of the target,
    which fixes its interior point and moves the glued point; and the
    inverse of the gluing map, which carries the configuration onto the
    reverse gluing, the target's left-out vertex glued onto the source
    base, with the interior points swapped, so that they coincide there
    exactly when they do here.  The walk visits the first hit of each
    orbit under the group they generate, 449 hits, and counts each, in
    the funnels and in the hits, with its orbit's size.  The 160 hits
    that glue fewer than six points fall into 23 orbits, and the other
    3,572 into 426, one verdict each, made on every call.  The first hit
    of each class is the first of its orbit, so the walk keeps the first
    configuration of each class where it was, and the report identifies
    32 configurations, the first of each class in enumeration order.

    Every matching counts as examined in both the G and the H funnel.  A
    rejection common to both cases (verdict case "shared", or a gluing of
    fewer than six points) goes to both funnels where it is made, with
    its orbit's weight, and a G or H rejection to its own; the matchings
    that are not integral unimodular, which the loop never visits, go to
    both after it.
    """
    funnel_g, funnel_h = _Funnel("G"), _Funnel("H")
    funnels = {"G": (funnel_g,), "H": (funnel_h,), "shared": (funnel_g, funnel_h)}
    bases = _bases()
    # every pair of subtetrahedra, each with its 4! vertex matchings
    funnel_g.examined = funnel_h.examined = (4 * len(bases)) ** 2 * 24
    hits = 0
    for _, si, visited in _gluing_tables():
        target = bases[si]
        spts = target.config.points
        for hit, new_pt, w in visited:
            hits += w
            if new_pt in spts:
                for funnel in funnels["shared"]:
                    funnel.reject("gluing yields fewer than six points", w)
                continue
            cfg = PointConfig._extended(target.extension, new_pt)
            case, reason = _glued_verdict(cfg, spts[hit[0]])  # the source's interior point
            if reason is None:
                funnels[case][0].accepted.append(cfg)
            else:
                for funnel in funnels[case]:
                    funnel.reject(reason, w)
    note = "candidate enumeration shared with the other gluing case"
    for funnel in funnels["shared"]:
        funnel.reject("identification is not integral unimodular", funnel.examined - hits)
    return funnel_g.report((note,)), funnel_h.report((note,))


def _barycentric_image(weights, vol: int, dst, dst_vol: int) -> IntVec3:
    """sum(weights[t] * dst[t]) / vol: the image of the point of barycentric
    numerators weights over a source tetrahedron of volume +-vol under the
    affine map onto dst, whose |volume| the caller gives as dst_vol
    (_gluing_tables reads it off the target base's volume vector).  That
    map is unimodular and integral only if dst_vol is |vol| and the image
    is integral; else ClassificationError.  The keys of a hit are equal,
    so a volume that differs here means a volume vector that disagrees
    with the keys."""
    if dst_vol != abs(vol):
        raise ClassificationError("glued subtetrahedra have different volumes")
    w0, w1, w2, w3 = weights
    (a0, a1, a2), (b0, b1, b2), (c0, c1, c2), (d0, d1, d2) = dst
    x = w0 * a0 + w1 * b0 + w2 * c0 + w3 * d0
    y = w0 * a1 + w1 * b1 + w2 * c1 + w3 * d1
    z = w0 * a2 + w1 * b2 + w2 * c2 + w3 * d2
    if x % vol or y % vol or z % vol:
        raise ClassificationError("glued point is not a lattice point")
    return (x // vol, y // vol, z // vol)


def _glued_verdict(cfg: PointConfig, glued_interior: IntVec3):
    """(case, rejection reason or None) of one gluing: cfg is the target
    base's five points followed by the new point, glued_interior is the
    point the source's interior point lands on.

    case is "shared" for the rejections common to G and H.  The points
    contain a full-dimensional base, so some four of them are coplanar
    (some circuit has at most four points) exactly when one of the 15
    quadruple volumes is 0.  cfg is a (4,1) base plus one point, as in
    case F, so its hull is the base plus the caps over the base facets
    the new point sees, computed once (_caps) with the new point's
    coordinates (x, y, h) in each facet's frame.  A lattice point strictly
    inside a cap (_framed_has_interior_point) is strictly inside the hull
    and is no point of cfg (the cap's vertices are its corners, and the
    other two points lie on the base's side of its facet), so it is an
    interior point other than the base interior and the glued interior:
    the verdict is "extra interior lattice point" with no hull.
    Otherwise the gluing names its case: G when the two interior points
    coincide, H when they do not, and the cap rule decides its size on
    the same caps (_six_by_caps).

    Both interior points are interior lattice points of the hull, each
    strictly inside a base the hull contains; that the hull has no other
    is not proved here.  tests/test_classify6.py checks the verdict
    against one read off the hull's interior points on every verdict key.
    """
    if 0 in cfg.volumes():
        return "shared", "coplanarity present"
    caps = _caps(cfg.points, _BASE41_FACETS)
    if any(_framed_has_interior_point(*xyh) for _, xyh in caps):
        return "shared", "extra interior lattice point"
    if glued_interior == cfg.points[0]:
        case, reason = "G", "cut tetrahedron is not empty"
    else:
        case, reason = "H", "a triangulation tetrahedron is not empty"
    return case, None if _six_by_caps(cfg, caps, case) else reason


# ---------------------------------------------------------------------------
# assembly and global verification

#: The runners of cases A to F, one report each; run_case_gh reports G and H.
_RUNNERS = (run_case_a, run_case_b, run_case_c, run_case_d, run_case_e, run_case_f)


def run_reports() -> List[CaseReport]:
    """All eight case reports, in case order; runners are independent."""
    return [runner() for runner in _RUNNERS] + list(run_case_gh())


def run_case(case: str) -> CaseReport:
    """The report of one case A-H from its runner alone; G and H come from
    the one gluing pass, run_case_gh.  Raises ValueError for other letters."""
    if case not in tuple("ABCDEFGH"):
        raise ValueError(f"unknown case {case!r}")
    if case in "GH":
        return run_case_gh()["GH".index(case)]
    return _RUNNERS["ABCDEF".index(case)]()


def classify_all() -> Tuple[CaseReport, ...]:
    """Run every case and check that the 76 classes come out in table
    order; each runner has checked its classes' witness maps (_Funnel.report)."""
    reports = tuple(run_reports())
    found = [c.id for r in reports for c in r.classes_found]
    if found != [row.id for row in load_tables().class_rows]:
        raise ClassificationError("assembled classification does not match tables")
    return reports


def identify(config: PointConfig) -> Optional[str]:
    """Id of the table row that config is an image of, or None: the row
    that _class_rows names through a witness map onto its points.  A
    configuration outside the classification (not six lattice points,
    or width one) fails the gate of |volumes| or matches no row's table
    with a witness."""
    named = _class_rows().name(config)
    return None if named is None else named[0]


# ---------------------------------------------------------------------------
# width-one companions

def _w42_top(name, a, b):
    """Second height-one apex of a two-point prism top; first is (0,0)."""
    lo = 0 if name == "(4,2)/4.1" else 1
    if not (lo <= b < a):
        raise BadParameters(f"{name}: need {lo} <= b < a")
    if gcd(a, b) != 1:
        raise BadParameters(f"{name}: parameters must be coprime")
    if name == "(4,2)/5.6" and 2 * b == a:
        raise BadParameters(f"{name}: 2b = a is excluded")
    return (b, a) if name == "(4,2)/4.9" else (a, b)


def _w33_top(name, params):
    """Height-one triangle of a three-plus-three configuration."""
    if name == "(3,3)/2.1":
        (a, b) = params
        if not (0 <= b < a) or gcd(a, b) != 1:
            raise BadParameters(f"{name}: need 0 <= b < a coprime")
        return ((0, 0), (b, a), (-b, -a))
    if name == "(3,3)/4.15":
        (a, b) = params
        if not (0 < b <= a) or gcd(a, b) != 1:
            raise BadParameters(f"{name}: need 0 < b <= a coprime")
        return ((0, 0), (a, b), (-a, -b))
    if name == "(3,3)/5.8":
        (a,) = params
        if a <= 1:
            raise BadParameters(f"{name}: need a > 1")
        return ((0, 0), (0, 1), (1, a))
    if name == "(3,3)/5.15":
        (a,) = params
        if a <= 3:
            raise BadParameters(f"{name}: need a > 3")
        return ((0, 0), (0, 1), (-1, a))
    a, b, c, d = params
    if a * d - b * c not in (1, -1):
        raise BadParameters(f"{name}: ad - bc must be +-1")
    if min(a, b, c, d) <= 0 or c + d <= a + b or a == c or b == d:
        raise BadParameters(f"{name}: need a,b,c,d > 0, c + d > a + b, a != c and b != d")
    return ((0, 0), (a, b), (c, d))


@lru_cache(maxsize=1)
def _family_rows():
    fams = load_tables().width1_families
    singles = {f"{r['table']}/{r['om_label']}": r for r in fams["singles"]}
    families = {r["family_id"]: r for r in fams["families"]}
    return singles, families


def width1_family(name: str, params: Sequence[int] = ()) -> PointConfig:
    """Construct a width-one representative from its family name.

    Families are keyed "(shape)/om"; parameterless entries reject params.
    Raises BadParameters for unknown names, wrong arity, parameters that
    are not ints (a bool is not one), or parameter values outside the
    family's constraints.
    """
    singles, families = _family_rows()
    params = tuple(params)
    if not all(type(x) is int for x in params):
        raise BadParameters(f"{name}: parameters {params!r} are not all integers")
    if name in singles:
        if params:
            raise BadParameters(f"{name} takes no parameters")
        points = [tuple(p) for p in singles[name]["points"]]
    elif name in families:
        row = families[name]
        if len(params) != row["n_params"]:
            raise BadParameters(f"{name} takes {row['n_params']} parameters")
        base = [tuple(p) for p in row["p0"]]
        if row["table"] == "(4,2)":
            tops = [(0, 0), _w42_top(name, *params)]
        else:
            tops = list(_w33_top(name, params))
        points = [(x, y, 0) for x, y in base] + [(x, y, 1) for x, y in tops]
    else:
        raise BadParameters(f"unknown width-one family {name!r}")
    cfg = PointConfig(points)
    if size(cfg) != 6 or width(cfg)[0] != 1:
        raise ClassificationError(f"{name}{params}: construction check failed")
    return cfg


# ---------------------------------------------------------------------------
# serialization

#: The exported columns, in the order of the data rows' fields.
_COLUMNS = tuple(f.name for f in fields(ClassRow))


def _column_values(c: PolytopeClass) -> tuple:
    """c's exported values, in _COLUMNS order; the representative as its
    points."""
    return (c.id, c.om_label, c.volume_vector, c.width, c.functional, c.representative.points,
            c.dps)


def _csv_cell(value):
    """A column value as CSV text: vectors space-separated, points x,y,z
    joined by "; ", and the dps flag as 0 or 1."""
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, tuple) and isinstance(value[0], tuple):
        return "; ".join(",".join(map(str, p)) for p in value)
    return " ".join(map(str, value)) if isinstance(value, tuple) else value


def export_json(classes: Sequence[PolytopeClass]) -> str:
    payload = [dict(zip(_COLUMNS, _column_values(c))) for c in classes]
    return json.dumps(payload, indent=2) + "\n"


def export_csv(classes: Sequence[PolytopeClass]) -> str:
    buf = io.StringIO()
    rows = ([_csv_cell(v) for v in _column_values(c)] for c in classes)
    csv.writer(buf).writerows([_COLUMNS, *rows])
    return buf.getvalue()
