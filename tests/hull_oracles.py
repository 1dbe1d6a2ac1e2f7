"""The hull passes the placing triangulation replaced, kept as test
oracles for polytope: the triple-scan facets and the cone triangulation.

The library reads the facets off the boundary faces of one placing.
triple_scan_facets is a pass over the point triples instead: every
triple spans a plane by a cross product, and every point is dotted with
it.  It returns the same facets and raises NotFullDimensional on the
same configurations.  cone_triangulation triangulates the hull from its
facets and vertices instead, by coning the first vertex over fans of the
facets not through it, so its tetrahedra are not the placing's, but
their normalized volumes sum to the same and they hold the same lattice
points.
"""

from __future__ import annotations

import itertools
from functools import cmp_to_key
from math import gcd
from typing import List, Sequence, Tuple

from lattice6.exactlinalg import IntVec3, det3, sub
from lattice6.polytope import NotFullDimensional, Plane, PointConfig


def triple_scan_facets(config: PointConfig) -> Tuple[Plane, ...]:
    """Facets of conv(config) as sorted planes (a, b, c, o): the primitive
    inward normal (a, b, c) and the offset o, so that a x + b y + c z >= o
    on the hull, with equality on at least three configuration points.

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
            facets.add((nx // g, ny // g, nz // g, base // g))
    if not full:
        raise NotFullDimensional("configuration spans no 3-dimensional volume")
    return tuple(sorted(facets))


def cone_triangulation(
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
