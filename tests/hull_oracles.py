"""The triple-scan hull facets, kept as a test oracle for
polytope.hull_facets.

The library reads each point's side of a triple's plane off the
configuration's quadruple volumes.  This is the pass it replaced: every
point triple spans a plane by a cross product, and every point is dotted
with it.  It returns the same facets and raises NotFullDimensional on the
same configurations.
"""

from __future__ import annotations

import itertools
from math import gcd
from typing import Tuple

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
