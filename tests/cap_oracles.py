"""The cap rule read per candidate, as the oracle of classify6's facet
tables: caps_by_frames builds each facet's unimodular frame from the
candidate's own points, where classify6._caps reads a table that
classify6._facet_table builds once per polytope.
"""

from __future__ import annotations

from lattice6.classify6 import ClassificationError
from lattice6.emptytetra import _facet_frame
from lattice6.exactlinalg import dot, sub


def caps_by_frames(points, facets) -> tuple:
    """The cap tetrahedra of a one-point extension, each as (labels,
    (x, y, h)): points are the polytope's, then the new point p, last;
    facets lists (a, b, c, ref) as classify6._facet_table takes them.
    Each facet triangle's frame and the ref's height in it are built from
    the points; ClassificationError when abc is not a unimodular
    triangle.  p strictly sees abc when its height h and the ref's have
    opposite signs, and then conv(abc + p) is a cap, with p at (x, y, h)
    in the frame."""
    new = len(points)
    p = points[-1]
    caps = []
    for facet in facets:
        i, j, k, r = facet
        a = points[i - 1]
        frame = _facet_frame(a, points[j - 1], points[k - 1])
        if frame is None:
            raise ClassificationError(f"facet triangle {facet[:3]} is not unimodular")
        xs, ys, hs = frame
        d = sub(p, a)
        h = dot(hs, d)
        if h * dot(hs, sub(points[r - 1], a)) < 0:
            caps.append(((i, j, k, new), (dot(xs, d), dot(ys, d), h)))
    return tuple(caps)
