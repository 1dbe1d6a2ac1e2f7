"""Exact-arithmetic toolkit for lattice 3-polytopes with few lattice points.

Implements the machinery needed to classify lattice 3-polytopes of size 6
and width greater than one from first principles: exact volume vectors,
lattice width, unimodular equivalence, empty tetrahedra, the size-5
classification, the rank-4 oriented matroid catalog on six elements, and
the case-by-case size-6 classification with its 76 equivalence classes.
The package exports the integer affine map, the error for affinely
dependent input and the normalized volume determinant; everything else
is imported from its module (lattice6.emptytetra.white_type, say).
"""

__version__ = "0.1.0"

from .exactlinalg import AffineMap, DegenerateSource, det4

__all__ = ["AffineMap", "DegenerateSource", "det4", "__version__"]
