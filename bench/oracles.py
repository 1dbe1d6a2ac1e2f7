"""Correctness oracles for the benchmark, written apart from lattice6.

Nothing here imports the package under test.  Each oracle uses a method
other than the one it checks, or at least code of its own:

- lattice points are counted by a bounding-box scan that decides
  membership by Caratheodory (is the point in some tetrahedron spanned by
  four configuration points?), with facets found separately only to tell
  interior from boundary; it is meant for small-coordinate originals;
- witnesses of equivalence are checked entry by entry: integer matrix,
  determinant +-1, and a[i] -> b[perm[i]] for every i;
- White's rule p' = +-p^(+-1) (mod q) is recomputed from modular inverses;
- a width certificate is the spread of a printed functional over the points;
- unimodular equivalence is searched over ordered quadruples with integer
  adjugates, so the classify workload can certify its witnesses itself.
"""

from __future__ import annotations

import itertools
import re
from math import gcd
from typing import Dict, List, Optional, Sequence, Tuple

Point = Tuple[int, int, int]


def _sub(p, q) -> Point:
    return (p[0] - q[0], p[1] - q[1], p[2] - q[2])


def _det3_rows(r0, r1, r2) -> int:
    return (
        r0[0] * (r1[1] * r2[2] - r1[2] * r2[1])
        - r0[1] * (r1[0] * r2[2] - r1[2] * r2[0])
        + r0[2] * (r1[0] * r2[1] - r1[1] * r2[0])
    )


def orient(a, b, c, d) -> int:
    """Signed volume determinant of the tetrahedron abcd (times 6)."""
    return _det3_rows(_sub(b, a), _sub(c, a), _sub(d, a))


def box_volume(points: Sequence[Point]) -> int:
    """Number of lattice points of the axis-parallel bounding box."""
    vol = 1
    for c in range(3):
        vals = [p[c] for p in points]
        vol *= max(vals) - min(vals) + 1
    return vol


# ---------------------------------------------------------------------------
# brute-force lattice-point counter


def _in_tetrahedron(p, tet) -> bool:
    a, b, c, d = tet
    full = orient(a, b, c, d)
    parts = (orient(p, b, c, d), orient(a, p, c, d), orient(a, b, p, d), orient(a, b, c, p))
    if full > 0:
        return all(v >= 0 for v in parts)
    return all(v <= 0 for v in parts)


def _facet_planes(points: Sequence[Point]) -> List[Tuple[Point, int]]:
    """Planes n.x >= k that bound conv(points), one per distinct facet."""
    planes = set()
    for a, b, c in itertools.combinations(points, 3):
        u, v = _sub(b, a), _sub(c, a)
        n = (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])
        if n == (0, 0, 0):
            continue
        g = gcd(gcd(n[0], n[1]), n[2])
        n = (n[0] // g, n[1] // g, n[2] // g)
        k = n[0] * a[0] + n[1] * a[1] + n[2] * a[2]
        side = [n[0] * p[0] + n[1] * p[1] + n[2] * p[2] - k for p in points]
        if min(side) >= 0:
            planes.add((n, k))
        elif max(side) <= 0:
            planes.add(((-n[0], -n[1], -n[2]), -k))
    return sorted(planes)


#: Largest bounding box the brute-force counter accepts, in lattice points.
BRUTE_MAX_BOX = 200_000


def brute_counts(points: Sequence[Point]) -> Dict[str, int]:
    """Size, interior count and vertex count of conv(points), full-dimensional.

    Membership comes from Caratheodory over nondegenerate tetrahedra of the
    configuration; the facet planes only split members into boundary and
    interior, and must agree with the tetrahedra on membership.
    """
    pts = [tuple(p) for p in points]
    if box_volume(pts) > BRUTE_MAX_BOX:
        raise ValueError("brute-force counter is for small boxes only")
    tets = [t for t in itertools.combinations(pts, 4) if orient(*t) != 0]
    if not tets:
        raise ValueError("configuration is not full-dimensional")
    planes = _facet_planes(pts)
    lo = [min(p[c] for p in pts) for c in range(3)]
    hi = [max(p[c] for p in pts) for c in range(3)]
    size = interior = 0
    for x in range(lo[0], hi[0] + 1):
        for y in range(lo[1], hi[1] + 1):
            for z in range(lo[2], hi[2] + 1):
                q = (x, y, z)
                inside = any(_in_tetrahedron(q, t) for t in tets)
                values = [n[0] * x + n[1] * y + n[2] * z - k for n, k in planes]
                if inside != (min(values) >= 0):
                    raise AssertionError(f"membership tests disagree at {q}")
                if inside:
                    size += 1
                    interior += min(values) > 0
    return {"size": size, "interior": interior, "vertices": count_vertices(pts)}


def count_vertices(points: Sequence[Point]) -> int:
    """Points of the configuration outside the hull of the others."""
    n = 0
    for i, p in enumerate(points):
        others = points[:i] + points[i + 1 :]
        tets = [t for t in itertools.combinations(others, 4) if orient(*t) != 0]
        # coplanar others: p is off their plane, since the whole set is 3D
        if not any(_in_tetrahedron(p, t) for t in tets):
            n += 1
    return n


# ---------------------------------------------------------------------------
# witnesses of unimodular equivalence


def check_witness(
    a: Sequence[Point],
    b: Sequence[Point],
    perm: Sequence[int],
    matrix: Sequence[Sequence[int]],
    translation: Sequence[int],
) -> Optional[str]:
    """None when x -> matrix x + translation sends a[i] to b[perm[i]] for all
    i with an integer matrix of determinant +-1; else the reason it fails."""
    n = len(a)
    if len(b) != n or sorted(perm) != list(range(n)):
        return "permutation is not a bijection of the point labels"
    entries = [e for row in matrix for e in row] + list(translation)
    if len(matrix) != 3 or any(len(row) != 3 for row in matrix) or len(translation) != 3:
        return "map is not 3x3 plus a translation"
    if not all(isinstance(e, int) and not isinstance(e, bool) for e in entries):
        return "map has non-integer entries"
    if _det3_rows(*matrix) not in (1, -1):
        return "matrix determinant is not +-1"
    for i, p in enumerate(a):
        img = tuple(
            sum(matrix[r][c] * p[c] for c in range(3)) + translation[r] for r in range(3)
        )
        if img != tuple(b[perm[i]]):
            return f"point {i + 1} maps to {img}, not to {tuple(b[perm[i]])}"
    return None


def _adj3(m):
    """Adjugate of a 3x3 integer matrix given by rows."""
    (a, b, c), (d, e, f), (g, h, i) = m
    return (
        (e * i - f * h, c * h - b * i, b * f - c * e),
        (f * g - d * i, a * i - c * g, c * d - a * f),
        (d * h - e * g, b * g - a * h, a * e - b * d),
    )


def find_equivalence(
    a: Sequence[Point], b: Sequence[Point]
) -> Optional[Tuple[Tuple[int, ...], Tuple[Point, Point, Point], Point]]:
    """(perm, matrix, translation) with a[i] -> b[perm[i]], or None.

    Fixes one nondegenerate ordered quadruple of a and tries every ordered
    quadruple of b with the same absolute volume; the integer map is
    solved through the adjugate and must then carry the whole point set.
    """
    a = [tuple(p) for p in a]
    b = [tuple(p) for p in b]
    n = len(a)
    if len(b) != n:
        return None
    quad = next(
        (q for q in itertools.combinations(range(n), 4) if orient(*(a[i] for i in q)) != 0),
        None,
    )
    if quad is None:
        raise ValueError("configuration is not full-dimensional")
    src = [a[i] for i in quad]
    vol = orient(*src)
    # columns s_k - s_0 as a matrix S; the map M satisfies M S = D
    s_cols = [_sub(src[k], src[0]) for k in (1, 2, 3)]
    S = tuple(tuple(s_cols[k][r] for k in range(3)) for r in range(3))
    adj = _adj3(S)
    b_index = {p: j for j, p in enumerate(b)}
    for tgt in itertools.permutations(range(n), 4):
        dst = [b[j] for j in tgt]
        if abs(orient(*dst)) != abs(vol):
            continue
        d_cols = [_sub(dst[k], dst[0]) for k in (1, 2, 3)]
        D = tuple(tuple(d_cols[k][r] for k in range(3)) for r in range(3))
        num = [[sum(D[r][k] * adj[k][c] for k in range(3)) for c in range(3)] for r in range(3)]
        if any(v % vol for row in num for v in row):
            continue
        M = tuple(tuple(v // vol for v in row) for row in num)
        t = tuple(dst[0][r] - sum(M[r][c] * src[0][c] for c in range(3)) for r in range(3))
        perm = []
        for p in a:
            img = tuple(sum(M[r][c] * p[c] for c in range(3)) + t[r] for r in range(3))
            j = b_index.get(img)
            if j is None:
                break
            perm.append(j)
        else:
            if len(set(perm)) == n and _det3_rows(*M) in (1, -1):
                return tuple(perm), M, t
    return None


# ---------------------------------------------------------------------------
# empty tetrahedra: White's rule


def white_equivalent(t1: Tuple[int, int], t2: Tuple[int, int]) -> bool:
    """T(p,q) ~ T(p',q') iff q = q' and p' = +-p or +-p^(-1) (mod q)."""
    (p1, q1), (p2, q2) = t1, t2
    if q1 != q2 or q1 < 1:
        return False
    q = q1
    if q == 1:
        return True
    a, b = p1 % q, p2 % q
    if gcd(a, q) != 1 or gcd(b, q) != 1:
        return False
    return (a - b) % q == 0 or (a + b) % q == 0 or (a * b - 1) % q == 0 or (a * b + 1) % q == 0


# ---------------------------------------------------------------------------
# width certificates

_TERM = re.compile(r"([+-]?)(\d*)([xyz])")


def parse_functional(text: str) -> Point:
    """Integer functional from the CLI's 'x-2z' notation ('0' for zero)."""
    text = text.strip()
    if text == "0":
        return (0, 0, 0)
    coeffs = {"x": 0, "y": 0, "z": 0}
    pos = 0
    for m in _TERM.finditer(text):
        if m.start() != pos:
            raise ValueError(f"cannot parse functional {text!r}")
        sign = -1 if m.group(1) == "-" else 1
        coeffs[m.group(3)] = sign * int(m.group(2) or "1")
        pos = m.end()
    if pos != len(text):
        raise ValueError(f"cannot parse functional {text!r}")
    return (coeffs["x"], coeffs["y"], coeffs["z"])


def spread(functional: Sequence[int], points: Sequence[Point]) -> int:
    """max - min of the functional over the points."""
    vals = [sum(f * x for f, x in zip(functional, p)) for p in points]
    return max(vals) - min(vals)
