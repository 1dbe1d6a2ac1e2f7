"""The shell-scan lattice width, kept as a test oracle for
invariants.width.

The library walks only the lattice of targets, in its Hermite basis.
This is the search it replaced: every target vector t of spread s is
visited, shell by shell, and the ones that give no integer functional
(adj(d) t not divisible by D) are thrown away.  It returns the same width
and the same sign-normalized witness.
"""

from __future__ import annotations

import itertools
from math import gcd
from typing import Iterator, Tuple

from lattice6.exactlinalg import IntVec3, _adjugate, _mat_vec, _quadruples, sub
from lattice6.invariants import _normalize_sign, functional_range
from lattice6.polytope import NotFullDimensional, PointConfig


def shell(s: int) -> Iterator[IntVec3]:
    """Each t in Z^3 with max(0, t) - min(0, t) == s >= 1, once: per (t1, t2),
    t3 fills [min(0, t1, t2), max(0, t1, t2)] when that is s long, else
    takes the two values that stretch it to length s."""
    for t1 in range(-s, s + 1):
        for t2 in range(-s, s + 1):
            lo, hi = min(0, t1, t2), max(0, t1, t2)
            if hi - lo == s:
                for t3 in range(lo, hi + 1):
                    yield t1, t2, t3
            elif hi - lo < s:
                yield t1, t2, lo + s
                yield t1, t2, hi - s


def shell_width(config: PointConfig) -> Tuple[int, IntVec3]:
    """Lattice width and a primitive witness functional.

    With d_k = q_k - q0 on a quadruple of maximal |volume| D, a functional
    f is fixed by its targets t_k = f . d_k, as f = adj(d) t / D.  One of
    range W takes the values (0, t1, t2, t3) within W of each other, so one
    pass over the targets in shells of spread s = 1, 2, ... has met every
    functional of the least range once s passes it.  The witness is the
    least of them, sign-normalized (leading coefficient positive).
    """
    pts = config.points
    quads = _quadruples(len(pts))
    vols = dict(zip(quads, config.volumes()))
    quad = max(quads, key=lambda q: abs(vols[q]))
    rows = tuple(sub(pts[i], pts[quad[0]]) for i in quad[1:])
    D = vols[quad]
    if D == 0:
        raise NotFullDimensional("width needs a full-dimensional configuration")
    adj = _adjugate(rows)
    best = None
    for s in itertools.count(1):
        if best is not None and s > best[0]:
            break
        for t in shell(s):
            x, y, z = _mat_vec(adj, t)
            if x % D or y % D or z % D:
                continue
            f = _normalize_sign((x // D, y // D, z // D))
            candidate = (functional_range(f, pts), f)
            if best is None or candidate < best:
                best = candidate
    if gcd(*best[1]) != 1:
        raise RuntimeError(f"width witness {best[1]} is not primitive")
    return best
