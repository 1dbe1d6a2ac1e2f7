"""The size-5 family search, kept as a test oracle.

The library reads the (2,1) and (3,2) family parameters off the volume
vector and one edge form.  This is the search it replaced: build the
representative of every admissible parameter of the volume read off the
volume vector and compare canonical keys, O(q) keys per family.  Slow,
but it decides by the complete key alone.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd
from typing import Dict, Optional, Tuple

from lattice6.invariants import signature5, volume_vector5
from lattice6.polytope import PointConfig
from lattice6.size5 import rep21, rep32
from equivalence_oracles import canonical_key


@lru_cache(maxsize=None)
def _family_keys(sig: Tuple[int, int], vol: int) -> Dict[tuple, Tuple[int, int]]:
    """Canonical key -> parameters, over the family members of one volume."""
    if sig == (2, 1):
        reps = {(p, vol): rep21(p, vol) for p in range(vol // 2 + 1)
                if vol == 1 or gcd(p, vol) == 1}
    else:
        reps = {(a, vol - a): rep32(a, vol - a) for a in range(1, vol // 2 + 1)
                if gcd(a, vol - a) == 1}
    return {canonical_key(rep): params for params, rep in reps.items()}


def search_family_params(config: PointConfig) -> Optional[Tuple[int, int]]:
    """(p, q) or (a, b) of a (2,1) or (3,2) size-5 configuration, found by
    comparing its key with every family member's; None when none matches."""
    sig = signature5(config)
    if sig not in ((2, 1), (3, 2)):
        raise ValueError(f"signature {sig} is not a family's")
    nonzero = sorted(abs(v) for v in volume_vector5(config) if v)
    vol = nonzero[0] if sig == (2, 1) else nonzero[-1]
    return _family_keys(sig, vol).get(canonical_key(config))
