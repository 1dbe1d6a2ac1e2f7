"""Classification of lattice 3-polytopes with exactly five lattice points.

Every size-5 configuration falls into one of finitely many families,
indexed by the signature of its unique affine dependence:

  (2,2)  single class, width 1
  (2,1)  one class per (p, q), 0 <= p <= q/2, gcd(p,q) = 1, width 1
  (3,2)  one class per (a, b), 0 < a <= b, gcd(a,b) = 1, width 1
  (3,1)  two classes: the unimodular one (width 1) and the volume-9
         class with dependence (-9,3,3,3,0) (width 2)
  (4,1)  eight sporadic classes, all width 2

The eleven sporadic classes are the concrete rows of data/size5.json;
each (4,1) representative has its first point as the unique interior
lattice point.  size5_class reads the family parameters off the volume
vector (and, for (2,1), the key of one ordered empty tetrahedron,
emptytetra._ordered_key), so it builds no family representative, and
names the sporadic classes through a row set of their eleven
representatives (equivalence.RowSet: the |volume| profile, eleven
distinct ones, then a witness map onto the row's first least-table
order).
admissible_apex_31 decides when an apex over the (3,1) circuit base
closes up without extra lattice points; classify6's case B uses it to
reject apex candidates.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd
from typing import Tuple

from .emptytetra import _ordered_key
from .equivalence import RowSet
from .exactlinalg import VerificationFailed
from .invariants import signature5, volume_vector5
from .polytope import PointConfig, holds_only_its_points
from .tablesdata import load_tables


class NotSize5(ValueError):
    """Raised when the hull does not have exactly five lattice points."""


class UnknownSize5Class(VerificationFailed):
    """Raised when a configuration that passed the gates fits no class."""


@dataclass(frozen=True)
class Size5Class:
    kind: str                      # "22" | "21" | "32" | "31u" | "31w2" | "41"
    params: Tuple[int, ...]        # family parameters, (k,) for the k-th (4,1) row
    width: int

    @property
    def label(self) -> str:
        return f"{self.kind}{self.params}" if self.params else self.kind

    @property
    def representative(self) -> PointConfig:
        """Built on request: it carries a family's q or b as a coordinate,
        so past the coordinate bound it raises the bound's ValueError."""
        if self.kind in ("21", "32"):
            return (rep21 if self.kind == "21" else rep32)(*self.params)
        return _sporadic()[self.kind, self.params][1]


#: Kind of each sporadic row of data/size5.json, by (signature, width).
_KINDS = {((2, 2), 1): "22", ((3, 1), 1): "31u", ((3, 1), 2): "31w2", ((4, 1), 2): "41"}


@lru_cache(maxsize=1)
def _sporadic() -> dict:
    """(class, representative) of each sporadic row of data/size5.json, in
    table order, by (kind, params); the k-th (4,1) row has params (k,)."""
    out = {}
    for row in load_tables().size5_rows:
        kind = _KINDS.get((tuple(row["signature"]), row["width"]))
        if kind is not None:  # the other rows are the (2,1) and (3,2) families
            params = (sum(k == "41" for k, _ in out) + 1,) if kind == "41" else ()
            cls = Size5Class(kind, params, row["width"])
            out[kind, params] = (cls, PointConfig(row["representative"]))
    return out


def rep21(p: int, q: int) -> PointConfig:
    if not (q >= 1 and 0 <= p <= q // 2 and (q == 1 or gcd(p, q) == 1)):
        raise ValueError(f"bad (2,1) parameters p={p}, q={q}")
    return PointConfig([(0, 0, 0), (1, 0, 0), (0, 0, 1), (-1, 0, 0), (p, q, 1)])


def rep32(a: int, b: int) -> PointConfig:
    if not (0 < a <= b and gcd(a, b) == 1):
        raise ValueError(f"bad (3,2) parameters a={a}, b={b}")
    return PointConfig([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (a, b, 1)])


def catalog41() -> Tuple[Size5Class, ...]:
    """The eight sporadic (4,1) classes."""
    return tuple(cls for cls, _ in _sporadic().values() if cls.kind == "41")


@lru_cache(maxsize=1)
def _sporadic_rows() -> RowSet:
    """The eleven sporadic classes as a row set, each under its class."""
    return RowSet(list(_sporadic().values()), UnknownSize5Class)


def classify5(config: PointConfig) -> Size5Class:
    """Identify the class of a size-5 configuration.

    Raises NotSize5 unless the configuration has five distinct points
    whose hull is full-dimensional with exactly five lattice points.

    The size is decided by polytope.holds_only_its_points, the emptiness
    of the cells of a fine triangulation, with no lattice point
    enumerated.
    """
    if len(config) != 5:
        raise NotSize5(f"need 5 points, got {len(config)}")
    if not config.is_full_dimensional():
        raise NotSize5("configuration is not full-dimensional")
    if not holds_only_its_points(config):
        raise NotSize5("hull contains extra lattice points")
    return size5_class(config)


def size5_class(config: PointConfig) -> Size5Class:
    """classify5 for a configuration that passed its gates.

    (2,1): the dependence is +-(-2q, q, q, 0, 0), so A (entry 2q) is the
    midpoint of B and E (entries q).  When (A, B, C, D) has the key
    (x, 1 mod q, q) (emptytetra._ordered_key) of (o, e1, e3, (x,q,1)), a
    unimodular map sends it there and E to -e1; (X,Y,Z) -> (Y-X,Y,Z)
    swaps e1 and -e1 and sends x to q - x.  (3,2): sorted |entries|
    (1, 1, a, b, a+b) force the dependence +-(-a-b, a, b, 1, -1), the
    pair balancing the triple.  The tetrahedron without E (entry -1) is
    unimodular, and mapping its points of entries -a-b, a, b, 1 to o, e1,
    e2, e3 sends E to (a, b, 1).  Other shapes, and configurations that
    _sporadic_rows names no row of, raise UnknownSize5Class.
    """
    sig = signature5(config)
    dep = volume_vector5(config)
    if sig == (2, 1):
        nonzero = sorted(abs(v) for v in dep if v)
        q = nonzero[-1] // 2
        if nonzero == [q, q, 2 * q]:
            a, b, _, c, d = sorted(range(5), key=lambda i: -abs(dep[i]))
            key = _ordered_key(*(config[i] for i in (a, b, c, d)))
            if key is not None and key[1] == 1 % q:
                return Size5Class("21", (min(key[0], q - key[0]), q), 1)
    elif sig == (3, 2):
        one, other_one, a, b, total = sorted(map(abs, dep))
        if (one, other_one, a + b) == (1, 1, total):
            return Size5Class("32", (a, b), 1)
    else:
        named = _sporadic_rows().name(config)
        if named is not None:
            return named[0]
    raise UnknownSize5Class(f"signature {sig}, volume vector {dep} fit no class")


# ---------------------------------------------------------------------------
# apex admissibility predicate


def admissible_apex_31(a: int, b: int) -> bool:
    """Apex (a,b,3) over conv{o, e1, e2, -e1-e2} traps no extra lattice
    points iff a = -b = +-1 (mod 3)."""
    return (a % 3, b % 3) in ((1, 2), (2, 1))
