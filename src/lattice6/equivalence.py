"""Unimodular (Z-) equivalence of lattice point configurations.

Two configurations are equivalent when an integer affine map with
determinant +-1 sends one point set onto the other.  normal_form gives a
complete key of 4..8 points (equal keys iff equivalent), after
Grinis-Kasprzyk (arXiv:1301.6641) and PALP (math/0204356).

An equivalence permutes the ordered quadruples of maximal |det4| = V
among themselves.  For one such quadruple (q0..q3), every point p has
barycentric coordinates lambda / V with integer lambda (V e_i at q_i),
which no affine bijection changes: by Cramer's rule, lambda_i is det4 of
the quadruple with p in place of q_i, times the sign of the quadruple's
volume, so it is an entry of the configuration's volume table, read at
its slot (_slots).  And
the edge matrix E (columns q_i - q0) has a row Hermite normal form H,
which a map changes exactly when it is not unimodular.  If two ordered
quadruples share the sorted table of (lambda_1, lambda_2, lambda_3) over
all points and H, the affine map between them is unimodular and carries
one point set onto the other.  So the key is the least (table, H) over
those quadruples.  The tables of the 24 orders of one quadruple permute
the columns of one table, so a 3x3 Hermite form is taken only for the
orders whose table is least.  normal_form returns the key alone; the
orders that reach it, the images of any one of them under the
symmetries of the configuration, are listed by a test oracle
(tests/equivalence_oracles.py).

The witness search needs only V, the maximum of the volume table
(PointConfig.top_volume), and the table stage, _least_orders: the least
table and the orders that read it.  V is compared first, so two
configurations of different V build no table.
Barycentric numerators are affine invariants, so every equivalence
a -> b sends a's least-table orders onto b's, and the witnesses are
among the affine maps from a's first least-table order onto each of
b's.  A map between two orders whose Hermite forms differ is exactly
one that is not integral unimodular, which unimodular_map rejects, and
the point check rejects the maps that do not send a onto b.  So the
witnesses, and the least of them, are those that the maps between key
orders give, and equivalence_witness builds no Hermite form.  Nor do
symmetries, the witnesses of a configuration onto itself, and RowSet,
the one naming of a configuration against stored rows (the 76 table
rows, the sporadic size-5 classes): a gate on the |volume| profile, then
per row the maps from the configuration's orders that read the row's R*
(below) onto the row's first least-table order: every equivalence onto
the row sends one of those orders onto that one, so a witness is found
with no table of the configuration's.  Only RowSet's miss path, a row
that gave no witness although an order read its R*, takes the
configuration's least table and normal forms.

A table is sorted only for the orders that can reach the least one.
Under every order the quadruple's own points give the same four rows,
(0,0,0), (V,0,0), (0,V,0) and (0,0,V).  Of two different sorted
sequences of equal length, the one holding the least element of their
multiset symmetric difference is lexicographically smaller, and adding
the same rows to both leaves that difference as it was; so tables
compare exactly as the sorted rows of the points off the quadruple do,
and the vertex rows are written down, not computed.  The first such row of the least table is R*, the least over
maximal quadruples and points off them of the point's three smallest
numerators in ascending order; only an order that reads R* off one of
those points can reach the least table (_reading lists them, for
_least_orders and RowSet.name alike; which orders read a point's three
least numerators in ascending order depends only on the ranks of its
four, _reads_least).  Four points leave no point off
the quadruple, and all 24 orders stay candidates.  The candidates keep
the (quadruple, order) order of the full search, so the orders that
reach the key come out in the same order.
"""

from __future__ import annotations

import itertools
from functools import cached_property, lru_cache
from operator import itemgetter
from typing import Dict, Hashable, Iterator, List, Optional, Sequence, Tuple, Type

from .exactlinalg import (
    AffineMap,
    IntVec3,
    _quadruples,
    _slots,
    edge_form,
    unimodular_map,
)
from .polytope import PointConfig

Key = Tuple[Tuple[IntVec3, ...], Tuple[IntVec3, IntVec3, IntVec3]]

#: Per order of a quadruple's labels 0-3, the getter of its last three
#: barycentric numerators.
_ORDERS = [(order, itemgetter(*order[1:])) for order in itertools.permutations(range(4))]


def _table(last3, rows) -> Tuple[IntVec3, ...]:
    """The sorted rows of one vertex order: one call per table built."""
    return tuple(sorted(map(last3, rows)))


def _maximal_rows(config: PointConfig, top: int) -> List[tuple]:
    """Per quadruple of |volume| top, the maximal one, in _quadruples
    order: the sorted quadruple, the rows of the points off it and each
    row's three least entries in ascending order.  A row is a point's
    numerators over the quadruple, det4 with the point in place of each
    vertex (_slots), times the sign of the quadruple's volume."""
    vols = config.volumes()
    slots = _slots(len(config))
    quads = []
    for quad, vol in zip(_quadruples(len(config)), vols):
        if vol != top and vol != -top:
            continue
        a, b, c, d = quad
        s = 1 if vol > 0 else -1
        # the quadruple's own rows are the same under every order
        off = [(s * vols[slots[i, b, c, d]], s * vols[slots[a, i, c, d]],
                s * vols[slots[a, b, i, d]], s * vols[slots[a, b, c, i]])
               for i in range(len(config)) if i not in quad]
        quads.append((quad, off, [tuple(sorted(row)[:3]) for row in off]))
    return quads


@lru_cache(maxsize=None)
def _reads_least(ranks: Tuple[int, ...]) -> Tuple[Tuple[Tuple[int, ...], itemgetter], ...]:
    """The entries of _ORDERS under which a row whose entries have the
    ranks (each entry's index in the sorted row, so at most 4^4 keys)
    reads its three least entries, in ascending order, as its last three
    numerators."""
    least = tuple(sorted(ranks)[:3])
    return tuple((order, last3) for order, last3 in _ORDERS if last3(ranks) == least)


def _reading(maximal, first) -> Iterator[Tuple[Tuple[int, ...], itemgetter, list]]:
    """(ordered index quadruple, getter of its last three numerators, the
    rows off its quadruple) for each order of a maximal quadruple
    (_maximal_rows) that reads first, an ascending triple, as the last
    three numerators of a point off the quadruple whose three least
    entries are first; in (quadruple, order) order, and every order when
    no point is off the quadruple."""
    for quad, off, lows in maximal:
        reads = sorted({read for row, low in zip(off, lows) if low == first
                        for read in _reads_least(tuple(map(sorted(row).index, row)))})
        for order, last3 in reads if off else _ORDERS:
            yield tuple([quad[i] for i in order]), last3, off


def _least_orders(config: PointConfig, top: int) -> Tuple[Tuple[IntVec3, ...], List[Tuple[int, ...]]]:
    """The least table of the rows off a quadruple of |volume| top, the
    maximal one, and the ordered index quadruples that read it: only the
    orders that read R* (_reading) can."""
    maximal = _maximal_rows(config, top)
    # R*, the least first row off the quadruple of any table; None for four points
    first = min((low for _, _, lows in maximal for low in lows), default=None)
    tables = {order: _table(last3, off) for order, last3, off in _reading(maximal, first)}
    least = min(tables.values())
    return least, [order for order, table in tables.items() if table == least]


def normal_form(config: PointConfig) -> Key:
    """The key (table, H) of config; see the module docstring.  A Hermite
    form is taken only for the orders of the least table.

    Raises NotFullDimensional for a configuration of affine rank < 4.
    """
    top = config.top_volume()
    least, orders = _least_orders(config, top)
    pts = config.points
    h = min(edge_form([pts[i] for i in order]) for order in orders)
    return tuple(sorted(least + ((0, 0, 0), (top, 0, 0), (0, top, 0), (0, 0, top)))), h


def equivalence_witness(
    a: PointConfig, b: PointConfig
) -> Optional[Tuple[Tuple[int, ...], AffineMap]]:
    """Permutation and integer unimodular map with map(a[i]) = b[perm[i]].

    Returns None when the configurations are not equivalent.  The witness
    is the lexicographically first valid permutation; determinant -1 maps
    count as equivalences.  Only V and the table part of the key are
    compared, V first and from the volumes alone: barycentric numerators
    are affine invariants, so every witness sends a's first least-table
    order onto one of b's, and one integer solve per least-table order of
    b lists them all.  No Hermite form is needed, since a map between
    orders whose Hermite forms differ is not integral unimodular and
    unimodular_map rejects it.  Each map is checked to be unimodular and
    to send a onto b, so equal tables alone never yield a witness.
    """
    if len(a) != len(b):
        return None
    top = a.top_volume()
    if b.top_volume() != top:
        return None
    table_a, orders_a = _least_orders(a, top)
    table_b, orders_b = _least_orders(b, top)
    if table_a != table_b:
        return None
    return min(_witnesses(a, orders_a[:1], b, orders_b), key=itemgetter(0), default=None)


def _witnesses(
    a: PointConfig, orders_a: List[Tuple[int, ...]], b: PointConfig, orders_b: List[Tuple[int, ...]]
) -> Iterator[Tuple[Tuple[int, ...], AffineMap]]:
    """The witnesses (perm, map) of a -> b, at most one per pair of an
    order of orders_a and one of orders_b, in that (product) order: map
    is unimodular_map's integral unimodular map from a's points in the
    first order onto b's in the second, kept when it sends every point of
    a onto one of b, map(a[i]) = b[perm[i]].  This is the only place
    where orders become maps."""
    pa, pb = a.points, b.points
    where = {p: j for j, p in enumerate(pb)}
    for order_a in orders_a:
        src = [pa[i] for i in order_a]
        for order in orders_b:
            m = unimodular_map(src, [pb[j] for j in order])
            if m is None:
                continue
            perm = tuple([where.get(m.apply(p)) for p in pa])
            if None not in perm:
                yield perm, m


def symmetries(config: PointConfig) -> List[Tuple[Tuple[int, ...], AffineMap]]:
    """The symmetries config -> config as witnesses (perm, map), from
    config's first least-table order onto each of its least-table orders:
    every symmetry sends the first onto one of them, and two symmetries
    that send it onto the same order are one map, so each is listed once.
    There can be fewer symmetries than least-table orders.

    Raises NotFullDimensional for a configuration of affine rank < 4.
    """
    _, orders = _least_orders(config, config.top_volume())
    return list(_witnesses(config, orders[:1], config, orders))


def _profile(config: PointConfig) -> Tuple[int, ...]:
    """The sorted |volume| of config's quadruples, an invariant of
    unimodular maps and relabelings: the first half of its volume table,
    one entry per quadruple, so configurations of different sizes never
    share one, and a flat one has all zeros."""
    vols = config.volumes()
    return tuple(sorted(map(abs, vols[:len(vols) // 2])))


class RowSet:
    """Stored configurations, the rows, each under an id, and the naming of
    a configuration by the row it is an image of.

    Construction reads only the rows' volumes, into the gate: the rows by
    _profile, whose last entry is V, so the rows of one profile share it.
    The first lookup that passes the gate builds every row's least table
    and its orders (_stages).  error is the type raised when the rows or
    the maps fail: the callers' failures differ (a failed check of the
    classification, a size-5 miss), so it is the caller's.
    """

    def __init__(self, rows: Sequence[Tuple[Hashable, PointConfig]], error: Type[Exception]):
        self.error = error
        self.gate: Dict[Tuple[int, ...], List[Tuple[Hashable, PointConfig]]] = {}
        for rid, cfg in rows:
            self.gate.setdefault(_profile(cfg), []).append((rid, cfg))

    @cached_property
    def _stages(self) -> Dict[Hashable, Tuple[tuple, List[Tuple[int, ...]]]]:
        """(least table, least-table orders) by row id, with no Hermite
        form.  Rows of different profiles are inequivalent; two rows of
        one profile that equivalence_witness joins would be one class
        listed twice, so they raise error."""
        stages = {}
        for rows in self.gate.values():
            for k, (rid, cfg) in enumerate(rows):
                stages[rid] = _least_orders(cfg, cfg.top_volume())
                for other, earlier in rows[:k]:
                    if equivalence_witness(earlier, cfg) is not None:
                        raise self.error(f"{other} and {rid} coincide")
        return stages

    def name(self, config: PointConfig) -> Optional[Tuple[Hashable, PointConfig, tuple]]:
        """(id, rep, (perm, map)) of the row rep that config is an image
        of, map(config[i]) = rep[perm[i]]; None when there is none.

        config's profile must be a row's (gate), which fixes V.  Then,
        per row of its profile, config's orders that read the row's R*,
        the first row of its least table, off a point off a maximal
        quadruple (_reading) are mapped onto the row's first least-table
        order, and the first map onto the row's points names it (a
        witness, _witnesses).  Every equivalence sends least-table orders
        onto least-table orders, so the preimage of the row's first order
        is among them, and an equivalent row always gives a witness with
        no table of config's and no Hermite form.  A row that gave none
        is checked on the miss path alone: if config's least table is the
        row's and so is its normal-form key, the maps have failed, and
        error is raised."""
        rows = self.gate.get(_profile(config))
        if rows is None:
            return None
        top = config.top_volume()
        maximal = _maximal_rows(config, top)
        for rid, rep in rows:
            table, rep_orders = self._stages[rid]
            orders = [order for order, _, _ in _reading(maximal, table[0] if table else None)]
            witness = next(_witnesses(config, orders, rep, rep_orders[:1]), None)
            if witness is not None:
                return rid, rep, witness
            # with no order reading R*, no table of config's is the row's
            if (orders and _least_orders(config, top)[0] == table
                    and normal_form(config) == normal_form(rep)):
                raise self.error(f"{rid}: witness is not equivalent")
        return None
