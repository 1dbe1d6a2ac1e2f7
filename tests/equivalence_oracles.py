"""The unpruned canonical normal form, kept as a test oracle for
equivalence.normal_form; key_orders, the library's pruned normal form
with the ordered quadruples that reach its key, which
equivalence.normal_form no longer lists; canonical_key, the key alone;
and the naming of
stored rows by canonical key, kept as a test oracle for the row sets
(equivalence.RowSet) of the 76 table rows and of the eleven sporadic
size-5 classes.

The library builds a sorted barycentric table only for the vertex orders
whose first row off the quadruple can be least.  This is the search it
replaced: for each ordered quadruple of maximal |volume|, all 24 vertex
orders get a table, and a Hermite form is taken for the orders whose
table is least.  It returns the same key and the same order list, in the
same order.

The key naming looks config's normal_form key up among the keys of the
76 rows, which are complete and so pairwise distinct, and checks a
witness map from config's first key order onto the row's key orders:
equal keys without a witness are a failure of the maps.  It is the
naming that the table stage (V, the least table and its orders) and one
witness replaced.  The sporadic size-5 classes were named the same way,
by the canonical key of the input among those of their eleven
representatives, with no witness.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from operator import itemgetter
from typing import List, Optional, Tuple

from lattice6.equivalence import Key, _least_orders, _witnesses, normal_form
from lattice6.exactlinalg import _adjugate, _mat_vec, _quadruples, edge_form, sub
from lattice6.polytope import NotFullDimensional, PointConfig
from lattice6.size5 import Size5Class, _sporadic
from lattice6.tablesdata import load_tables

#: Per order of a quadruple's labels 0-3, the getter of its last three
#: barycentric numerators.
_ORDERS = [(order, itemgetter(*order[1:])) for order in itertools.permutations(range(4))]


def canonical_key(config: PointConfig) -> Key:
    """Complete invariant (table, H) of 4..8 points: normal_form's key.

    Raises NotFullDimensional for a configuration of affine rank < 4.
    """
    return normal_form(config)


def key_orders(config: PointConfig) -> Tuple[Key, List[Tuple[int, ...]]]:
    """normal_form's key of config and its key orders: the least-table
    orders (equivalence._least_orders) whose Hermite form is the least,
    in the order _least_orders lists them."""
    top = config.top_volume()
    least, orders = _least_orders(config, top)
    pts = config.points
    forms = {order: edge_form([pts[i] for i in order]) for order in orders}
    h = min(forms.values())
    table = tuple(sorted(least + ((0, 0, 0), (top, 0, 0), (0, top, 0), (0, 0, top))))
    return (table, h), [order for order, form in forms.items() if form == h]


def all_orders_normal_form(config: PointConfig) -> Tuple[Key, List[Tuple[int, ...]]]:
    """canonical_key of config and the ordered index quadruples reaching it."""
    pts = config.points
    vols = dict(zip(_quadruples(len(pts)), config.volumes()))
    top = max(map(abs, vols.values()))
    if top == 0:
        raise NotFullDimensional("configuration spans no 3-dimensional volume")
    tables = {}
    for quad, vol in vols.items():
        if abs(vol) != top:
            continue
        q0 = pts[quad[0]]
        e = tuple(zip(*(sub(pts[i], q0) for i in quad[1:])))
        adj = _adjugate(e)
        if vol < 0:
            adj = tuple(tuple(-x for x in row) for row in adj)
        coords = []
        for p in pts:
            l1, l2, l3 = _mat_vec(adj, sub(p, q0))
            coords.append((top - l1 - l2 - l3, l1, l2, l3))
        for order, last3 in _ORDERS:
            tables[tuple(quad[i] for i in order)] = tuple(sorted(map(last3, coords)))
    least = min(tables.values())
    forms = {
        order: edge_form([pts[i] for i in order])
        for order, table in tables.items() if table == least
    }
    h = min(forms.values())
    return (least, h), [order for order, form in forms.items() if form == h]


@lru_cache(maxsize=1)
def row_key_index():
    """(row, config, key orders) by the normal_form key of each table row;
    two rows of one key would be one class listed twice."""
    index = {}
    for row in load_tables().class_rows:
        cfg = row.config()
        key, orders = key_orders(cfg)
        if index.setdefault(key, (row, cfg, orders))[0] is not row:
            raise AssertionError(f"{index[key][0].id} and {row.id} coincide")
    return index


def key_named_row(config: PointConfig) -> Optional[str]:
    """Id of the row whose normal_form key config has, or None; the key's
    witness must exist, from config's first key order onto the row's."""
    if len(config) != 6 or not config.is_full_dimensional():
        return None
    key, orders = key_orders(config)
    row, rep, row_orders = row_key_index().get(key, (None, None, None))
    if row is not None and next(_witnesses(config, orders[:1], rep, row_orders), None) is None:
        raise AssertionError(f"{row.id}: witness is not equivalent")
    return None if row is None else row.id


@lru_cache(maxsize=1)
def sporadic_key_index():
    """The eleven sporadic size-5 classes by the canonical key of their
    representative."""
    return {canonical_key(rep): cls for cls, rep in _sporadic().values()}


def key_named_sporadic(config: PointConfig) -> Optional[Size5Class]:
    """The sporadic size-5 class whose representative has config's
    canonical key, or None."""
    return sporadic_key_index().get(canonical_key(config))
