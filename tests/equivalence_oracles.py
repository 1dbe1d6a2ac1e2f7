"""The unpruned canonical normal form, kept as a test oracle for
equivalence.normal_form.

The library builds a sorted barycentric table only for the vertex orders
whose first row off the quadruple can be least.  This is the search it
replaced: for each ordered quadruple of maximal |volume|, all 24 vertex
orders get a table, and a Hermite form is taken for the orders whose
table is least.  It returns the same key and the same order list, in the
same order.
"""

from __future__ import annotations

import itertools
from operator import itemgetter
from typing import List, Tuple

from lattice6.equivalence import Key
from lattice6.exactlinalg import _adjugate, _mat_vec, _quadruples, edge_form, sub
from lattice6.polytope import NotFullDimensional, PointConfig

#: Per order of a quadruple's labels 0-3, the getter of its last three
#: barycentric numerators.
_ORDERS = [(order, itemgetter(*order[1:])) for order in itertools.permutations(range(4))]


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
