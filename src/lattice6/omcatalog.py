"""Catalog of oriented matroids of six affine points spanning 3-space.

An acyclic rank-4 oriented matroid on six elements without parallel
elements dualizes to a totally cyclic rank-2 one, i.e. a planar vector
configuration: six vectors distributed over at least two lines through
the origin (some possibly at the origin itself — the duals of elements
whose five companions are coplanar), positively spanning the plane, and
with no line carrying four or more vectors (vectors at the origin count
on every line, which is what keeps the six primal points distinct).

Enumerating those configurations is elementary: a configuration is a
cyclic sequence of lines, each carrying (a_k, b_k) vectors on its two
rays, plus at most two origin vectors.  The circuits of the primal are
the cocircuits of the dual — one per line, supported on the off-line
elements, signed by side.  No vector needs coordinates: the lines are
met in increasing angle over a half-turn, so which side of line k a
vector lies on is read off its ray and whether its line comes before or
after k.  The circuits depend only on the sequence up to rotation and
reflection (the canonical dual), so they are computed once per
canonical dual, and each totally cyclic one gives one canonical circuit
form.  A record keeps its key and its canonical circuits only.  Vertex
counts, interior points, coplanarities and the dps property follow from
the circuits, through the positive cocircuits (the facets);
tests/omcatalog_oracles.py derives them that way to check the bundled
grid of cells, which is what the commands print.

There are exactly 55 such oriented matroids.  Records are keyed
"cN.MM" where N is the number of circuits and MM numbers the canonical
circuit forms within each N, in the order of one sort of the forms on
(circuit count, form).

The canonical circuit form is the lex-minimal sorted list of relabeled,
normalized circuits over all 720 permutations of the elements (the
standard canonical-form search; Bjorner-Las Vergnas-Sturmfels-White-
Ziegler, Oriented Matroids).  It is computed on 6-bit masks: a circuit
is a (positive, negative) mask pair, a permutation's place in the image
tables is one dict lookup, its image of a mask one table lookup, and
the normalized circuit key, an int ordered as the tuple key, one more.
A sorted key list starts with its least key, and the least key any
relabeling can make comes from a circuit with the least (smaller side,
larger side) sizes (s, t), its smaller side sent onto {0..s-1} and its
other side onto {s..s+t-1} (either side first when s == t).  Only those
relabelings can reach the minimum, so only they are tried: at most 96
for the 55 records, against 720 for a full search, which stays the
worst case.  A configuration costs #candidates x #circuits lookups and
#candidates sorts of small ints.

Whether a configuration has one given record needs no canonical form.
The chirotope of six points is the tuple of the signs of their volumes,
the det4 of the 15 quadruples of combinations(range(6), 4): the first
half of the configuration's volume table (PointConfig.volumes()), whose
second half holds their negatives.  A relabeling only permutes those
volumes and flips the signs of some, so the chirotope of a relabeled
configuration is read off the table through exactlinalg._relabelings,
with no det4.  A rank-4 oriented matroid is fixed by its chirotope up to
a global sign (Bjorner et al., Oriented Matroids, ch. 3): the circuits
are read off the signs, and the signs off the circuits.  So two
configurations share a record exactly when some relabeling sends the
chirotope of one to plus or minus that of the other; the embedding
searches of classify6 fix the relabeling by the points' roles and
compare four chirotopes, and tests/omcatalog_oracles.py keeps the orbit
of all 720 relabelings as their oracle.  match_circuits stays the
general path, for any configuration and any record.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Optional, Sequence, Set, Tuple

from .exactlinalg import VerificationFailed
from .invariants import SignedCircuit


class NoMatch(VerificationFailed):
    """A configuration's circuits match no catalog record (catalog bug)."""


# ---------------------------------------------------------------------------
# canonical forms


@lru_cache(maxsize=1)
def _circuit_tables():
    """Subset image tables, pair keys and ranked subsets, built on first
    use: a process that never takes a canonical circuit form (classify,
    or analyze of a table row) never pays for them.

    A subset of range(6) is a 6-bit mask.  Subsets are ranked in the lex
    order of their sorted tuples, so a circuit (positive, negative) gets
    the int key rank[positive] * 64 + rank[negative], and ints compare as
    the tuple keys do.  The pair table holds that key at index
    positive << 6 | negative for each pair of disjoint masks, sides
    swapped first when the lowest element lies on the negative side.
    images[m] holds the image mask of m under each of the 720
    permutations, in itertools.permutations order, built from the images
    of m's low bit and of the rest; index maps each permutation, a tuple,
    to its place in that order.  Sizes: 64 x 720 bytes, 4096 keys, 720
    index entries.
    """
    ranked = sorted(
        (tuple(e for e in range(6) if m >> e & 1) for m in range(64))
    )
    rank = {sum(1 << e for e in sub): r for r, sub in enumerate(ranked)}
    pair = [None] * 4096
    for pos in range(64):
        for neg in range(64):
            if pos & neg == 0:
                low = (pos | neg) & -(pos | neg)
                p, n = (neg, pos) if low & neg else (pos, neg)
                pair[pos << 6 | neg] = rank[p] * 64 + rank[n]
    perms = list(itertools.permutations(range(6)))
    index = {perm: k for k, perm in enumerate(perms)}
    images = [bytes(len(perms))]
    for m in range(1, 64):
        low = m & -m
        if m == low:
            e = low.bit_length() - 1
            images.append(bytes(1 << perm[e] for perm in perms))
        else:
            images.append(bytes(x | y for x, y in zip(images[m ^ low], images[low])))
    return images, pair, ranked, index


def _masks(c: SignedCircuit) -> Tuple[int, int]:
    """A circuit's (positive, negative) sides as 6-bit masks."""
    return sum(1 << e for e in c.positive), sum(1 << e for e in c.negative)


def _first_key_relabelings(sides: Sequence[Tuple[int, int]]) -> Set[Tuple[int, ...]]:
    """The relabelings whose smallest circuit key is the least achievable:
    only they can reach the minimal form.

    A relabeled circuit's key starts with the rank of the side holding the
    lowest element, and the least rank of an s-subset is that of
    {0..s-1}, which grows with s; the other side's least rank is then that
    of {s..s+t-1}, which grows with t.  So the least key is reached by
    sending a circuit with the least (smaller side, larger side) sizes
    (s, t) onto those blocks, its smaller side first, either side when
    s == t, and its other elements onto the rest.
    """
    s, t = min(sorted((pos.bit_count(), neg.bit_count())) for pos, neg in sides)
    labelings = list(itertools.product(
        itertools.permutations(range(s)),
        itertools.permutations(range(s, s + t)),
        itertools.permutations(range(s + t, 6)),
    ))
    perms = set()
    for pos, neg in sides:
        for small, large in ((pos, neg), (neg, pos)):
            if (small.bit_count(), large.bit_count()) != (s, t):
                continue
            rest = 63 ^ small ^ large
            order = [e for m in (small, large, rest) for e in range(6) if m >> e & 1]
            for head, mid, tail in labelings:
                perm = [0] * 6
                for e, v in zip(order, head + mid + tail):
                    perm[e] = v
                perms.add(tuple(perm))
    return perms


def canonical_circuit_form(circs: Sequence[SignedCircuit]) -> Tuple:
    """Lex-minimal relabeled circuit list, as (positive, negative) pairs.

    Only the relabelings of _first_key_relabelings are tried.
    Each circuit is a pair of 6-bit masks; its normalized key under a
    relabeling is read off the image and pair tables, so the cost is
    #candidates x #circuits lookups plus #candidates sorts of #circuits
    small ints, at most 720 of each.
    """
    images, pair, ranked, index = _circuit_tables()
    sides = [_masks(c) for c in circs]
    ranks = [index[perm] for perm in _first_key_relabelings(sides)]
    columns = []
    for pos, neg in sides:
        ip, ineg = images[pos], images[neg]
        columns.append([pair[ip[k] << 6 | ineg[k]] for k in ranks])
    best = min(sorted(keys) for keys in zip(*columns))
    return tuple((ranked[k >> 6], ranked[k & 63]) for k in best)


def _canonical_dual(lines, loops):
    """Canonical form of a cyclic line sequence under rotations/reflections.

    A rotation by one line moves the first line to the end with its rays
    swapped, so the 2n rotations of n lines are the length-n windows of
    the sequence followed by its ray-swapped copy, doubled; the same
    windows of its reflection give the others."""
    seq = tuple(lines)
    n = len(seq)
    refl = seq[:1] + tuple((b, a) for a, b in reversed(seq[1:]))
    cands = []
    for start in (seq, refl):
        ring = (start + tuple((b, a) for a, b in start)) * 2
        cands.extend(ring[k:k + n] for k in range(2 * n))
    return (min(cands), loops)


# ---------------------------------------------------------------------------
# dual enumeration


def _dual_circuits(lines) -> Optional[Tuple[SignedCircuit, ...]]:
    """Primal circuits of the configuration described by a dual's line
    sequence, or None if the dual is not totally cyclic.

    The elements on the lines are numbered in line order, positive ray
    first; the origin vectors (loops) come last and lie in no circuit.
    The lines are met in increasing angle over a half-turn, so a vector
    on line j lies on the positive side of line k != j exactly when it
    points along its line's positive ray and j > k, or along the negative
    ray and j < k.
    """
    rays = [(j, sign) for j, (a, b) in enumerate(lines) for sign in (1,) * a + (-1,) * b]
    out = []
    for k in range(len(lines)):
        pos, neg = [], []
        for e, (j, sign) in enumerate(rays):
            if j != k:
                (pos if (j > k) == (sign > 0) else neg).append(e)
        if not pos or not neg:
            return None  # a closed halfplane contains every vector
        if min(pos + neg) in neg:
            pos, neg = neg, pos
        out.append(SignedCircuit(tuple(pos), tuple(neg)))
    return tuple(sorted(out, key=lambda c: (c.support, c.key())))


def _line_sequences(per_line, n_lines, total):
    """Sequences of n_lines entries of per_line carrying total vectors,
    in itertools.product order; every entry carries at least one."""
    if n_lines == 0:
        if total == 0:
            yield ()
        return
    for entry in per_line:
        rest = total - entry[0] - entry[1]
        if rest >= n_lines - 1:
            for tail in _line_sequences(per_line, n_lines - 1, rest):
                yield (entry,) + tail


def _iter_duals():
    for loops in (0, 1, 2):
        cap = 3 - loops
        total = 6 - loops
        per_line = [
            (a, s - a) for s in range(1, cap + 1) for a in range(s + 1)
        ]
        for n_lines in range(2, 7):
            for combo in _line_sequences(per_line, n_lines, total):
                yield combo, loops


# ---------------------------------------------------------------------------
# records


@dataclass(frozen=True)
class OMRecord:
    key: str
    circuits: Tuple[SignedCircuit, ...]  # canonical form, elements 0..5


@lru_cache(maxsize=1)
def enumerate_oms() -> Tuple[OMRecord, ...]:
    """All 55 oriented matroids, sorted by (circuit count, canonical form).

    The line sequences come up to rotation and reflection: each canonical
    dual's circuits are computed once, None for the duals that are not
    totally cyclic, and each totally cyclic one gives one canonical
    circuit form.  Record cN.MM is the MM-th form with N circuits.
    """
    by_dual = {}
    for lines, loops in _iter_duals():
        key = _canonical_dual(lines, loops)
        if key not in by_dual:
            by_dual[key] = _dual_circuits(lines)
    forms = sorted({canonical_circuit_form(circs) for circs in by_dual.values() if circs},
                   key=lambda form: (len(form), form))
    return tuple(
        OMRecord(key=f"c{n}.{m:02d}", circuits=tuple(SignedCircuit(pos, neg) for pos, neg in form))
        for n, group in itertools.groupby(forms, key=len)
        for m, form in enumerate(group, 1)
    )


@lru_cache(maxsize=1)
def _catalog_index() -> Dict[Tuple, OMRecord]:
    return {
        tuple(c.key() for c in rec.circuits): rec for rec in enumerate_oms()
    }


def match_circuits(circs: Sequence[SignedCircuit]) -> OMRecord:
    """Catalog record of a 6-point configuration, from its circuits.

    Raises NoMatch if the circuits match no record, which would mean the
    catalog itself is incomplete.
    """
    form = canonical_circuit_form(circs)
    rec = _catalog_index().get(form)
    if rec is None:
        raise NoMatch(f"circuits {form} not in catalog")
    return rec


# ---------------------------------------------------------------------------
# chirotopes


def chirotope(volumes: Sequence[int]) -> Tuple[int, ...]:
    """Signs (-1, 0 or 1) of the first 15 entries of a six-point volume
    table: the chirotope of the configuration whose table it is
    (PointConfig.volumes()), or of a relabeling of it, read through
    exactlinalg._relabelings."""
    return tuple([(d > 0) - (d < 0) for d in volumes[:15]])
