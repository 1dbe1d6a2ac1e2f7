"""Seeded inputs, operations and output checks of the three workloads.

Input generation reads only the bundled data files (not the package's
code) and a seed, so the same seed always yields the same point files.
Expected answers come from the table rows the inputs were made from and
from the oracles in ``oracles.py``; no stored output of the program is
used as a check.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from math import gcd
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import oracles

Point = Tuple[int, int, int]

#: Class counts per case as published with the classification.
PUBLISHED_CASE_COUNTS = (
    ("A", 2), ("B", 15), ("C", 6), ("D", 2), ("E", 2), ("F", 17), ("G", 20), ("H", 12),
)

#: Inequivalent table rows whose |volume| multisets agree, so the
#: program's prefilter lets them through to the full relabeling search.
PREFILTER_TWINS = (("G.5", "G.12"), ("G.6", "G.9"))

#: Per-operation deadline of the far-coordinate analyze inputs, seconds.
FAR_DEADLINE_S = 0.5

#: Coordinate bound the program's parser accepts.
COORD_BOUND = 10**4


@dataclass
class Op:
    """One CLI call: its files, its expected answer and an optional deadline."""

    name: str
    command: str                      # "analyze" or "equiv"
    configs: Tuple[Tuple[Point, ...], ...]
    expect: Dict[str, object]
    deadline: Optional[float] = None
    paths: List[str] = field(default_factory=list)


# ---------------------------------------------------------------------------
# bundled data, read as plain JSON


def load_data(src_dir: Path):
    """Class rows and concrete size-5 rows from the package's data files."""
    data = src_dir / "lattice6" / "data"
    classes = json.loads((data / "classes76.json").read_text())["payload"]["classes"]
    size5 = json.loads((data / "size5.json").read_text())["payload"]["rows"]
    rows = [
        {
            "id": r["id"],
            "width": r["width"],
            "points": tuple(tuple(p) for p in r["representative"]),
        }
        for r in classes
    ]
    return rows, size5


def size5_sources(size5_rows, rng: random.Random):
    """(label, width, points) for every concrete size-5 row plus two seeded
    members of each infinite family, with the program's label spelling."""
    out = []
    n41 = 0
    for row in size5_rows:
        sig = tuple(row["signature"])
        if "representative" not in row:
            continue
        pts = tuple(tuple(p) for p in row["representative"])
        if sig == (2, 2):
            label = "22"
        elif sig == (3, 1):
            label = "31u" if max(abs(v) for v in row["volume_vector"]) == 3 else "31w2"
        else:
            n41 += 1
            label = f"41({n41},)"
        out.append((label, row["width"], pts))
    for _ in range(2):
        q = rng.randrange(2, 13)
        p = rng.choice([p for p in range(1, q // 2 + 1) if gcd(p, q) == 1])
        out.append((f"21({p}, {q})", 1, ((0, 0, 0), (1, 0, 0), (0, 0, 1), (-1, 0, 0), (p, q, 1))))
    for _ in range(2):
        vol = rng.randrange(3, 14)
        a = rng.choice([a for a in range(1, vol // 2 + 1) if gcd(a, vol - a) == 1])
        out.append((f"32({a}, {vol - a})", 1, ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (a, vol - a, 1))))
    return out


# ---------------------------------------------------------------------------
# unimodular images


def random_map(rng: random.Random, steps: int):
    """Random integer affine map of determinant +-1: shears of factor up to
    3, a swap, a sign flip, and a translation of up to 5 per coordinate."""
    m = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    for _ in range(steps):
        i, j = rng.sample(range(3), 2)
        k = rng.randint(-3, 3)
        for c in range(3):
            m[i][c] += k * m[j][c]
    if rng.random() < 0.5:
        i, j = rng.sample(range(3), 2)
        m[i], m[j] = m[j], m[i]
    if rng.random() < 0.5:
        i = rng.randrange(3)
        m[i] = [-x for x in m[i]]
    t = tuple(rng.randint(-5, 5) for _ in range(3))
    return m, t


def apply(m, t, points) -> Tuple[Point, ...]:
    return tuple(
        tuple(sum(m[r][c] * p[c] for c in range(3)) + t[r] for r in range(3)) for p in points
    )


def image_near_volume(rng: random.Random, points, target: float):
    """Unimodular image, of up to 4000 random ones, whose bounding box is
    closest to target (in log), stopping early inside a +-5% window; the
    points come out shuffled."""
    best, best_err = None, None
    for _ in range(4000):
        m, t = random_map(rng, rng.randint(0, 10))
        img = apply(m, t, points)
        if max(abs(c) for p in img for c in p) > COORD_BOUND:
            continue
        err = abs(math.log(oracles.box_volume(img) / target))
        if best is None or err < best_err:
            best, best_err = img, err
        if err < math.log(1.05):
            break
    pts = list(best)
    rng.shuffle(pts)
    return tuple(pts)


def unrank_permutation(rank: int, n: int) -> Tuple[int, ...]:
    """The permutation of range(n) at the given lexicographic rank."""
    items = list(range(n))
    out = []
    for k in range(n - 1, -1, -1):
        f = math.factorial(k)
        out.append(items.pop(rank // f))
        rank %= f
    return tuple(out)


# ---------------------------------------------------------------------------
# analyze


#: Target box volumes above the log-spaced body of the analyze workload:
#: a cluster of TAIL_CLUSTER images at TAIL_VOLUME lattice points, and the
#: largest boxes.  With the three far inputs above them, the tail percentile
#: (the 90th of a round's 100 latencies) falls in the middle of the cluster,
#: not on the steep edge between the body and the largest boxes, where a
#: seed's change in box size moved it by a quarter.
TAIL_CLUSTER = 11
TAIL_VOLUME = 2 * 10**4
LARGEST_VOLUMES = (5 * 10**4, 10**5)


def _volume_grid(n: int) -> List[float]:
    """n target box volumes: the tail cluster, the largest boxes, and the
    rest log-spaced over 10^2..10^4."""
    n_body = n - TAIL_CLUSTER - len(LARGEST_VOLUMES)
    body = [10 ** (2 + 2 * (k + 0.5) / n_body) for k in range(n_body)]
    return body + [TAIL_VOLUME] * TAIL_CLUSTER + list(LARGEST_VOLUMES)


#: Fixed far-coordinate map: unimodular, entries up to ~2400, so the images
#: keep their normalized volume but have boxes of 2*10^9 to 10^10 points.
_FAR_MAP = ([[1, -33, 58], [22, -725, 1291], [27, -835, 2407]], (100, 2000, 1000))


def _far_ops(rows, s5, counts_of) -> List[Op]:
    m, t = _FAR_MAP
    row = next(r for r in rows if r["id"] == "H.12")
    label, w5, p5 = next(s for s in s5 if s[0] == "41(1,)")
    tet = ((0, 0, 0), (1, 0, 0), (0, 0, 1), (2, 5, 1))
    srcs = [
        ("far:H.12", row["points"], {"class": "H.12", "width": row["width"]}),
        ("far:41(1,)", p5, {"size5": label, "width": w5}),
        ("far:T(2,5)", tet, {"white": (2, 5), "width": 1}),
    ]
    ops = []
    for name, pts, expect in srcs:
        img = apply(m, t, pts)
        if max(abs(c) for p in img for c in p) > COORD_BOUND:
            raise AssertionError(f"{name}: far image leaves the parser's bound")
        ops.append(Op(name, "analyze", (img,), {**expect, **counts_of(pts)}, FAR_DEADLINE_S))
    return ops


def analyze_ops(src_dir: Path, seed: int) -> List[Op]:
    rng = random.Random(seed)
    rows, size5_rows = load_data(src_dir)
    s5 = size5_sources(size5_rows, random.Random(seed))
    cache: Dict[Tuple[Point, ...], Dict[str, int]] = {}

    def counts_of(pts):
        if pts not in cache:
            cache[pts] = oracles.brute_counts(pts)
        return cache[pts]

    sources = [(f"row:{r['id']}", r["points"], {"class": r["id"], "width": r["width"]}) for r in rows]
    sources += [(f"size5:{lab}", pts, {"size5": lab, "width": w}) for lab, w, pts in s5]
    for _ in range(6):
        q = rng.randrange(2, 40)
        p = rng.choice([p for p in range(1, q) if gcd(p, q) == 1])
        tet = ((0, 0, 0), (1, 0, 0), (0, 0, 1), (p, q, 1))
        sources.append((f"tet:T({p},{q})", tet, {"white": (p, q), "width": 1}))
    grid = _volume_grid(len(sources))
    random.Random(0).shuffle(grid)  # same box size per source on every seed
    ops = []
    for (name, pts, expect), target in zip(sources, grid):
        img = image_near_volume(rng, pts, target)
        ops.append(Op(name, "analyze", (img,), {**expect, **counts_of(pts)}))
    ops += _far_ops(rows, s5, counts_of)
    # one seeded order, so each kind of query is spread over the round
    rng.shuffle(ops)
    return ops


def _parse_analyze(text: str) -> Dict[str, str]:
    out = {}
    lines = text.strip().splitlines()
    for line in lines[:-1]:
        key, sep, value = line.partition(":")
        if sep:
            out[key.strip()] = value.strip()
    out["summary"] = lines[-1] if lines else ""
    return out


def check_analyze(op: Op, rc: int, stdout: str) -> Optional[str]:
    """None when the printed analysis agrees with the source of the image."""
    if rc != 0:
        return f"exit code {rc}"
    out = _parse_analyze(stdout)
    exp = op.expect
    try:
        got = {
            "size": int(out["size"]),
            "vertices": int(out["vertices"]),
            "interior": int(out["interior points"].split()[0]),
            "width": int(out["width"]),
        }
        functional = oracles.parse_functional(out["functional"])
    except (KeyError, ValueError) as exc:
        return f"unparsable output ({exc})"
    for key, value in got.items():
        if value != exp[key]:
            return f"{key} {value}, expected {exp[key]}"
    if oracles.spread(functional, op.configs[0]) != got["width"]:
        return f"functional {out['functional']} does not certify width {got['width']}"
    if "class" in exp and out.get("class") != exp["class"]:
        return f"class {out.get('class')}, expected {exp['class']}"
    if "size5" in exp and out.get("size-5 class") != exp["size5"]:
        return f"size-5 class {out.get('size-5 class')}, expected {exp['size5']}"
    if "white" in exp:
        _, _, tail = out["summary"].partition("White type (")
        try:
            p, q = (int(v) for v in tail.rstrip(")").split(","))
        except ValueError:
            return f"no White type in {out['summary']!r}"
        if not oracles.white_equivalent((p, q), exp["white"]):
            return f"White type ({p},{q}) is not equivalent to {exp['white']}"
    return None


# ---------------------------------------------------------------------------
# equiv


def _with_extra_points(points, k: int) -> Tuple[Point, ...]:
    """The configuration plus k lattice points p_i + p_j - p_l not in it."""
    pts = list(points)
    for i, j, l in ((0, 1, 2), (1, 3, 4), (2, 4, 5), (0, 5, 3), (3, 2, 1)):
        if len(pts) == len(points) + k:
            break
        cand = tuple(pts[i][c] + pts[j][c] - pts[l][c] for c in range(3))
        if cand not in pts:
            pts.append(cand)
    if len(pts) != len(points) + k:
        raise AssertionError("could not extend the configuration")
    return tuple(pts)


#: 7-point pairs: every fourth table row plus one point, against an image
#: relabeled by the permutation at this lexicographic rank (a share of 7!).
#: The rank is fixed so the program's permutation search does the same
#: work on every seed; a random relabeling puts one 8-point search anywhere
#: between 0 and 40320 affine solves.  Nineteen pairs of like cost put the
#: equiv tail percentile inside a cluster rather than on one operation.
SEVEN_POINT_ROWS = slice(2, None, 4)
SEVEN_POINT_SHARE = 0.1
EIGHT_POINT = ("G.3", 0.25)


def _relabeled_image(rng, points, share: float):
    """Image whose point order is the fixed-rank permutation: b[pi[i]] = phi(a[i])."""
    n = len(points)
    pi = unrank_permutation(int(share * math.factorial(n)), n)
    m, t = random_map(rng, rng.randint(2, 6))
    img = apply(m, t, points)
    out = [None] * n
    for i, p in enumerate(img):
        out[pi[i]] = p
    return tuple(out)


def equiv_ops(src_dir: Path, seed: int) -> List[Op]:
    rng = random.Random(seed)
    rows, _ = load_data(src_dir)
    by_id = {r["id"]: r["points"] for r in rows}

    def image(pts):
        m, t = random_map(rng, rng.randint(2, 8))
        img = list(apply(m, t, pts))
        rng.shuffle(img)
        return tuple(img)

    # relabeling ranks from a grid over 6!, spread over the rows in an order
    # that does not depend on the seed, so every seed gets the same searches
    shares = [(k + 0.5) / len(rows) for k in range(len(rows))]
    random.Random(0).shuffle(shares)
    ops = [Op(f"eq6:{r['id']}@{share:.3f}", "equiv",
              (r["points"], _relabeled_image(rng, r["points"], share)), {"equivalent": True})
           for r, share in zip(rows, shares)]
    for x, y in PREFILTER_TWINS:
        px, py = by_id[x], by_id[y]
        variants = ((px, py), (py, px), (image(px), py), (px, image(py)), (image(px), image(py)))
        for k, (a, b) in enumerate(variants):
            ops.append(Op(f"neq6:{x}/{y}#{k}", "equiv", (a, b), {"equivalent": False}))
    larger = [(r["id"], 1, SEVEN_POINT_SHARE) for r in rows[SEVEN_POINT_ROWS]]
    larger.append((EIGHT_POINT[0], 2, EIGHT_POINT[1]))
    for cid, extra, share in larger:
        a = _with_extra_points(by_id[cid], extra)
        ops.append(Op(f"eq{6 + extra}:{cid}@{share}", "equiv",
                      (a, _relabeled_image(rng, a, share)), {"equivalent": True}))
    rng.shuffle(ops)
    return ops


def check_equiv(op: Op, rc: int, stdout: str) -> Optional[str]:
    """None when the exit code is the known answer and any witness checks."""
    want = 0 if op.expect["equivalent"] else 1
    if rc != want:
        return f"exit code {rc}, expected {want}"
    if rc == 1:
        return None
    fields: Dict[str, List[List[int]]] = {}
    try:
        for line in stdout.strip().splitlines()[1:]:
            key, _, value = line.partition(":")
            fields.setdefault(key.strip(), []).append([int(v) for v in value.split()])
        perm = [i - 1 for i in fields["permutation"][0]]
        matrix = fields["matrix"]
        translation = fields["translation"][0]
    except (KeyError, ValueError, IndexError) as exc:
        return f"unparsable witness ({exc})"
    a, b = op.configs
    return oracles.check_witness(a, b, perm, matrix, translation)


# ---------------------------------------------------------------------------
# classify


def expected_class_ids() -> List[str]:
    return [f"{case}.{k}" for case, n in PUBLISHED_CASE_COUNTS for k in range(1, n + 1)]


def check_classify(reports, src_dir: Path) -> Optional[str]:
    """None when classify_all produced the published classes in table order,
    each class's representative is its row of the data file, each generated
    witness maps onto that row by a unimodular map found and checked here,
    and each row has six lattice points by the brute-force count."""
    table = {r["id"]: r["points"] for r in load_data(src_dir)[0]}
    classes = [c for r in reports for c in r.classes_found]
    ids = [c.id for c in classes]
    if ids != expected_class_ids():
        return f"class ids {ids[:5]}... differ from the published order"
    per_case = {}
    for r in reports:
        per_case[r.case] = per_case.get(r.case, 0) + len(r.classes_found)
    if per_case != dict(PUBLISHED_CASE_COUNTS):
        return f"per-case counts {per_case}"
    for c in classes:
        row = table[c.id]
        if tuple(tuple(p) for p in c.representative.points) != row:
            return f"{c.id}: representative differs from the data file's row"
        size = oracles.brute_counts(row)["size"]
        if size != 6:
            return f"{c.id}: table row has {size} lattice points"
        gen = tuple(tuple(p) for p in c.generated.points)
        found = oracles.find_equivalence(gen, row)
        if found is None:
            return f"{c.id}: no unimodular map from the witness to the table row"
        perm, matrix, translation = found
        reason = oracles.check_witness(gen, row, perm, matrix, translation)
        if reason:
            return f"{c.id}: {reason}"
    return None
