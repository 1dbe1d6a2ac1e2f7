"""Command-line front end: analyze, classify, equiv, catalog.

Exit codes: 0 success (or "equivalent"), 1 verification failure or
"inequivalent", 2 usage and input errors.  main maps every failed
internal check, exactlinalg.VerificationFailed, to "verification
failed: <message>" on stderr, whatever the command: a failed check of
the classification, corrupt bundled data, a catalog miss (NoMatch: six
distinct full-dimensional points have an oriented matroid among the
catalog's records), a size-5 miss (UnknownSize5Class: five points whose
hull holds only them fit a class), and a failed invariant of a hull
enumeration or a width witness.

A process builds its argument parser once: build_parser is cached and
first called by main, not at import.  parse_args makes a fresh Namespace
on each call and leaves the parser unchanged, so every main call parses
as a fresh parser would.

analyze of six points first names their table row
(classify6._class_rows, an equivalence.RowSet): a gate on the sorted
|volumes| of the quadruples, then the least barycentric table against
the one or two rows of that profile, and a witness map onto the row's
points, with no normal form; the row is read off the tables' rows_by_id.
A named row's hull holds only its six points, so none is enumerated and
no placing of the input is made: its vertices and interior points are
the input points whose witness images are the row's, whose labels one
placing of the row's points gives on the first query that names the row
in a process (_hull_labels).  The coplanarity, dps flag and
oriented-matroid label are class invariants read off the row and its
grid cell, with no circuits, pair sums or canonical circuit form; the
width is computed.  Every other input
takes the hull first: one whose fine triangulation has only empty
cells holds only its own points and enumerates none, and any other is
enumerated within the enumeration budget.  Then come the circuits of
six points and the width, and for a six-point input the canonical
circuit form of its oriented matroid.
"""

import argparse
import sys
from functools import lru_cache

from .polytope import (
    PointConfig,
    format_points,
    hull_summary,
    parse_points,
)
from .invariants import (
    circuits,
    coplanarity_from_circuits,
    functional_range,
    pair_sums_distinct,
    volume_vector5,
    volume_vector6,
    width,
)
from .equivalence import equivalence_witness
from .emptytetra import white_type
from .exactlinalg import VerificationFailed
from .omcatalog import match_circuits
from .size5 import size5_class
from .tablesdata import load_tables
from . import classify6

_FMT_CHOICES = ("json", "csv")
_CASE_CHOICES = ("A", "B", "C", "D", "E", "F", "G", "H", "all")


def _functional_str(f) -> str:
    parts = []
    for coeff, name in zip(f, "xyz"):
        if coeff == 0:
            continue
        if coeff == 1:
            term = name
        elif coeff == -1:
            term = "-" + name
        else:
            term = f"{coeff}{name}"
        if parts and not term.startswith("-"):
            term = "+" + term
        parts.append(term)
    return "".join(parts) or "0"


def _read_config(path: str) -> PointConfig:
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    return parse_points(text)


def _om_label(circs) -> str:
    record = match_circuits(circs)
    return " or ".join(load_tables().labels_by_key[record.key])


@lru_cache(maxsize=None)
def _hull_labels(rep: PointConfig):
    """The labels of the interior points of a table row's configuration
    rep, and its number of vertices, from one hull_summary per row and
    process; rep holds only its six points, so its fine cells are empty
    and none is enumerated."""
    _, inner, verts = hull_summary(rep)
    return frozenset(map(rep.points.index, inner)), len(verts)


def cmd_analyze(args) -> int:
    config = _read_config(args.points_file)
    n = len(config.points)
    # a table row is named first: its hull holds only its six points, and
    # a witness, a bijection onto the row's points, gives its vertices and
    # interior points
    named = classify6._class_rows().name(config) if n == 6 else None
    if named is None:
        row = None
        lattice, inner, verts = hull_summary(config)
        nsize, nverts = len(lattice), len(verts)
    else:
        rid, rep, (perm, _) = named
        row = load_tables().rows_by_id[rid]
        inner_labels, nverts = _hull_labels(rep)
        nsize = 6
        inner = tuple(sorted(p for p, j in zip(config.points, perm) if j in inner_labels))
    # hull_summary rejected rank < 4, so the circuits exist
    circs = circuits(config) if n == 6 and row is None else ()
    w, functional = width(config)
    # show the published witness when it is one for these coordinates
    if row is not None and functional_range(row.functional, config.points) == w:
        functional = row.functional
    fstr = _functional_str(functional)
    print(f"points: {n}")
    print(f"size: {nsize}")
    print(f"vertices: {nverts}")
    print(f"interior points: {len(inner)}" + (f"  {list(inner)}" if inner else ""))
    print(f"width: {w}")
    print(f"functional: {fstr}")
    if n == 5:
        print("volume vector:", " ".join(map(str, volume_vector5(config))))
    elif n == 6:
        coplanarity = (coplanarity_from_circuits(circs) if row is None
                       else load_tables().cells_by_label[row.om_label].coplanarity)
        print(f"coplanarity: {coplanarity}")
        print("volume vector:", " ".join(map(str, volume_vector6(config))))
    dps = pair_sums_distinct(lattice) if row is None else row.dps
    print(f"dps: {'dps' if dps else 'non-dps'}")
    if row is not None:
        print(f"oriented matroid: {row.om_label}")
    elif n == 6:
        print(f"oriented matroid: {_om_label(circs)}")
    summary = None
    if n == 4 and nsize == 4:
        p, q = white_type(config.points)
        summary = f"size 4, width {w}, White type ({p},{q})"
    elif n == 5 and nsize == 5:
        print(f"size-5 class: {size5_class(config).label}")
    elif n == 6:
        if row is None:
            print("class: not in classification (width 1 or size != 6)")
        else:
            print(f"class: {row.id}")
            summary = (
                f"class {row.id}, width {w}, functional {fstr}, "
                f"{'dps' if dps else 'non-dps'}"
            )
    if summary is None:
        summary = f"size {nsize}, width {w}"
    print(summary)
    return 0


def cmd_classify(args) -> int:
    if args.case == "all":
        reports = list(classify6.classify_all())
    else:
        reports = [classify6.run_case(args.case)]
    classes = [c for r in reports for c in r.classes_found]
    for r in reports:
        print(
            f"case {r.case}: {len(r.classes_found)} classes "
            f"({r.candidates_examined} candidates examined)"
        )
        if args.verbose:
            for reason, count in sorted(r.rejected.items()):
                print(f"  rejected {count}: {reason}")
            for note in r.notes:
                print(f"  note: {note}")
    if args.case == "all":
        hist = {}
        for c in classes:
            hist[c.width] = hist.get(c.width, 0) + 1
        parts = ", ".join(f"{hist[w]} width-{w}" for w in sorted(hist))
        print(f"{len(classes)} classes ({parts})")
    else:
        print(f"{len(classes)} classes")
    if args.out:
        text = (
            classify6.export_json(classes)
            if args.format == "json"
            else classify6.export_csv(classes)
        )
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.out}")
    return 0


def cmd_equiv(args) -> int:
    ca = _read_config(args.file_a)
    cb = _read_config(args.file_b)
    if len(ca.points) != len(cb.points):
        raise ValueError(
            f"size mismatch: {len(ca.points)} vs {len(cb.points)} points"
        )
    witness = equivalence_witness(ca, cb)
    if witness is None:
        print("inequivalent")
        return 1
    perm, amap = witness
    print("equivalent")
    print("permutation:", " ".join(str(i + 1) for i in perm))
    for row in amap.matrix:
        print("matrix:", " ".join(map(str, row)))
    print("translation:", " ".join(map(str, amap.translation)))
    print("determinant:", amap.det)
    return 0


def cmd_catalog(args) -> int:
    bundle = load_tables()
    if args.what == "oms":
        for cell in bundle.om_cells:
            flags = []
            if cell.dps:
                flags.append("dps")
            if cell.realized:
                flags.append("realized")
            if cell.width_one:
                flags.append("width-one")
            print(
                f"{cell.label:6} coplanarity {cell.coplanarity:14} "
                f"vertices {cell.vertices} interior {cell.interior} "
                f"circuits {cell.n_circuits}"
                + (f"  [{', '.join(flags)}]" if flags else "")
            )
        realized = sum(c.realized for c in bundle.om_cells)
        wone = sum(c.width_one for c in bundle.om_cells)
        dps = sum(c.dps for c in bundle.om_cells)
        print(
            f"{len(bundle.om_cells)} oriented matroids "
            f"({realized} realized with width > 1, {wone} with width one, "
            f"{dps} dps)"
        )
    elif args.what == "classes":
        for row in bundle.class_rows:
            print(
                f"{row.id:5} om {row.om_label:5} width {row.width} "
                f"functional {_functional_str(row.functional):6} "
                f"{'dps    ' if row.dps else 'non-dps'} "
                f"vv {' '.join(map(str, row.volume_vector))}"
            )
        print(f"{len(bundle.class_rows)} classes")
    else:
        for row in bundle.size5_rows:
            sig = tuple(row["signature"])
            if "representative" in row:
                vv = " ".join(map(str, row["volume_vector"]))
                pts = format_points(row["representative"]).replace("\n", "; ")
                print(f"signature {sig} width {row['width']} vv {vv}  points {pts}")
            else:
                print(
                    f"signature {sig} width {row['width']} "
                    f"family {row['representative_formula']} "
                    f"vv {row['volume_vector_formula']} "
                    f"for {row['constraints']}"
                )
        print(f"{len(bundle.size5_rows)} size-5 rows")
    return 0


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lattice6",
        description="Exact classification tools for lattice polytopes "
        "with few lattice points.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="invariants of a points file; an image of a "
                       "table row is named first and enumerates no lattice point")
    p.add_argument("points_file", help="path to a points file, or - for stdin")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("classify", help="regenerate the classification")
    p.add_argument("--case", choices=_CASE_CHOICES, default="all")
    p.add_argument("--out", help="write the classes to this path")
    p.add_argument("--format", choices=_FMT_CHOICES, default="json")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("equiv", help="test two points files for equivalence")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("catalog", help="dump a bundled catalog")
    p.add_argument("--what", choices=("oms", "classes", "size5"), default="classes")
    p.set_defaults(func=cmd_catalog)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except VerificationFailed as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
