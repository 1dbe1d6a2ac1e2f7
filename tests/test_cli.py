"""Command-line interface: output formats and exit codes."""

import hashlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conftest import SIZE7_IN_GATE, apply_map, count_calls, random_unimodular, shuffled
import random

import lattice6
from lattice6 import classify6, cli, equivalence, invariants, omcatalog, polytope, size5, tablesdata
from lattice6.classify6 import width1_family
from lattice6.cli import _om_label, main
from lattice6.emptytetra import white_type
from lattice6.exactlinalg import AffineMap, quad_volumes
from lattice6.invariants import circuits
from lattice6.polytope import PointConfig, format_points, parse_points
from lattice6.size5 import catalog41, rep21, rep32


def write_config(tmp_path, name, points):
    path = tmp_path / name
    path.write_text(format_points(points))
    return str(path)


def rep_file(tmp_path, bundle, cid):
    return write_config(tmp_path, cid.replace(".", "_") + ".txt",
                        bundle.rows_by_id[cid].config().points)


def test_analyze_classified_polytope(tmp_path, bundle, capsys):
    rc = main(["analyze", rep_file(tmp_path, bundle, "A.1")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "size: 6" in out
    assert "width: 2" in out
    assert "class A.1, width 2, functional z, non-dps" in out


def test_analyze_reads_points_from_stdin(tmp_path, bundle, capsys, monkeypatch):
    """`analyze -` reads the points from stdin and prints exactly what
    analyze of the same points in a file prints."""
    path = rep_file(tmp_path, bundle, "F.7")
    assert main(["analyze", path]) == 0
    from_file = capsys.readouterr().out
    monkeypatch.setattr(sys, "stdin", io.StringIO(Path(path).read_text()))
    assert main(["analyze", "-"]) == 0
    assert capsys.readouterr().out == from_file


def test_analyze_reads_a_file_with_a_byte_order_mark(tmp_path, bundle, capsys, monkeypatch):
    """A points file saved as UTF-8 with a byte-order mark, and the same
    text on stdin, analyze as the file without it; a second mark is no
    part of the format and names its line."""
    path = rep_file(tmp_path, bundle, "F.7")
    assert main(["analyze", path]) == 0
    plain = capsys.readouterr().out
    marked = tmp_path / "f7_bom.txt"
    marked.write_text(Path(path).read_text(), encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    assert main(["analyze", str(marked)]) == 0
    assert capsys.readouterr().out == plain
    monkeypatch.setattr(sys, "stdin", io.StringIO("\ufeff" + Path(path).read_text()))
    assert main(["analyze", "-"]) == 0
    assert capsys.readouterr().out == plain
    marked.write_text("\ufeff" + Path(path).read_text(), encoding="utf-8-sig")
    assert main(["analyze", str(marked)]) == 2
    assert capsys.readouterr().err == "error: line 1: not a decimal integer: '\\ufeff0'\n"


def test_analyze_width_three_class(tmp_path, bundle, capsys):
    rc = main(["analyze", rep_file(tmp_path, bundle, "H.12")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "class H.12, width 3, functional x-z, dps" in out


def test_analyze_tetrahedron(tmp_path, capsys):
    path = write_config(tmp_path, "t.txt", [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
    rc = main(["analyze", path])
    out = capsys.readouterr().out
    assert rc == 0
    assert "size 4, width 1, White type (0,1)" in out


def test_analyze_five_points(tmp_path, capsys):
    path = write_config(tmp_path, "p5.txt",
                        [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 3, 1)])
    rc = main(["analyze", path])
    out = capsys.readouterr().out
    assert rc == 0
    assert "size-5 class:" in out
    assert "volume vector" in out


def test_analyze_five_points_enumerates_nothing(tmp_path, capsys, monkeypatch):
    """hull_summary finds the fine cells of a size-5 input empty, so no
    lattice point is enumerated, and cmd_analyze has the size already, so
    classify5's size gate, a second placing, is skipped."""
    calls = count_calls(monkeypatch, polytope._placing, polytope._hull_points)
    rc = main(["analyze", write_config(tmp_path, "r41.txt", catalog41()[0].representative.points)])
    assert rc == 0
    assert "size-5 class: 41(1,)" in capsys.readouterr().out
    assert calls == {"_placing": 1, "_hull_points": 0}


def test_analyze_table_row_takes_no_hull_points_and_no_circuits(tmp_path, bundle, capsys, monkeypatch):
    """A six-point table row (H.7) is named before its hull, with no normal
    form: the gate of |volumes| lets it through, its least table is the
    row's, and a witness map carries it onto the row's points.  Its hull
    is read off that map: its lattice points are its own six, and its
    vertices and interior points are those whose images are the row's.
    The row's labels come from one placing of the row's points, and its
    width and least functionals from one width walk of them
    (least_functionals), on the first query that names the row in a
    process, and from none after; the input's width is read through the
    witness map, with no walk of its own (width).  So no lattice point
    is enumerated (_tetrahedron_points).  One quad_volumes call serves
    the gate, the witness search and the volume vector.  Coplanarity,
    dps and the oriented-matroid label are class invariants read off the
    row, so there are no circuits, no pair sums and no canonical circuit
    form."""
    classify6._class_rows()._stages  # built with the tables, before counting
    cli._hull_labels.cache_clear()
    calls = count_calls(monkeypatch, invariants.circuits, polytope._placing,
                        polytope._tetrahedron_points, quad_volumes, equivalence.normal_form,
                        invariants.pair_sums_distinct, omcatalog.canonical_circuit_form,
                        invariants.least_functionals, invariants.width)
    path = rep_file(tmp_path, bundle, "H.7")
    for first in (1, 0):
        calls.update(dict.fromkeys(calls, 0))
        assert main(["analyze", path]) == 0
        out = capsys.readouterr().out
        assert "class: H.7" in out
        assert f"oriented matroid: {bundle.rows_by_id['H.7'].om_label}\n" in out
        assert calls == {"circuits": 0, "_placing": first, "_tetrahedron_points": 0,
                         "quad_volumes": 1, "normal_form": 0, "pair_sums_distinct": 0,
                         "canonical_circuit_form": 0, "least_functionals": first, "width": 0}


def test_analyze_outside_the_table_takes_the_full_path(tmp_path, capsys, monkeypatch):
    """The twin of the pin above: a six-point input outside the table (a
    width-one hexagon) is turned away by the gate of |volumes| before any
    table of its own or of a row, and takes one placing, whose fine cells
    are all empty, so no lattice point is enumerated (_hull_points), one
    circuits call and one pair-sum scan.  A fresh process that analyzes
    it builds the row set's gate but no row stage (_stages), and no row's
    hull labels."""
    c = width1_family("(3,3)/6.4", (1, 1, 2, 3))
    path = write_config(tmp_path, "hex.txt", c.points)
    classify6._class_rows()  # built with the tables, before counting
    calls = count_calls(monkeypatch, invariants.circuits, polytope._placing, polytope._hull_points,
                        quad_volumes, equivalence.normal_form, equivalence._table,
                        invariants.pair_sums_distinct)
    assert main(["analyze", path]) == 0
    assert "class: not in classification" in capsys.readouterr().out
    assert calls == {"circuits": 1, "_placing": 1, "_hull_points": 0, "quad_volumes": 1,
                     "normal_form": 0, "_table": 0, "pair_sums_distinct": 1}
    code = ("import sys; from lattice6 import classify6, cli; rc = cli.main(['analyze', sys.argv[1]]); "
            "print(rc, classify6._class_rows.cache_info().currsize, "
            "'_stages' in vars(classify6._class_rows()), "
            "cli._hull_labels.cache_info().currsize, file=sys.stderr)")
    proc = _python(["-c", code, path])
    assert (proc.stderr, proc.returncode) == ("0 1 False 0\n", 0)


def test_analyze_checks_the_witness_map_of_a_row(tmp_path, bundle, capsys, monkeypatch):
    """analyze names a row only through a witness map, as the case reports
    do: a map that does not carry the input onto the row's points is a
    verification failure, before any line is printed, although the table
    matched: the normal-form keys of that miss path are equal."""
    shift = AffineMap(((1, 0, 0), (0, 1, 0), (0, 0, 1)), (1, 0, 0))
    monkeypatch.setattr(equivalence, "unimodular_map", lambda src, dst: shift)
    rc, out, err = _outcome(["analyze", rep_file(tmp_path, bundle, "H.7")], capsys)
    assert (rc, out, err) == (1, "", "verification failed: H.7: witness is not equivalent\n")


def _analysis(tmp_path, points, capsys):
    """(exit code, the "key: value" lines of stdout as a dict, stderr) of
    analyze on points."""
    rc = main(["analyze", write_config(tmp_path, "in.txt", points)])
    out = capsys.readouterr()
    lines = dict(line.split(": ", 1) for line in out.out.splitlines() if ": " in line)
    return rc, lines, out.err


def _full_path_lines(config):
    """The size, vertices, interior points, coplanarity and dps lines of
    analyze, from the enumerating hull, the circuits and the pair sums."""
    lattice, inner, verts = polytope.hull_summary(config)
    return {"size": str(len(lattice)), "vertices": str(len(verts)),
            "interior points": f"{len(inner)}" + (f"  {list(inner)}" if inner else ""),
            "coplanarity": invariants.coplanarity_from_circuits(circuits(config)),
            "dps": "dps" if invariants.pair_sums_distinct(lattice) else "non-dps"}


def test_analyze_rows_agree_with_the_full_path(tmp_path, bundle, capsys):
    """Every table row and three seeded relabeled unimodular images of each
    print the lines that the enumerating hull, the circuits and the pair
    sums give, and name their row.  The twins G.5/G.12 and G.6/G.9 share
    their |volume| profile, so the gate passes both and the least table
    decides.  Each image's vertices and interior points are read off its
    witness map onto the row.  So are its width and functional: the
    printed functional is the witness that width gives the image's own
    coordinates, the least of the row's least functionals pulled back
    through the map, unless the row's published functional is a witness
    for those coordinates, which is printed instead; and some images are
    ones where it is not."""
    gate = classify6._class_rows().gate
    for a, b in (("G.5", "G.12"), ("G.6", "G.9")):
        ids = [rid for rid, _ in gate[equivalence._profile(bundle.rows_by_id[a].config())]]
        assert ids == [a, b]
    rng = random.Random(41)
    unpublished = 0
    for row in bundle.class_rows:
        cfg = row.config()
        for img in [cfg] + [shuffled(rng, apply_map(random_unimodular(rng), cfg)) for _ in range(3)]:
            rc, lines, _ = _analysis(tmp_path, img.points, capsys)
            assert rc == 0 and lines["class"] == row.id, (row.id, img)
            assert {k: lines[k] for k in _full_path_lines(img)} == _full_path_lines(img), (row.id, img)
            w, f = invariants.width(img)
            published = invariants.functional_range(row.functional, img.points) == w
            shown = cli._functional_str(row.functional if published else f)
            assert (lines["width"], lines["functional"]) == (str(w), shown), (row.id, img)
            unpublished += not published
    assert unpublished > 100, unpublished


def test_analyze_six_points_outside_the_table_keep_their_answers(tmp_path, capsys, monkeypatch):
    """A six-point input of size 7 whose profile passes the gate reads the
    R* of its profile's row off no point (no order is a candidate), so
    no least table of it can be the row's: it takes no witness map, no
    sorted table (two when its least table was built first) and no
    normal form, finds no row and prints the full path's lines; a flat
    six-point input fails the gate and is refused by the hull, exit 2."""
    classify6._class_rows()._stages  # built with the tables, before counting
    assert equivalence._profile(PointConfig(SIZE7_IN_GATE)) in classify6._class_rows().gate
    calls = count_calls(monkeypatch, equivalence.normal_form, equivalence.unimodular_map,
                        equivalence._table, invariants.circuits)
    rc, lines, err = _analysis(tmp_path, SIZE7_IN_GATE, capsys)
    pinned = {"normal_form": 0, "unimodular_map": 0, "_table": 0, "circuits": 1}
    assert (rc, err, calls) == (0, "", pinned)
    assert lines["class"] == "not in classification (width 1 or size != 6)"
    full = _full_path_lines(PointConfig(SIZE7_IN_GATE))
    assert {k: lines[k] for k in full} == full and full["size"] == "7"
    flat = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (2, 1, 0), (1, 2, 0)]
    rc, lines, err = _analysis(tmp_path, flat, capsys)
    assert (rc, lines, err) == (2, {}, "error: configuration spans no 3-dimensional volume\n")
    assert calls == pinned


def _python(args):
    """A python process with args, importing this lattice6."""
    paths = [str(Path(lattice6.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          timeout=60)


def _outcome(argv, capsys):
    """(exit code, stdout, stderr) of one main call; a usage error's
    SystemExit gives its code."""
    try:
        rc = main(argv)
    except SystemExit as exc:
        rc = exc.code
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_parser_is_built_once_and_reused(tmp_path, bundle, capsys, monkeypatch):
    """main parses with one cached parser, built on the first call and not
    at import; after analyze, a usage error and equiv, each call prints
    and exits as with a freshly built parser."""
    proc = _python(["-c", "import lattice6.cli as c; print(c.build_parser.cache_info().currsize)"])
    assert proc.stdout == "0\n"
    assert cli.build_parser() is cli.build_parser()
    rng = random.Random(7)
    h12 = bundle.rows_by_id["H.12"].config()
    image = shuffled(rng, apply_map(random_unimodular(rng), h12))
    hexagon = width1_family("(3,3)/6.4", (1, 1, 2, 3))
    argvs = [
        ["analyze", rep_file(tmp_path, bundle, "H.12")],
        ["classify", "--case", "Z"],
        ["equiv", rep_file(tmp_path, bundle, "H.12"), write_config(tmp_path, "img.txt", image.points)],
        ["analyze", write_config(tmp_path, "hex.txt", hexagon.points)],
    ]
    reused = [_outcome(argv, capsys) for argv in argvs]
    assert [rc for rc, _, _ in reused] == [0, 2, 0, 0]
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    assert cli.build_parser() is not cli.build_parser()
    fresh = [_outcome(argv, capsys) for argv in argvs]
    assert reused == fresh


def test_classify_process_builds_no_oriented_matroid_catalog():
    """A fresh process that runs classify_all never builds the catalog of
    oriented matroids nor the circuit tables of its canonical forms: each
    class takes its oriented matroid from its table row."""
    code = ("from lattice6 import classify6, omcatalog; classify6.classify_all(); "
            "print(omcatalog.enumerate_oms.cache_info().currsize, "
            "omcatalog._circuit_tables.cache_info().currsize)")
    proc = _python(["-c", code])
    assert (proc.stdout, proc.stderr, proc.returncode) == ("0 0\n", "", 0)


def test_classify_process_relabels_no_orbit_and_lists_no_gluing_orbit():
    """A fresh process that runs classify_all never reads a chirotope
    through the 720 relabelings of six points, and walks no orbit of a
    gluing hit under both bases' symmetries.  exactlinalg._relabelings
    takes 66 permutations in 10 calls, at most 12 in one: the roles of the
    62 vertex orders that the C/E walk visits (_Base.roles) and two per
    cell (_cell_chirotopes).  The only orbit walks (_orbit_walk) are the
    bases' 24 vertex orders and 20 point pairs each, and the gluing's 57
    blocks (_gluing_tables): 798 hits walked under the symmetries that
    fix both left-out vertices, of which 449 are visited.  The walk once
    listed the 3,732 hits and the orbit of each one it visited."""
    code = ("from lattice6 import classify6\n"
            "relabeled, walked = [], []\n"
            "relabelings, orbit_walk = classify6._relabelings, classify6._orbit_walk\n"
            "def counted_relabelings(perms):\n"
            "    relabeled.append(len(perms))\n"
            "    return relabelings(perms)\n"
            "def counted_walk(items, orbit):\n"
            "    walked.append(orbit_walk(items, orbit))\n"
            "    return walked[-1]\n"
            "classify6._relabelings, classify6._orbit_walk = counted_relabelings, counted_walk\n"
            "classify6.classify_all()\n"
            "sizes = [sum(size for _, size in walk) for walk in walked]\n"
            "print(len(relabeled), sum(relabeled), max(relabeled), sizes[:16], len(walked) - 16, "
            "sum(sizes[16:]), sum(map(len, walked[16:])))\n")
    proc = _python(["-c", code])
    expected = f"10 66 12 {[24] * 8 + [20] * 8} 57 798 449\n"
    assert (proc.stdout, proc.stderr, proc.returncode) == (expected, "", 0)


@pytest.mark.parametrize("cid", ["H.12", None])
def test_python_m_lattice6_matches_main(tmp_path, bundle, capsys, cid):
    """python -m lattice6 analyze prints what main prints and exits with
    its code, on a classified polytope and on a missing file."""
    path = rep_file(tmp_path, bundle, cid) if cid else str(tmp_path / "missing.txt")
    rc = main(["analyze", path])
    out = capsys.readouterr().out
    proc = _python(["-m", "lattice6", "analyze", path])
    assert (proc.stdout, proc.returncode) == (out, rc)
    assert rc == (0 if cid else 2)


def test_analyze_width_one_hexagon(tmp_path, capsys, monkeypatch):
    """An input outside the table gets its oriented-matroid label from one
    canonical circuit form of its circuits."""
    c = width1_family("(3,3)/6.4", (1, 1, 2, 3))
    label = _om_label(circuits(c))  # also builds the catalog before counting
    path = write_config(tmp_path, "hex.txt", c.points)
    calls = count_calls(monkeypatch, omcatalog.canonical_circuit_form)
    rc = main(["analyze", path])
    out = capsys.readouterr().out
    assert rc == 0
    assert "not in classification" in out
    assert f"oriented matroid: {label}\n" in out
    assert calls == {"canonical_circuit_form": 1}


#: Determinant 1 with entries up to 2407: it keeps normalized volumes but
#: sends small polytopes to bounding boxes of 10^9 to 10^10 points.
FAR_MAP = AffineMap(((1, -33, 58), (22, -725, 1291), (27, -835, 2407)), (100, 2000, 1000))


@pytest.mark.parametrize("source, expected", [
    ("H.12", "class H.12, width 3"),
    ("41(1,)", "size-5 class: 41(1,)"),
    ("T(2,5)", "size 4, width 1, White type (2,5)"),
])
def test_analyze_far_image_finishes(tmp_path, bundle, capsys, source, expected):
    """Enumeration cost follows normalized volume, not coordinate size."""
    config = {
        "H.12": bundle.rows_by_id["H.12"].config(),
        "41(1,)": catalog41()[0].representative,
        "T(2,5)": PointConfig([(0, 0, 0), (1, 0, 0), (0, 0, 1), (2, 5, 1)]),
    }[source]
    path = write_config(tmp_path, "far.txt", apply_map(FAR_MAP, config).points)
    start = time.perf_counter()
    rc = main(["analyze", path])
    elapsed = time.perf_counter() - start
    assert rc == 0
    assert expected in capsys.readouterr().out
    assert elapsed < 1.0


@pytest.mark.parametrize("points, expected", [
    ([(0, 0, 0), (300, 301, 0), (-300, -301, 0), (0, 0, 1), (1, 301, 1)],
     "size-5 class: 21(300, 89999)"),
    ([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (10000, 9999, 1)],
     "size-5 class: 32(9999, 10000)"),
])
def test_analyze_large_family_parameters(tmp_path, capsys, points, expected):
    """Large family parameters are read off the invariants: no candidate
    representative is built, and some would leave the coordinate bound."""
    path = write_config(tmp_path, "family.txt", points)
    start = time.perf_counter()
    rc = main(["analyze", path])
    elapsed = time.perf_counter() - start
    assert rc == 0
    assert expected in capsys.readouterr().out
    assert elapsed < 1.0


@pytest.mark.parametrize("config, normal_forms", [
    (rep21(2, 5), 0), (rep32(2, 3), 0), (catalog41()[0].representative, 0),
])
def test_analyze_five_points_normal_forms(tmp_path, capsys, monkeypatch, config, normal_forms):
    """Family parameters take no canonical key, and neither does a
    sporadic class: the row set of the sporadic classes names it by its
    least table and a witness map."""
    size5._sporadic_rows()._stages  # built once, before counting
    calls = count_calls(monkeypatch, equivalence.normal_form)
    assert main(["analyze", write_config(tmp_path, "p5.txt", config.points)]) == 0
    assert "size-5 class:" in capsys.readouterr().out
    assert calls == {"normal_form": normal_forms}


def test_analyze_volume_3001_tetrahedron(tmp_path, capsys):
    path = write_config(tmp_path, "big.txt",
                        [(0, 0, 0), (1, 0, 0), (0, 1, 0), (3000, 3000, 3001)])
    start = time.perf_counter()
    rc = main(["analyze", path])
    elapsed = time.perf_counter() - start
    assert rc == 0
    assert "size 1004, width 2" in capsys.readouterr().out
    assert elapsed < 1.0


def test_analyze_wide_simplex(tmp_path, capsys):
    """Width costs one pass over the targets of spread up to the width."""
    path = write_config(tmp_path, "wide.txt",
                        [(0, 0, 0), (60, 0, 0), (0, 60, 0), (0, 0, 60), (1, 1, 1)])
    start = time.perf_counter()
    rc = main(["analyze", path])
    elapsed = time.perf_counter() - start
    assert rc == 0
    assert "width: 60" in capsys.readouterr().out
    assert elapsed < 5.0


def test_analyze_rejects_malformed_input(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("1 2\n")
    rc = main(["analyze", str(path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "line 1" in err


def test_analyze_rejects_point_count(tmp_path, capsys):
    for k in (3, 9):
        path = write_config(tmp_path, f"n{k}.txt", [(i, i * i, i ** 3) for i in range(k)])
        rc = main(["analyze", path])
        assert rc == 2
        assert f"need 4..8 points, got {k}" in capsys.readouterr().err


@pytest.mark.parametrize("bad, error", [
    ((10001, 0, 0), ValueError),
    ((0, -10001, 0), ValueError),
    ((True, 0, 0), TypeError),
    ((0, 0, 1.0), TypeError),
    ((0.5, 1, 1), TypeError),
])
def test_raw_point_entry_points_validate_coordinates(tmp_path, capsys, bad, error):
    """det4 and unimodular_map trust their points, so every entry point
    that takes raw coordinates must reject |coordinate| > 10^4 and
    non-int coordinates itself."""
    tet = [(0, 0, 0), (1, 0, 0), (0, 1, 0), bad]
    with pytest.raises(error):
        PointConfig(tet)
    with pytest.raises(error):
        white_type(tet)
    text = format_points(tet)  # bools print as True, floats with a point
    with pytest.raises(ValueError):
        parse_points(text)
    path = write_config(tmp_path, "bad.txt", tet)
    assert main(["analyze", path]) == 2
    assert "error:" in capsys.readouterr().err
    # the bound itself is accepted
    edge = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 10000)]
    assert PointConfig(edge).points[3] == (0, 0, 10000)
    assert parse_points(format_points(edge)) == PointConfig(edge)


def test_huge_coordinate_is_a_bound_error(tmp_path, capsys):
    """A coordinate of more than 4,300 digits, past int()'s limit on string
    conversion, is the parser's bound error naming its line, on analyze
    and on either side of equiv."""
    huge = tmp_path / "huge.txt"
    huge.write_text("0 0 0\n1 0 0\n0 1 0\n0 0 " + "7" * 4301 + "\n")
    tet = write_config(tmp_path, "tet.txt", [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
    for argv in (["analyze", str(huge)], ["equiv", str(huge), tet], ["equiv", tet, str(huge)]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: line 4: coordinate of 4301 digits exceeds bound 10000\n"


def test_analyze_missing_file(capsys):
    rc = main(["analyze", "/nonexistent/points.txt"])
    assert rc == 2
    assert capsys.readouterr().err


def test_classify_single_case(capsys):
    rc = main(["classify", "--case", "F"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "case F: 17 classes (160 candidates examined)" in out
    assert "17 classes" in out.strip().splitlines()[-1]


def test_classify_verbose_shows_rejections(capsys):
    rc = main(["classify", "--case", "A", "--verbose"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "case A: 2 classes (6 candidates examined)" in out
    assert "midpoint of p2p6 is integer" in out


def test_classify_single_case_checks_witness_maps(capsys, monkeypatch):
    """A single case checks its classes' witness maps: a map that does not
    carry the generated points onto the row's fails the run."""
    shift = AffineMap(((1, 0, 0), (0, 1, 0), (0, 0, 1)), (1, 0, 0))
    monkeypatch.setattr(equivalence, "unimodular_map", lambda src, dst: shift)
    rc = main(["classify", "--case", "A"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert "verification failed: A.1: witness is not equivalent" in captured.err


@pytest.mark.parametrize("argv", [["catalog"], ["classify", "--case", "A"]],
                         ids=["catalog", "classify"])
def test_corrupt_bundled_data_is_a_verification_failure(capsys, monkeypatch, argv):
    """CorruptData from load_tables fails any command the way a failed
    check does: one line on stderr and exit code 1, not a traceback."""
    def corrupt(name):
        raise tablesdata.CorruptData(f"{name}: checksum mismatch")

    monkeypatch.setattr(tablesdata, "_load_resource", corrupt)
    tablesdata.load_tables.cache_clear()
    try:
        rc = main(argv)
    finally:
        tablesdata.load_tables.cache_clear()
    captured = capsys.readouterr()
    assert (rc, captured.out) == (1, "")
    assert captured.err == "verification failed: classes76: checksum mismatch\n"


def test_catalog_miss_in_analyze_is_a_verification_failure(tmp_path, capsys, monkeypatch):
    """Six distinct full-dimensional points have rank + 2 points, so their
    oriented matroid is among the catalog's records, and a miss is a
    catalog bug: analyze of a six-point input outside the table fails
    with one line on stderr and exit code 1, after the lines it printed."""
    def miss(circs):
        raise omcatalog.NoMatch("circuits match no catalog record")

    monkeypatch.setattr(cli, "match_circuits", miss)
    path = tmp_path / "w1.txt"
    path.write_text(format_points(width1_family("(5,1)/3.2").points))
    rc = main(["analyze", str(path)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out.startswith("points: 6\n") and "oriented matroid" not in captured.out
    assert captured.err == "verification failed: circuits match no catalog record\n"


def test_size5_miss_in_analyze_is_a_verification_failure(tmp_path, capsys, monkeypatch):
    """Five points whose hull holds only them fit a size-5 class, so a
    miss (UnknownSize5Class) is a bug of the classification: analyze
    fails with one line on stderr and exit code 1, after the lines it
    printed, and no traceback."""
    def miss(config):
        raise size5.UnknownSize5Class("signature (4, 1), volume vector (0,) fit no class")

    monkeypatch.setattr(cli, "size5_class", miss)
    rc = main(["analyze", write_config(tmp_path, "r41.txt", catalog41()[0].representative.points)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out.startswith("points: 5\n") and "size-5 class" not in captured.out
    assert captured.err == "verification failed: signature (4, 1), volume vector (0,) fit no class\n"


def _raising(exc):
    """A stand-in for a library function that raises exc."""
    def raiser(*args):
        raise exc
    return raiser


def _corrupt_tables(monkeypatch):
    monkeypatch.setattr(tablesdata, "_load_resource",
                        _raising(tablesdata.CorruptData("classes76: checksum mismatch")))
    tablesdata.load_tables.cache_clear()


def _shifted_witness(monkeypatch):
    shift = AffineMap(((1, 0, 0), (0, 1, 0), (0, 0, 1)), (1, 0, 0))
    monkeypatch.setattr(equivalence, "unimodular_map", lambda src, dst: shift)


def _dropped_point(monkeypatch):
    points = polytope._tetrahedron_points
    monkeypatch.setattr(polytope, "_tetrahedron_points", lambda *tet: points(*tet)[1:])


def _flat_coset_tetrahedron(monkeypatch):
    cosets = polytope._cosets
    monkeypatch.setattr(polytope, "_cosets", lambda volume, *corners: cosets(0, *corners))


def _imprimitive_witness(monkeypatch):
    normalize = invariants._normalize_sign
    monkeypatch.setattr(invariants, "_normalize_sign", lambda f: tuple(2 * c for c in normalize(f)))


#: conv(0, 2e1, 2e2, 2e3): its hull holds six points besides its own four,
#: so analyze enumerates it.
TETRA2 = ((0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2))

#: Library failures that reach cli.main, each as (points analyzed, or
#: None for classify --case A; a patch that makes it happen; the start of
#: its message): the four named kinds, and the three internal checks of
#: the hull enumeration and the width, each made to fire at its own site.
LIBRARY_FAILURES = {
    "CorruptData": (None, _corrupt_tables, "classes76: checksum mismatch"),
    "ClassificationError": (None, _shifted_witness, "A.1: witness is not equivalent"),
    "NoMatch": (width1_family("(5,1)/3.2").points, lambda monkeypatch: monkeypatch.setattr(
        cli, "match_circuits", _raising(omcatalog.NoMatch("circuits match no catalog record"))),
        "circuits match no catalog record"),
    "UnknownSize5Class": (catalog41()[0].representative.points, lambda monkeypatch: monkeypatch.setattr(
        cli, "size5_class", _raising(size5.UnknownSize5Class("fit no class"))), "fit no class"),
    "_hull_points": (TETRA2, _dropped_point, "triangulation of PointConfig("),
    "_cosets": (TETRA2, _flat_coset_tetrahedron, "degenerate tetrahedron"),
    "width": (TETRA2, _imprimitive_witness, "width witness (0, 0, 2) is not primitive"),
}


@pytest.mark.parametrize("failure", LIBRARY_FAILURES)
def test_library_failure_is_a_verification_failure(tmp_path, capsys, monkeypatch, failure):
    """Every failed internal check is a VerificationFailed, which main
    reports as one line on stderr with exit code 1, not a traceback."""
    points, patch, message = LIBRARY_FAILURES[failure]
    argv = (["classify", "--case", "A"] if points is None
            else ["analyze", write_config(tmp_path, "in.txt", points)])
    patch(monkeypatch)
    try:
        rc = main(argv)
    finally:
        tablesdata.load_tables.cache_clear()
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith(f"verification failed: {message}") and err.count("\n") == 1, err
    assert "Traceback" not in err


def test_classify_writes_json(tmp_path, capsys):
    target = tmp_path / "b.json"
    rc = main(["classify", "--case", "B", "--out", str(target)])
    out = capsys.readouterr().out
    assert rc == 0
    assert f"wrote {target}" in out
    data = json.loads(target.read_text())
    assert [d["id"] for d in data] == [f"B.{i}" for i in range(1, 16)]


def test_classify_writes_csv(tmp_path, capsys):
    target = tmp_path / "d.csv"
    rc = main(["classify", "--case", "D", "--out", str(target), "--format", "csv"])
    assert rc == 0
    lines = target.read_text().strip().splitlines()
    assert lines[0].startswith("id,om_label,")
    assert len(lines) == 3
    capsys.readouterr()


def test_equiv_reports_witness(tmp_path, bundle, capsys):
    rng = random.Random(2)
    c = bundle.rows_by_id["E.1"].config()
    img = shuffled(rng, apply_map(random_unimodular(rng), c))
    fa = write_config(tmp_path, "a.txt", c.points)
    fb = write_config(tmp_path, "b.txt", img.points)
    rc = main(["equiv", fa, fb])
    out = capsys.readouterr().out
    assert rc == 0
    assert "equivalent" in out.splitlines()[0]
    assert "permutation:" in out
    assert "matrix:" in out
    assert "determinant:" in out


def test_equiv_white_tetrahedra(tmp_path, capsys):
    from emptytetra_oracles import standard_tetrahedron
    fa = write_config(tmp_path, "t27.txt", standard_tetrahedron(2, 7))
    fb = write_config(tmp_path, "t47.txt", standard_tetrahedron(4, 7))
    rc = main(["equiv", fa, fb])
    assert rc == 0
    assert "equivalent" in capsys.readouterr().out


def test_equiv_inequivalent_exits_one(tmp_path, bundle, capsys):
    fa = rep_file(tmp_path, bundle, "B.3")
    fb = rep_file(tmp_path, bundle, "B.4")
    rc = main(["equiv", fa, fb])
    out = capsys.readouterr().out
    assert rc == 1
    assert "inequivalent" in out


#: Row B.3 relabeled and moved by a unimodular map, as in the CI workflow.
B3_IMAGE = [(5, 1, -2), (2, 1, 0), (0, -1, -1), (3, 1, -1), (3, 0, -1), (2, 0, -1)]
#: Six points and their image under diag(1/2, 2, 1): equal tables and
#: maximal |volume|, different Hermite forms (test_equivalence._halved).
HALVED_PAIR = (
    [(-2, -2, 2), (0, 2, -1), (0, 2, 1), (2, 0, 1), (2, 1, -2), (4, -1, 0)],
    [(-1, -4, 2), (0, 4, -1), (0, 4, 1), (1, 0, 1), (1, 2, -2), (2, -2, 0)],
)


def test_equiv_work_is_pinned(tmp_path, bundle, capsys, monkeypatch):
    """equiv compares the maximal |volumes|, then least tables, and
    builds no Hermite form: no edge_form call, and one unimodular_map
    solve per least-table order of the second input when the tables
    agree.  B.3 and an image of it: four sorted tables and two solves.
    F.1 and F.3 share the least table off the quadruple but not the
    maximal |volume| (7 against 8): no table and no solve (the tables were
    built before the volumes were compared, 12 of them).  The halved pair
    shares both and differs in the Hermite form: two tables, and its one
    solve is not integral."""
    calls = count_calls(monkeypatch, equivalence.edge_form, equivalence.unimodular_map,
                        equivalence._table)
    cases = [
        (bundle.rows_by_id["B.3"].config().points, B3_IMAGE, 0, 4, 2),
        (bundle.rows_by_id["F.1"].config().points, bundle.rows_by_id["F.3"].config().points, 1, 0, 0),
        (*HALVED_PAIR, 1, 2, 1),
    ]
    for a, b, rc, tables, solves in cases:
        calls.update(edge_form=0, unimodular_map=0, _table=0)
        assert main(["equiv", write_config(tmp_path, "a.txt", a),
                     write_config(tmp_path, "b.txt", b)]) == rc
        capsys.readouterr()
        assert calls == {"edge_form": 0, "unimodular_map": solves, "_table": tables}, (a, b)


def test_equiv_size_mismatch_is_usage_error(tmp_path, bundle, capsys):
    fa = rep_file(tmp_path, bundle, "A.1")
    fb = write_config(tmp_path, "t.txt", [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
    rc = main(["equiv", fa, fb])
    assert rc == 2
    assert capsys.readouterr().err


SQUARE = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)]
UNIT_TETRAHEDRON = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]


@pytest.mark.parametrize("first, second", [
    (SQUARE, UNIT_TETRAHEDRON), (UNIT_TETRAHEDRON, SQUARE), (SQUARE, SQUARE),
], ids=["square-tetrahedron", "tetrahedron-square", "square-square"])
def test_equiv_coplanar_input_is_usage_error(tmp_path, capsys, first, second):
    """A coplanar input is an input error in either position, as in analyze."""
    fa = write_config(tmp_path, "a.txt", first)
    fb = write_config(tmp_path, "b.txt", second)
    assert main(["equiv", fa, fb]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: configuration spans no 3-dimensional volume\n"


#: equiv stdout recorded before the witness search became a normal-form
#: comparison: the cube against a relabeled unimodular image (48
#: witnesses), H.7 against one, and the benchmark's 8-point pair (G.3 plus
#: the points p1+p2-p3 and p2+p4-p5, against an image relabeled by the
#: permutation of rank 8!/4).
EQUIV_PINNED = [
    (
        [(0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1), (1, 0, 0), (1, 0, 1), (1, 1, 0), (1, 1, 1)],
        [(3, 2, -4), (3, 2, -3), (3, 3, -1), (2, 5, 5), (2, 4, 2), (2, 5, 6), (2, 4, 3), (3, 3, 0)],
        "equivalent\npermutation: 1 2 3 8 5 7 4 6\nmatrix: -1 0 0\nmatrix: 2 1 0\n"
        "matrix: 6 3 1\ntranslation: 3 2 -4\ndeterminant: -1\n",
    ),
    (
        [(0, 0, 0), (0, 0, 1), (1, 0, 0), (-1, -2, -1), (1, 3, 1), (-4, -7, -5)],
        [(2, 3, 5), (-1, 4, 3), (1, 3, 5), (-2, 2, 5), (5, 2, 8), (-2, 8, -2)],
        "equivalent\npermutation: 3 4 1 2 5 6\nmatrix: 1 2 -3\nmatrix: 0 0 -1\n"
        "matrix: 0 1 0\ntranslation: 1 3 5\ndeterminant: 1\n",
    ),
    (
        [(0, 0, 0), (-1, -1, -1), (1, 2, 1), (0, 0, 1), (1, 0, 0), (1, -1, 0), (-2, -3, -2),
         (-2, -1, 0)],
        [(-1, 3, 3), (1, -7, 0), (0, 0, 2), (0, 1, 2), (1, 0, 2), (1, 4, 3), (-2, 10, 5),
         (-2, 4, 3)],
        "equivalent\npermutation: 3 1 2 4 5 6 7 8\nmatrix: 1 0 0\nmatrix: 0 -4 1\n"
        "matrix: 0 -1 0\ntranslation: 0 0 2\ndeterminant: 1\n",
    ),
]


def test_equiv_stdout_is_pinned(tmp_path, capsys):
    for a, b, expected in EQUIV_PINNED:
        fa = write_config(tmp_path, "a.txt", a)
        fb = write_config(tmp_path, "b.txt", b)
        assert main(["equiv", fa, fb]) == 0
        assert capsys.readouterr().out == expected


#: sha256 of the outputs that a refactor must leave byte-identical:
#: `classify --case all --verbose` stdout and the --out JSON and CSV.
CLASSIFY_DIGESTS = {
    "verbose stdout": "db2d335acaa7fc1e254308aa7831d14b7ce6f46603c65ec1df49b4637cdb43f7",
    "json": "40fee2e86db605c6d3f56e0beb2c1f2e70f0e1cb8f6025b936917437be7cb734",
    "csv": "a7c6cff34f35df9ece31d8bc4bbdc61b9448b7af164d067d1beb351d092f3323",
}


def test_classify_outputs_match_recorded_digests(tmp_path, capsys, monkeypatch, case_reports):
    """The three runs share the case_reports fixture's classification;
    each still runs classify_all's verification."""
    reports, _ = case_reports
    monkeypatch.setattr(classify6, "run_reports", lambda: list(reports))
    assert main(["classify", "--case", "all", "--verbose"]) == 0
    outputs = {"verbose stdout": capsys.readouterr().out.encode()}
    for fmt in ("json", "csv"):
        target = tmp_path / f"classes.{fmt}"
        assert main(["classify", "--case", "all", "--out", str(target), "--format", fmt]) == 0
        capsys.readouterr()
        outputs[fmt] = target.read_bytes()
    differ = [name for name, data in outputs.items()
              if hashlib.sha256(data).hexdigest() != CLASSIFY_DIGESTS[name]]
    assert not differ, f"differs from the recorded output: {', '.join(differ)}"


def test_catalog_oms(capsys):
    rc = main(["catalog", "--what", "oms"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.strip().splitlines()[-1] == (
        "55 oriented matroids (22 realized with width > 1, 20 with width one, 13 dps)"
    )


def test_catalog_classes(capsys):
    rc = main(["catalog", "--what", "classes"])
    out = capsys.readouterr().out.strip().splitlines()
    assert rc == 0
    assert len(out) == 77  # one row per class plus the footer
    assert out[0].startswith("A.1")
    assert out[-1] == "76 classes"


def test_catalog_size5(capsys):
    """Each concrete row lists its points joined by "; ", with no separator
    after the last point, and no line ends in whitespace."""
    rc = main(["catalog", "--what", "size5"])
    out = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert out[-1] == "13 size-5 rows"
    assert out[0] == ("signature (2, 2) width 1 vv -1 1 1 -1 0  "
                      "points 0 0 0; 1 0 0; 0 1 0; 1 1 0; 0 0 1")
    assert [line for line in out if line != line.rstrip()] == []


def test_bad_subcommand_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["catalog", "oms"])
    assert exc.value.code == 2


#: One member of each width-one family, by family id.
WIDTH_ONE_MEMBERS = {
    "(4,2)/4.1": (1, 0), "(4,2)/5.6": (3, 1), "(4,2)/5.8": (2, 1), "(4,2)/4.15": (2, 1),
    "(4,2)/4.9": (2, 1), "(3,3)/2.1": (1, 0), "(3,3)/4.15": (1, 1), "(3,3)/5.8": (2,),
    "(3,3)/5.15": (4,), "(3,3)/6.4": (1, 1, 2, 3),
}


def test_analyze_names_width_one_oriented_matroids(tmp_path, bundle, capsys):
    """analyze names the bundled label of each width-one single and of one
    member of each width-one family, alone or in an "a or b" pair: the
    catalog's record keys agree with the label map on the 20 width-one
    oriented matroids."""
    fams = bundle.width1_families
    inputs = [(f"{s['table']}/{s['om_label']}", (), s["om_label"]) for s in fams["singles"]]
    inputs += [(f["family_id"], WIDTH_ONE_MEMBERS[f["family_id"]], f["om_label"])
               for f in fams["families"]]
    assert (len(inputs), len({label for _, _, label in inputs})) == (27, 20)
    for name, params, label in inputs:
        path = write_config(tmp_path, "width1.txt", width1_family(name, params).points)
        assert main(["analyze", path]) == 0
        (named,) = [line.split(": ", 1)[1] for line in capsys.readouterr().out.splitlines()
                    if line.startswith("oriented matroid: ")]
        assert label in named.split(" or "), (name, params, named)
