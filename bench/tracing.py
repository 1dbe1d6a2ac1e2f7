"""Spans around calls into lattice6's public functions, for the traced run.

The wrappers are installed from outside: every lattice6 module attribute
(and every tuple of functions, such as the case-runner table) that refers
to a spanned function is replaced by a wrapper, so calls through
``from .polytope import size`` style imports are caught too.  Each call
records one span (name, start, end, parent) in flat arrays kept in memory;
the per-layer figures are computed from them when the run ends.

Not spanned, and so charged to their callers: the scalar helpers of
``exactlinalg`` (det3, det4, dot, ...; everything but solve_affine),
generator functions (iter_hull_lattice_points is consumed by its caller),
``polytope.point_in_hull`` (only vertices calls it) and
``equivalence.vv6_relabeled``, which is counted but not spanned because
each canonical_key makes 720 such calls.
"""

from __future__ import annotations

import inspect
from array import array
from collections import Counter
from time import perf_counter
from typing import Dict, List, Tuple

from oracles import box_volume

#: Functions whose calls count as lattice-point enumerations.
ENUM_FUNCTIONS = ("polytope.size", "polytope.size_exceeds", "polytope.lattice_points",
                  "polytope.interior_points")
COUNT_ONLY = ("equivalence.vv6_relabeled",)
NOT_SPANNED = ("polytope.point_in_hull",)
CASE_RUNNERS = {f"classify6.run_case_{c.lower()}": c for c in "ABCDEF"}
CASE_RUNNERS["classify6.run_case_gh"] = "GH"


class SpanRecorder:
    """Flat in-memory span store plus the counters kept beside it."""

    def __init__(self):
        self.names: List[str] = []
        self.name_id: Dict[str, int] = {}
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: List[int] = []
        self.counts: Counter = Counter()
        self.box_points = 0

    def intern(self, name: str) -> int:
        if name not in self.name_id:
            self.name_id[name] = len(self.names)
            self.names.append(name)
        return self.name_id[name]

    def span_wrapper(self, fn, name: str):
        nid = self.intern(name)
        stack, names, parents = self.stack, self.span_name, self.parent
        starts, ends, clock = self.start, self.end, perf_counter
        enum = name in ENUM_FUNCTIONS
        rec = self

        def wrapper(*args, **kwargs):
            if enum:
                rec.box_points += box_volume(args[0].points)
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def count_wrapper(self, fn, name: str):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- reduction ---------------------------------------------------------

    def totals(self) -> Tuple[Counter, Counter, Counter, Counter]:
        """Per function name: calls, inclusive seconds, self seconds, and
        solve_affine calls whose parent span lies in each module."""
        n = len(self.start)
        child = array("d", bytes(8 * n))
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls, incl, self_s, solves_from = Counter(), Counter(), Counter(), Counter()
        solve_id = self.name_id.get("exactlinalg.solve_affine", -1)
        for i in range(n):
            name = self.names[self.span_name[i]]
            dur = self.end[i] - self.start[i]
            calls[name] += 1
            incl[name] += dur
            self_s[name] += dur - child[i]
            if self.span_name[i] == solve_id and self.parent[i] >= 0:
                caller = self.names[self.span_name[self.parent[i]]]
                solves_from[caller.split(".")[0]] += 1
        return calls, incl, self_s, solves_from

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start,end,parent\n")
            for i in range(len(self.start)):
                fh.write(f"{i},{self.names[self.span_name[i]]},{self.start[i]!r},"
                         f"{self.end[i]!r},{self.parent[i]}\n")


def _spanned_functions(modules: Dict[str, object]):
    """(original, qualified name) of every public function to wrap."""
    out = {}
    for short, mod in modules.items():
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                continue
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isgeneratorfunction(obj):
                continue
            name = f"{short}.{attr}"
            if short == "exactlinalg" and attr != "solve_affine":
                continue
            if name in NOT_SPANNED:
                continue
            out[id(obj)] = (obj, name)
    return out


def install(rec: SpanRecorder, modules: Dict[str, object], package) -> List[tuple]:
    """Wrap every reference to a spanned function; returns an undo list."""
    targets = _spanned_functions(modules)
    wrappers = {}
    for key, (fn, name) in targets.items():
        make = rec.count_wrapper if name in COUNT_ONLY else rec.span_wrapper
        wrappers[key] = make(fn, name)
    undo = []
    for mod in list(modules.values()) + [package]:
        for attr, obj in list(vars(mod).items()):
            if id(obj) in wrappers:
                new = wrappers[id(obj)]
            elif isinstance(obj, tuple) and any(id(o) in wrappers for o in obj):
                new = tuple(wrappers.get(id(o), o) for o in obj)
            else:
                continue
            undo.append((mod, attr, obj))
            setattr(mod, attr, new)
    return undo


def uninstall(undo: List[tuple]) -> None:
    for mod, attr, obj in reversed(undo):
        setattr(mod, attr, obj)


def layer_metrics(rec: SpanRecorder, reports=None) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric by name, as (value, unit)."""
    calls, incl, self_s, solves_from = rec.totals()

    def module_self(mod):
        return sum(v for k, v in self_s.items() if k.split(".")[0] == mod)

    m: Dict[str, Tuple[float, str]] = {}
    m["polytope.self_s"] = (module_self("polytope"), "s")
    m["polytope.enum.calls"] = (sum(calls[f] for f in ENUM_FUNCTIONS), "count")
    m["polytope.box_points"] = (rec.box_points, "computed_points")
    m["polytope.vertices.self_s"] = (self_s["polytope.vertices"], "s")
    m["invariants.self_s"] = (module_self("invariants"), "s")
    m["invariants.circuits.calls"] = (calls["invariants.circuits"], "count")
    for f in ("circuits", "width", "is_dps"):
        m[f"invariants.{f}.self_s"] = (self_s[f"invariants.{f}"], "s")
    m["exactlinalg.solve_affine.calls"] = (calls["exactlinalg.solve_affine"], "count")
    m["exactlinalg.self_s"] = (module_self("exactlinalg"), "s")
    m["equivalence.self_s"] = (module_self("equivalence"), "s")
    m["equivalence.canonical_key.calls"] = (calls["equivalence.canonical_key"], "count")
    m["equivalence.canonical_key.self_s"] = (self_s["equivalence.canonical_key"], "s")
    m["equivalence.equivalence_witness.calls"] = (calls["equivalence.equivalence_witness"], "count")
    m["equivalence.relabelings"] = (rec.counts["equivalence.vv6_relabeled"], "count")
    m["equivalence.affine_solves"] = (solves_from["equivalence"], "count")
    m["omcatalog.self_s"] = (module_self("omcatalog"), "s")
    m["omcatalog.match_om.calls"] = (calls["omcatalog.match_om"], "count")
    m["omcatalog.canonical_circuit_form.self_s"] = (self_s["omcatalog.canonical_circuit_form"], "s")
    m["emptytetra.is_empty_tetrahedron.calls"] = (calls["emptytetra.is_empty_tetrahedron"], "count")
    for mod in ("emptytetra", "size5", "cli"):
        m[f"{mod}.self_s"] = (module_self(mod), "s")
    runner_total = 0.0
    for fn, case in CASE_RUNNERS.items():
        m[f"classify6.case_{case}_s"] = (incl[fn], "s")
        runner_total += incl[fn]
    verify = incl["classify6.classify_all"] - runner_total if calls["classify6.classify_all"] else 0.0
    m["classify6.verify_s"] = (verify, "s")
    candidates = sum(r.candidates_examined for r in reports) if reports else 0
    found = sum(len(r.classes_found) for r in reports) if reports else 0
    m["classify6.candidates"] = (candidates, "count")
    m["classify6.accept_ratio"] = (found / candidates if candidates else 0.0, "ratio")
    m["trace.spans"] = (len(rec.start), "count")
    return m
