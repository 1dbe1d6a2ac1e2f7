"""Benchmark runner for lattice6: one workload, one process, one client.

    python3 bench/run.py --workload analyze --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 10

Run from the root of a source checkout; the package is imported from its
``src`` directory.  The last line printed is a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import importlib
import io
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from array import array
from pathlib import Path
from time import perf_counter
from typing import Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("classify", "analyze", "equiv")
SETUP_REPEATS = 3
MODULES = ("polytope", "invariants", "exactlinalg", "equivalence", "emptytetra", "size5",
           "omcatalog", "classify6", "tablesdata", "cli")


class DeadlineExceeded(BaseException):
    """Raised by SIGALRM inside an operation that ran past its deadline."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


# ---------------------------------------------------------------------------
# speed probe: the host's vCPUs change speed by +-25% within seconds, so each
# timing is scaled to a reference speed sampled while the timing is taken

#: The probe is a fixed pure-Python loop of this many steps...
PROBE_STEPS = 3000
#: ...run from a SIGVTALRM handler after each this much CPU time of the process.
PROBE_INTERVAL_S = 0.025
#: A timing is scaled by the probes of this long before it began and while it ran.
PROBE_WINDOW_S = 0.5
#: Fewest probes a scale is taken from; earlier ones fill a short window.
#: As many are taken when the probe is installed.
PROBE_MIN_SAMPLES = 8
#: Mean probe duration that counts as reference speed: the mean on the
#: machine of the reference figures in README.md, where scaled times
#: therefore read about as raw ones at its usual speed.
PROBE_REFERENCE_S = 0.00028


class SpeedProbe:
    """Samples the interpreter's speed while installed (``with`` block).

    ``mark()`` starts a timing; ``stop(mark)`` ends it and returns its
    raw time, the wall time less the probe's own time inside it, and its
    scaled time, the raw time multiplied by PROBE_REFERENCE_S over the mean
    probe duration in its window.
    """

    def __init__(self):
        self.times = array("d")
        self.durations = array("d")
        self.spent = 0.0

    def _fire(self, signum, frame):
        t0 = perf_counter()
        acc = 0
        for i in range(PROBE_STEPS):
            acc += i * i % 7
        dt = perf_counter() - t0
        self.times.append(t0)
        self.durations.append(dt)
        self.spent += dt

    def __enter__(self):
        for _ in range(PROBE_MIN_SAMPLES):  # so the first timing has its samples
            self._fire(None, None)
        self._old = signal.signal(signal.SIGVTALRM, self._fire)
        signal.setitimer(signal.ITIMER_VIRTUAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        signal.signal(signal.SIGVTALRM, self._old)

    def mark(self):
        return perf_counter(), self.spent

    def stop(self, mark) -> Tuple[float, float]:
        t0, spent0 = mark
        raw = perf_counter() - t0 - (self.spent - spent0)
        first = min(bisect.bisect_left(self.times, t0 - PROBE_WINDOW_S),
                    len(self.durations) - PROBE_MIN_SAMPLES)
        return raw, raw * PROBE_REFERENCE_S / statistics.fmean(self.durations[first:])


# ---------------------------------------------------------------------------
# set-up: import plus the lazy first-use costs every CLI run pays


def set_up(probe):
    """Fresh import of lattice6 and its first-use caches, each step timed
    and scaled to reference speed."""
    for name in [n for n in sys.modules if n == "lattice6" or n.startswith("lattice6.")]:
        del sys.modules[name]
    times = {}
    start = probe.mark()
    package = importlib.import_module("lattice6")
    for mod in MODULES:
        importlib.import_module(f"lattice6.{mod}")
    mods = {m: sys.modules[f"lattice6.{m}"] for m in MODULES}
    if not Path(package.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"lattice6 imported from {package.__file__}, not from {SRC}")
    _, times["import_s"] = probe.stop(start)
    start = probe.mark()
    bundle = mods["tablesdata"].load_tables()
    _, times["tablesdata.load_tables_s"] = probe.stop(start)
    start = probe.mark()
    mods["omcatalog"].enumerate_oms()
    _, times["omcatalog.enumerate_oms_s"] = probe.stop(start)
    start = probe.mark()
    mods["classify6"].identify(bundle.class_rows[0].config())
    _, times["classify6.row_index_s"] = probe.stop(start)
    times["setup_s"] = sum(times.values())
    return package, mods, times


# ---------------------------------------------------------------------------
# one round of a workload


def _call_cli(cli, argv, deadline, probe):
    """(exit code, stdout, (raw, scaled) seconds, timed out) of one
    in-process CLI call; a call past its deadline takes the deadline as both."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if deadline is None:
            start = probe.mark()
            rc = cli.main(argv)
            return rc, out.getvalue(), probe.stop(start), False
        old = signal.signal(signal.SIGALRM, _on_alarm)
        try:
            start = probe.mark()
            try:
                signal.setitimer(signal.ITIMER_REAL, deadline)
                rc = cli.main(argv)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            return rc, out.getvalue(), probe.stop(start), False
        except DeadlineExceeded:
            return None, "", (deadline, deadline), True
        finally:
            signal.signal(signal.SIGALRM, old)


class Round:
    def __init__(self):
        self.latencies = []   # seconds per operation, scaled
        self.wall = 0.0       # their sum
        self.raw_wall = 0.0   # the same, not scaled
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.reports = None


def run_queries(mods, ops, probe) -> Round:
    r = Round()
    cli = mods["cli"]
    for op in ops:
        r.attempted += 1
        try:
            rc, stdout, (raw, scaled), timed_out = _call_cli(
                cli, [op.command, *op.paths], op.deadline, probe)
        except Exception as exc:  # a crash is a wrong answer; keep measuring the rest
            r.errors.append(f"{op.name}: raised {exc!r}")
            continue
        r.latencies.append(scaled)
        r.wall += scaled
        r.raw_wall += raw
        if timed_out:
            r.failed += 1
            continue
        check = workloads.check_analyze if op.command == "analyze" else workloads.check_equiv
        reason = check(op, rc, stdout)
        if reason:
            r.errors.append(f"{op.name}: {reason}")
    return r


def run_classify(mods, probe) -> Round:
    r = Round()
    start = probe.mark()
    reports = mods["classify6"].classify_all()
    r.raw_wall, r.wall = probe.stop(start)
    r.latencies.append(r.wall)
    r.attempted = 1
    r.reports = reports
    reason = workloads.check_classify(reports, SRC)
    if reason:
        r.errors.append(f"classify_all: {reason}")
    return r


# ---------------------------------------------------------------------------
# metrics


def tail_percentile(round_size: int) -> int:
    """Highest whole percentile with at least ten of one round's samples
    beyond it; 100 (the maximum) when a round has ten samples or fewer."""
    if round_size <= 10:
        return 100
    return math.floor(100 * (round_size - 10) / round_size)


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1]


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _result(correct, attempted, failed, metrics):
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def make_inputs(workload, seed, work_dir):
    if workload == "classify":
        return None
    make = workloads.analyze_ops if workload == "analyze" else workloads.equiv_ops
    ops = make(SRC, seed)
    for k, op in enumerate(ops):
        for j, pts in enumerate(op.configs):
            path = work_dir / f"op{k:03d}_{j}.txt"
            path.write_text("".join(f"{x} {y} {z}\n" for x, y, z in pts))
            op.paths.append(str(path))
    return ops


def run_workload(workload, seed, seconds, work_dir):
    ops = make_inputs(workload, seed, work_dir)
    with SpeedProbe() as probe:
        setups = []
        for _ in range(SETUP_REPEATS):
            _, mods, times = set_up(probe)
            setups.append(times["setup_s"])
        rounds = []
        t_start = perf_counter()
        # whole rounds only; stop before a round that would end past the budget
        while not rounds or (perf_counter() - t_start) * (len(rounds) + 1) / len(rounds) <= seconds:
            rounds.append(run_classify(mods, probe) if ops is None
                          else run_queries(mods, ops, probe))
    latencies = [x for r in rounds for x in r.latencies]
    round_size = rounds[0].attempted
    pct = tail_percentile(round_size)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(r.wall for r in rounds), "s"),
        "latency_p50_ms": (statistics.median(latencies) * 1000, "ms"),
        "latency_tail_ms": (percentile(latencies, pct) * 1000, "ms"),
        "peak_rss_mib": (peak_rss_mib(), "MiB"),
    }
    errors = [e for r in rounds for e in r.errors]
    info = {"rounds": len(rounds), "round_size": round_size, "tail_percentile": pct,
            "samples": len(latencies), "probes": len(probe.durations),
            "raw_wall_s": statistics.median(r.raw_wall for r in rounds)}
    return errors, sum(r.attempted for r in rounds), sum(r.failed for r in rounds), metrics, info


def run_traced(workload, seed, work_dir, spans_path=None):
    """The workload's round traced, for the per-layer metrics, while a child
    process runs the same round untraced (``--seconds 0``: one round) on
    the other CPU; the difference of the two scaled round times is
    trace.overhead_s.  Run one after the other, the two rounds of classify
    would make a traced run take 140 s or more."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--trace", "0"]
    child = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True, cwd=ROOT)
    try:
        ops = make_inputs(workload, seed, work_dir)
        with SpeedProbe() as probe:
            package, mods, times = set_up(probe)
            rec = tracing.SpanRecorder()
            undo = tracing.install(rec, mods, package)
            try:
                traced = (run_classify(mods, probe) if ops is None
                          else run_queries(mods, ops, probe))
            finally:
                tracing.uninstall(undo)
    except BaseException:
        child.kill()
        raise
    finally:
        out, _ = child.communicate()
    errors = list(traced.errors)
    lines = out.strip().splitlines()
    plain = json.loads(lines[-1]) if child.returncode == 0 and lines else None
    if plain is None or not plain["correct"]:
        errors.append(f"untraced child run failed with exit code {child.returncode}")
    metrics = tracing.layer_metrics(rec, traced.reports)
    for key in ("tablesdata.load_tables_s", "omcatalog.enumerate_oms_s", "classify6.row_index_s"):
        metrics[key] = (times[key], "s")
    plain_wall = plain["metrics"]["wall_s"]["value"] if plain else 0.0
    metrics["trace.overhead_s"] = (traced.wall - plain_wall, "s")
    if spans_path:
        rec.write_spans(spans_path)
    info = {"rounds": 1, "round_size": traced.attempted, "untraced_wall_s": plain_wall,
            "traced_wall_s": traced.wall}
    return errors, traced.attempted, traced.failed, metrics, info


def run_one(args) -> int:
    if not (SRC / "lattice6" / "__init__.py").is_file():
        print(f"error: no lattice6 sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work_dir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work_dir.mkdir(parents=True)
    try:
        if args.trace:
            errors, attempted, failed, metrics, info = run_traced(
                args.workload, args.seed, work_dir, args.spans)
        else:
            errors, attempted, failed, metrics, info = run_workload(
                args.workload, args.seed, args.seconds, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_dir.parent.rmdir()  # only when no other run is using it
    for e in errors[:20]:
        print(f"check failed: {e}", file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          + "  ".join(f"{k} {v}" for k, v in info.items()))
    print(f"  attempted {attempted}  failed {failed}  correct {not errors}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value:>16.6f} {unit}")
    result = _result(not errors, attempted, failed, metrics)
    if args.out:
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                 "seconds": args.seconds, "trace": args.trace,
                                 "result": result}) + "\n")
    print(json.dumps(result))
    return 0 if not errors else 1


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    results = {}
    for w in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.out:
            cmd += ["--out", args.out]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            return proc.returncode or 2
        print("\n".join(lines[:-1]))
        results[w] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="append {workload, seed, result} as one JSON line here")
    p.add_argument("--spans", help="traced run: write every span as CSV here")
    args = p.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
