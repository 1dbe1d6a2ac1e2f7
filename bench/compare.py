"""Compare two sets of benchmark results against the bounds in BENCHMARK.json.

    python3 bench/compare.py first.jsonl second.jsonl

Each file holds the lines ``run.py --out FILE`` appends, one per run.  Only
untraced runs are used.  For every workload and end-to-end metric one row
gives each set's run count, median and spread (distance between the first
and third quartile over the median), and the second set's change against
the first, in the metric's worse direction.  A last row per workload
compares the share of failed operations, which may fall but not rise.

Verdicts: ``ok``; ``worse`` when the second median is worse than the first
by more than the bound; ``unresolved`` when either spread exceeds the bound
(unless every run of the second set reads better than every run of the
first); ``incorrect`` when a run reported wrong outputs; ``more failed`` when
the second set fails a larger share of its operations.  The exit code is
1 when any row is not ``ok``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path):
    by_workload = defaultdict(list)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                if not rec.get("trace"):
                    by_workload[rec["workload"]].append(rec["result"])
    return by_workload


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def compare(first, second, spec):
    rows = []
    for workload in sorted(set(first) | set(second)):
        a_runs, b_runs = first.get(workload, []), second.get(workload, [])
        if not a_runs or not b_runs:
            rows.append((workload, "-", "", "", "", "", "", "", "", "", "missing"))
            continue
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            a = [r["metrics"][name]["value"] for r in a_runs]
            b = [r["metrics"][name]["value"] for r in b_runs]
            sign = 1 if m["better"] == "lower" else -1
            ma, mb = statistics.median(a), statistics.median(b)
            change = sign * (mb - ma) / ma
            sa, sb = spread(a), spread(b)
            if not all(r["correct"] for r in a_runs + b_runs):
                verdict = "incorrect"
            elif change > bound:
                verdict = "worse"
            elif max(sa, sb) > bound and not max(sign * v for v in b) < min(sign * v for v in a):
                verdict = "unresolved"
            else:
                verdict = "ok"
            rows.append((workload, name, m["unit"], len(a), f"{ma:.6g}", f"{sa:.3f}",
                         len(b), f"{mb:.6g}", f"{sb:.3f}", f"{change:+.3f}/{bound}", verdict))
        share = [Fraction(sum(r["failed"] for r in runs), sum(r["attempted"] for r in runs))
                 for runs in (a_runs, b_runs)]
        rows.append((workload, "failed_share", "", len(a_runs), str(share[0]), "",
                     len(b_runs), str(share[1]), "", "no rise",
                     "more failed" if share[1] > share[0] else "ok"))
    return rows


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Compare two sets of benchmark results.")
    p.add_argument("first")
    p.add_argument("second")
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = compare(load(args.first), load(args.second), spec)
    header = ("workload", "metric", "unit", "n1", "median1", "spread1",
              "n2", "median2", "spread2", "change/bound", "verdict")
    widths = [max(len(str(r[i])) for r in rows + [header]) for i in range(len(header))]
    for r in [header] + rows:
        print("  ".join(str(v).ljust(w) for v, w in zip(r, widths)).rstrip())
    return 0 if all(r[-1] == "ok" for r in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
