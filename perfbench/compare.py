"""Compare two result sets from suite.py against the bounds in BENCHMARK.json.

    python3 perfbench/compare.py perfbench/out/sets/base.json perfbench/out/sets/change.json

Runs are paired by (workload, seed).  Each (metric, workload) pair gets one
label:

- worse: the change's median is worse than the base median by more than
  the metric's bound;
- improved: every change run beats every base run, or the change wins at
  least nine tenths of the seed pairs and the medians differ by more than
  the distance between the base quartiles;
- unresolved: neither of those, and the base runs spread wider than the
  bound, so "no change" cannot be told from noise;
- unchanged: otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from suite import BENCHMARK, summary


def label(base, new, better, bound):
    """(label, relative change of the median, signed so that positive is worse)."""
    sign = 1.0 if better == "lower" else -1.0
    med_b, q1_b, q3_b, spread_b = summary(list(base.values()))
    med_n = summary(list(new.values()))[0]
    worse_by = sign * (med_n - med_b) / med_b
    seeds = base.keys() & new.keys()
    wins = sum(1 for s in seeds if sign * (new[s] - base[s]) < 0)
    all_better = max(sign * v for v in new.values()) < min(sign * v for v in base.values())
    if worse_by > bound:
        return "worse", worse_by
    if all_better or (seeds and wins >= 0.9 * len(seeds) and worse_by < 0
                      and abs(med_n - med_b) > q3_b - q1_b):
        return "improved", worse_by
    if spread_b > bound:
        return "unresolved", worse_by
    return "unchanged", worse_by


def values(result_set, workload, metric):
    return {r["seed"]: r["result"]["metrics"][metric]["value"]
            for r in result_set["runs"] if r["workload"] == workload}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    bench = json.loads(BENCHMARK.read_text())
    base = json.loads(Path(args.base).read_text())
    new = json.loads(Path(args.change).read_text())

    workloads = [w["name"] for w in bench["workloads"]
                 if any(r["workload"] == w["name"] for r in base["runs"])]
    print(f"{'workload':<13} {'metric':<16} {'base median':>12} {'change median':>14} "
          f"{'worse by':>9} {'bound':>6}  label")
    for workload in workloads:
        for metric in bench["end_to_end"]:
            b = values(base, workload, metric["name"])
            n = values(new, workload, metric["name"])
            if not b or not n:
                continue
            verdict, worse_by = label(b, n, metric["better"], metric["bound"])
            print(f"{workload:<13} {metric['name']:<16} {summary(list(b.values()))[0]:12.6g} "
                  f"{summary(list(n.values()))[0]:14.6g} {worse_by:+9.3f} {metric['bound']:6}  {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
