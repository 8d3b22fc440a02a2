"""Run every workload over several seeds and summarise the spread of each metric.

    python3 perfbench/suite.py --seeds 1-10 --out perfbench/out/sets/base.json
    python3 perfbench/suite.py --workloads brackets --seeds 1-5 --trace 1

Each run is a separate ``run.py`` process, seed-major so that drifts of the
machine spread over all workloads.  For every (workload, metric) the table
gives the median, the quartiles and the spread, i.e. the distance between
the quartiles as a share of the median, next to the metric's bound from
BENCHMARK.json.  The saved set is the input of compare.py.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
BENCHMARK = HERE.parent / "BENCHMARK.json"


def parse_seeds(spec):
    seeds = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def summary(values):
    """(median, q1, q3, spread) with the quartiles of statistics.quantiles(n=4)."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def run_one(workload, seed, seconds, trace):
    """The run's JSON line, and the machine and failure causes from its record."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv[1:])} exited {proc.returncode}:\n{proc.stderr}")
    record = json.loads((HERE / "out" / "results" /
                         f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return json.loads(proc.stdout.strip().splitlines()[-1]), {
        key: record[key] for key in ("machine", "fail_share", "causes")}


def main(argv=None):
    bench = json.loads(BENCHMARK.read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(workloads.WORKLOADS))
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,7,11")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="file to save the result set in")
    args = parser.parse_args(argv)

    names = args.workloads.split(",")
    runs = []
    for seed in parse_seeds(args.seeds):
        for workload in names:
            start = time.perf_counter()
            result, about = run_one(workload, seed, args.seconds, args.trace)
            runs.append({"workload": workload, "seed": seed, "result": result, **about})
            print(f"{workload} seed {seed}: attempted {result['attempted']}, "
                  f"failed {result['failed']}, {time.perf_counter() - start:.1f} s", file=sys.stderr)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(
            {"seconds": args.seconds, "trace": args.trace, "runs": runs}, indent=1) + "\n")

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    print(f"{'workload':<13} {'metric':<40} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}  unit")
    for workload in names:
        mine = [r["result"]["metrics"] for r in runs if r["workload"] == workload]
        for name in mine[0]:
            med, q1, q3, spread = summary([m[name]["value"] for m in mine])
            bound = bounds.get(name)
            flag = "" if bound is None else ("  steady" if spread < bound / 3 else
                                             "  within bound" if spread <= bound else "  TOO WIDE")
            print(f"{workload:<13} {name:<40} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} "
                  f"{'' if bound is None else bound:>6}  {mine[0][name]['unit']}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
