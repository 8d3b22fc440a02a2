"""Run one workload in a process of its own and print its raw results as JSON.

Started by run.py; the process exists so that its peak resident memory can
be attributed to the workload.  The timed loop is a closed loop with one
client.  Only the command lines are timed: speed probes, output checks and
removal of stale output files happen between operations, outside the timed
interval.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --src DIR --workdir DIR [--spans FILE]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from collections import Counter
from pathlib import Path

import checks
import speed
import workloads

WARMUP_S = 1.0


def _invoke(cli, argv):
    """(exit code, stdout, name of an uncaught exception or None) of one command."""
    out, err = io.StringIO(), io.StringIO()
    code, exc_name = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # an uncaught exception is a failed operation, not a crash
            exc_name = type(exc).__name__
    return code, out.getvalue(), exc_name


def _read(path):
    try:
        return Path(path).read_text()
    except FileNotFoundError:
        return None


def run_loop(cli, ops, seconds, tracer=None):
    """Run operations round-robin until `seconds` of them have been timed.

    A speed probe runs between operations, so every operation's latency is
    also given normalised to the reference speed (see speed.py).
    """
    latencies, raw, causes = [], [], Counter()
    failed = bytes_out = 0
    measured = 0.0
    before = speed.probe()
    while measured < seconds:
        index = len(latencies)
        op = ops[index % len(ops)]
        for call in op:
            if call.out:
                Path(call.out).unlink(missing_ok=True)
        if tracer is not None:
            tracer.start_operation(index)
        start = time.perf_counter()
        outcomes = [_invoke(cli, call.argv) for call in op]
        elapsed = time.perf_counter() - start
        after = speed.probe()
        measured += elapsed
        raw.append(elapsed * 1e3)
        latencies.append(speed.normalise(elapsed * 1e3, before, after))
        before = after

        op_causes = []
        for call, outcome in zip(op, outcomes):
            text = _read(call.out) if call.out else None
            bytes_out += len(outcome[1].encode()) + (len(text.encode()) if text else 0)
            cause = checks.check_call(call, outcome, text)
            if cause:
                op_causes.append(cause)
        if op_causes:
            failed += 1
            causes.update(op_causes)
    return {"attempted": len(latencies), "failed": failed, "measured_s": measured,
            "normalised_s": sum(latencies) / 1e3, "latencies_ms": latencies,
            "raw_latencies_ms": raw, "causes": dict(causes), "bytes_out": bytes_out}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--src", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    sys.path.insert(0, args.src)
    import numpy
    from ads3s3 import cli

    if not Path(cli.__file__).resolve().is_relative_to(Path(args.src).resolve()):
        raise SystemExit(f"ads3s3 imported from {cli.__file__}, not from {args.src}")

    ops = workloads.materialize(args.workload, workloads.make_inputs(args.workload, args.seed),
                                args.workdir)
    warm_start = time.perf_counter()
    for op in ops:
        for call in op:
            _invoke(cli, call.argv)
        if time.perf_counter() - warm_start >= WARMUP_S:
            break

    # A traced run splits its time between an untraced and a traced loop of
    # equal length; the ratio of their rates is the tracing overhead.
    seconds = args.seconds / 2 if args.trace else args.seconds
    result = {"numpy": numpy.__version__, "untraced": run_loop(cli, ops, seconds)}
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            traced = run_loop(cli, ops, seconds, tracer)
        finally:
            tracer.remove()
        traced["metrics"] = tracer.metrics(traced["attempted"], traced["bytes_out"])
        traced["span_count"] = len(tracer.spans)
        if args.spans:
            tracer.write_spans(args.spans)
        result["traced"] = traced

    # Outside every timed loop: inputs the workload leaves out because the
    # program is known to get them wrong (see workloads.defect_probe).
    probe = workloads.defect_probe(args.workload, args.seed, args.workdir)
    probe_causes = Counter()
    for call in probe:
        cause = checks.check_call(call, _invoke(cli, call.argv), _read(call.out) if call.out else None)
        if cause:
            probe_causes[cause] += 1
    result["defect_probe"] = {"calls": len(probe), "failed": sum(probe_causes.values()),
                              "causes": dict(probe_causes)}

    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
