"""Tests of the benchmark itself:  python3 -m pytest perfbench"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

import checks
import compare
import run
import tracing
import workloads
from workloads import Call

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))


# -- inputs ----------------------------------------------------------------

@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    first = workloads.make_inputs(workload, 7)
    assert first == workloads.make_inputs(workload, 7)
    assert first != workloads.make_inputs(workload, 8)
    assert len(first) == workloads.INPUT_COUNT[workload]


def test_verify_sweep_mix():
    inputs = workloads.make_inputs("verify_sweep", 3)
    kinds = [item["kind"] for item in inputs[:600]]
    assert kinds.count("canonical") == 300 and kinds.count("perturbed") == 120
    assert {item["n"] for item in inputs if item["perturb"]} == set(range(1, 13))
    assert {item["n"] for item in inputs if not item["perturb"]} == {workloads.EXACT_WINDING}
    assert all(workloads.admissible(item["f"], item["b"]) and item["b"] > 1.0 for item in inputs)
    assert {item["edge"] for item in inputs} == {"interior", "f=b", "f=fmax"}
    assert all(abs(c) <= workloads.FRAME_BOOST for item in inputs if item["frame"]
               for c in item["frame"][:6])


def test_brackets_seeds_are_screened():
    seeds = {item["seed"] for item in workloads.make_inputs("brackets", 2)}
    assert seeds == set(workloads.STRING_SEEDS)
    assert not seeds & set(workloads.FAILING_STRING_SEEDS)


def test_defect_probe_keeps_the_left_out_inputs(tmp_path):
    calls = workloads.defect_probe("verify_sweep", 4, tmp_path)
    assert calls == workloads.defect_probe("verify_sweep", 4, tmp_path)
    verify = [c for c in calls if c.command == "verify"]
    assert {c.info["n"] for c in verify if c.expect_exit == 0} == set(range(2, 13))
    assert {c.info["edge"] for c in calls} == {"interior", "b=1", "corner"}
    assert [c.argv[-1] for c in workloads.defect_probe("brackets", 4, tmp_path)] == [
        str(k) for k in workloads.FAILING_STRING_SEEDS]
    assert workloads.defect_probe("mesh_scan", 4, tmp_path) == []


def test_mesh_scan_sizes_stay_in_range():
    for item in workloads.make_inputs("mesh_scan", 5):
        assert 40 <= item["scan"]["f_count"] <= 120 and 40 <= item["scan"]["b_count"] <= 120
        assert 48 <= item["sample"]["tau_steps"] <= 128
        assert 48 <= item["sample"]["sigma_steps"] <= 128


# -- self time -------------------------------------------------------------

def test_self_time_on_synthetic_tree():
    # root [0, 100] with children [10, 30] and [40, 90]; the second has a
    # child [50, 60].  A child running past its parent is clipped.
    spans = [
        ("root", 0, 100, -1, 0),
        ("a", 10, 30, 0, 0),
        ("b", 40, 90, 0, 0),
        ("c", 50, 60, 2, 0),
        ("other", 200, 210, -1, 1),
        ("late", 205, 230, 4, 1),
    ]
    assert tracing.self_times(spans) == [30, 20, 40, 10, 5, 25]


def test_self_time_of_overlapping_children_counts_the_union():
    spans = [("p", 0, 100, -1, 0), ("x", 10, 50, 0, 0), ("y", 30, 70, 0, 0)]
    assert tracing.self_times(spans)[0] == 40


# -- output checks ---------------------------------------------------------

def _bridge_call():
    return Call("bridge", ["bridge"], info={"n": 1})


def test_checker_flags_bare_nan():
    cause = checks.check_call(_bridge_call(), (0, '{"n": 1, "cosbeta": NaN}', None))
    assert cause == "bridge: output is not strict JSON (bare NaN)"
    assert checks.check_call(_bridge_call(), (0, '{"n": 1, "cosbeta": 0.5}', None)) is None


def test_checker_flags_wrong_exit_code():
    exact = Call("verify", ["verify"], 0, info={"n": 7})
    cause = checks.check_call(exact, (2, '{"ok": false}', None))
    assert cause == "verify: exit 2, expected 0 (n=7)"
    perturbed = Call("verify", ["verify"], 2, info={"n": 7})
    assert checks.check_call(perturbed, (2, '{"ok": false}', None)) is None
    assert checks.check_call(perturbed, (0, '{"ok": true}', None)) is not None


def test_checker_flags_out_of_tolerance_residuals():
    string = Call("brackets", [], info={"mode": "string"})
    particle = Call("brackets", [], info={"mode": "particle"})
    assert checks.check_call(string, (0, '{"max_algebra_residual": 5e-6}', None)) is None
    assert checks.check_call(particle, (0, '{"max_algebra_residual": 5e-6}', None)) is not None
    charges = Call("charges", [])
    assert checks.check_call(charges, (0, '{"quadrature_gap": 1e-12}', None)) is None
    assert checks.check_call(charges, (0, '{"quadrature_gap": 1e-9}', None)) is not None


def test_checker_flags_uncaught_exception_and_missing_file():
    call = Call("scan", [], out="scan.csv", info={"f_count": 1, "b_count": 1})
    assert checks.check_call(call, (None, "", "ValueError")) == "scan: uncaught ValueError"
    assert checks.check_call(call, (0, "", None), None) == "scan: wrote no output file"


def test_scan_check_recomputes_admissibility():
    call = Call("scan", [], out="scan.csv", info={"f_count": 2, "b_count": 1})
    good = "f,b,admissible\n1.5,1.0,true\n3.0,1.0,false\n"
    assert checks.check_call(call, (0, "", None), good) is None
    bad = "f,b,admissible\n1.5,1.0,true\n3.0,1.0,true\n"
    assert checks.check_call(call, (0, "", None), bad).startswith("scan: admissible column wrong")
    assert checks.check_call(call, (0, "", None), good + "2.0,1.0,true\n").startswith("scan: scan has 3 rows")


def test_sample_check_reads_embedding_constraints(tmp_path):
    from ads3s3.cli import main

    call = Call("sample", [], out="m.json",
                info={"tau_steps": 4, "sigma_steps": 5, "format": "json"})
    out = tmp_path / "m.json"
    assert main(["sample", "--f", "1.6", "--b", "1.25", "--tau-steps", "4",
                 "--sigma-steps", "5", "--format", "json", "--out", str(out)]) == 0
    rows = json.loads(out.read_text())
    assert checks.check_call(call, (0, "", None), json.dumps(rows)) is None
    rows[0]["Y1"] += 1e-9
    assert "embedding constraint" in checks.check_call(call, (0, "", None), json.dumps(rows))


# -- tracing ---------------------------------------------------------------

def _namespace_snapshot():
    import ads3s3  # noqa: F401

    snap = {}
    for name, module in list(sys.modules.items()):
        if name == "ads3s3" or name.startswith("ads3s3."):
            snap[name] = dict(vars(module))
    algebra = sys.modules["ads3s3.algebra"]
    symplectic = sys.modules["ads3s3.symplectic"]
    for cls in [getattr(algebra, c) for c in tracing.VALIDATED_CLASSES] + [
            symplectic.StringChart, symplectic.ParticleChart, symplectic.TwoFormMatrix]:
        snap[cls.__qualname__] = dict(vars(cls))
    return snap


def test_remove_restores_original_objects(capsys):
    from ads3s3 import cli

    before = _namespace_snapshot()
    original_bridge = cli.bridge_invariants
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.bridge_invariants is not original_bridge
        assert sys.modules["ads3s3"].bridge is cli.bridge_invariants
        tracer.start_operation(0)
        assert cli.main(["bridge", "--f", "1.6", "--b", "1.25"]) == 0
    finally:
        tracer.remove()
    capsys.readouterr()
    after = _namespace_snapshot()
    assert before.keys() == after.keys()
    for key in before:
        assert before[key].keys() == after[key].keys(), key
        for attr, value in before[key].items():
            assert after[key][attr] is value, f"{key}.{attr}"
    names = [span[0] for span in tracer.spans]
    assert names[0] == "cli.main" and "cli.cmd_bridge" in names and "bridge.bridge" in names
    assert all(span[4] == 0 for span in tracer.spans)
    metrics = tracer.metrics(1, 0)
    assert metrics["cli.main.calls"] == 1 and metrics["bridge.bridge.calls"] == 1
    assert metrics["algebra.validated_objects"] == 0


def test_tracer_counts_errors_once_per_module(capsys):
    from ads3s3 import cli

    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.start_operation(0)
        # f < b: RegionError leaves bridge.bridge and cmd_bridge; main catches it
        assert cli.main(["bridge", "--f", "1.1", "--b", "1.25"]) == 1
    finally:
        tracer.remove()
    capsys.readouterr()
    assert tracer.errors["bridge"] == 1
    assert tracer.errors["cli"] == 1


# -- benchmark description -------------------------------------------------

def test_benchmark_json_matches_the_code():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == tracing.per_layer_metrics()
    assert all(m["bound"] <= 0.25 for m in bench["end_to_end"])
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


def test_compare_labels():
    base = {seed: 100.0 + seed for seed in range(10)}
    assert compare.label(base, {s: v * 1.5 for s, v in base.items()}, "lower", 0.2)[0] == "worse"
    assert compare.label(base, {s: v * 0.5 for s, v in base.items()}, "lower", 0.2)[0] == "improved"
    assert compare.label(base, dict(base), "lower", 0.2)[0] == "unchanged"
    assert compare.label(base, {s: v * 0.5 for s, v in base.items()}, "higher", 0.2)[0] == "worse"
    noisy = {seed: 100.0 * (1 + (seed % 2)) for seed in range(10)}
    assert compare.label(noisy, dict(noisy), "lower", 0.2)[0] == "unresolved"


def test_percentile_is_harrell_davis():
    assert run.percentile([4, 1, 3, 2], 50) == pytest.approx(2.5)
    assert run.percentile([7.0] * 5, 85) == pytest.approx(7.0)
    assert run.percentile([3.0], 95) == pytest.approx(3.0)
    # For a large uniform sample it agrees with the interpolated order statistic.
    assert run.percentile(list(range(1001)), 95) == pytest.approx(950, abs=1)
    # Weights from the exact Beta(3.6, 2.4) distribution function.
    assert run.percentile([1, 2, 4, 8, 16], 60) == pytest.approx(6.98892, abs=1e-4)
