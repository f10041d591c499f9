"""Tests of the tracer and of the run's accounting."""

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import gftpoisson
import gftpoisson.cli
import calibration
import run
import worker
import workloads
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent


def _namespaces():
    mods = [m for n, m in sys.modules.items()
            if (n == "gftpoisson" or n.startswith("gftpoisson.")) and m is not None]
    return {m.__name__: dict(vars(m)) for m in mods}


def test_uninstall_restores_every_original():
    before = _namespaces()
    tracer = Tracer(gftpoisson)
    tracer.install()
    try:
        # wrappers sit on every binding, not only in the defining module
        for mod, name in ((gftpoisson.theorems, "coeffs_F"), (gftpoisson.cli, "coeffs_F"),
                          (gftpoisson.suite, "coeffs_F"), (gftpoisson.thresholds, "evaluate"),
                          (gftpoisson.suite, "evaluate"), (gftpoisson, "evaluate"),
                          (gftpoisson.series, "coeffs_F")):
            assert getattr(mod, name) is not before[mod.__name__][name], (mod, name)
        assert all(a is not b for a, b in zip(gftpoisson.suite._CHECKS,
                                              before["gftpoisson.suite"]["_CHECKS"]))
    finally:
        tracer.uninstall()
    _assert_restored(before)


def _assert_restored(before):
    after = _namespaces()
    assert after.keys() == before.keys()
    for mod, names in before.items():
        assert after[mod].keys() == names.keys()
        for name, obj in names.items():
            assert after[mod][name] is obj, (mod, name)


def test_traced_run_alternates_passes_and_uninstalls_after_each():
    before = _namespaces()
    runner = worker.Runner(gftpoisson, "threshold_sweep",
                           workloads.threshold_inputs(3, count=12))
    out = worker.traced(gftpoisson, runner, 0)
    _assert_restored(before)
    # one untraced and one traced pass, each over every input
    assert out["passes"] == 1
    assert len(out["plain_ms"]) == len(out["traced_ms"]) == 12
    assert out["counts"]["thresholds.solve_calls"] == 12
    assert runner.mismatches == 0


def test_counts_and_self_time_of_a_threshold_solve():
    tally = {}
    tracer = Tracer(gftpoisson, worker._tally_hooks(gftpoisson, tally))
    tracer.install()
    try:
        gftpoisson.solve_m_star(gftpoisson.PredicateId.T1_F_in_S,
                                gftpoisson.ClassParams(k=1.0, lam=0.0))
    finally:
        tracer.uninstall()
    counts, times = worker.layer_metrics(tracer, tally)
    # the README's example: 44 margin evaluations
    assert counts["thresholds.solve_calls"] == 1
    assert counts["thresholds.evals_per_solve"] == 44
    assert counts["theorems.evaluate_calls"] == 44
    totals = tracer.layer_totals()
    solve_total = tracer.total_ns("thresholds.solve_m_star")
    # self times partition the outermost span
    assert sum(t["self_ns"] for t in totals.values()) == solve_total
    assert 0 < times["thresholds.self_ms"] < solve_total / 1e6


def test_draw_candidates_count_only_calls_from_the_draws():
    tracer = Tracer(gftpoisson)
    tracer.install()
    try:
        import random
        rng = random.Random(3)
        gftpoisson.suite.draw_t1_holding(rng)
        gftpoisson.suite.check_bracket_identity(rng, draws=5)   # calls t4_lhs itself
    finally:
        tracer.uninstall()
    assert tracer.calls("suite.draw_t1_holding") == 1
    assert tracer.calls("theorems.t1_lhs", "suite.draw_") >= 1
    assert tracer.calls("theorems.t4_lhs", "suite.draw_") == 0
    # the check calls t4_lhs directly and once more inside each t5_lhs
    assert tracer.calls("theorems.t4_lhs", "suite.check_bracket_identity") == 5
    assert tracer.calls("theorems.t4_lhs", "theorems.t5_lhs") == 5


def test_runner_counts_outputs_that_change_between_repeats():
    fake = types.SimpleNamespace(calls=0)

    def flaky(gft, x):
        fake.calls += 1
        return "a" if fake.calls < 3 else "b"

    runner = worker.Runner(None, "crosscheck_mix", [{}, {}])
    runner.op = flaky
    for i in (0, 1, 0, 1):
        runner.run(i)
    assert runner.outputs == ["a", "a"]
    assert runner.mismatches == 2


def test_percentiles_need_ten_samples_beyond_them():
    assert set(run.latency_summary(list(range(99)))) == {"op_p50_ms"}
    assert set(run.latency_summary(list(range(999)))) == {"op_p50_ms", "op_p90_ms"}
    assert set(run.latency_summary(list(range(100)))) == {"op_p50_ms", "op_p90_ms"}
    summary = run.latency_summary(list(range(1, 1001)))
    assert summary == {"op_p50_ms": 500.5, "op_p90_ms": 900, "op_p99_ms": 990}


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)


def test_run_refuses_a_directory_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "suite_checks",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_kernel_samples_grow_with_the_op_time():
    assert len(calibration.kernel_after(0)) == 1
    assert len(calibration.kernel_after(2.5e6)) == 3
    assert len(calibration.kernel_after(10e9)) == calibration.MAX_SAMPLES
    assert all(t > 0 for t in calibration.kernel_after(0))


def test_timed_passes_divide_each_op_by_the_kernel_time_after_it():
    runner = worker.Runner(gftpoisson, "threshold_sweep",
                           workloads.threshold_inputs(3, count=12))
    done, best_ms, ratios = runner.passes(0)
    assert done == 1 and len(best_ms) == len(ratios) == 12
    assert len(runner.kernel_ns) >= 12
    assert all(r > 0 for r in ratios)
