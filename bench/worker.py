"""Worker process: imports the package from the checkout and runs one workload.

Reads a JSON job from stdin and writes a JSON result to stdout.  The job names
the package source directory, the workload, its generated inputs and the
seconds to measure.  The worker runs the workload as a closed loop in one
thread: an untimed warm-up pass, then whole passes over the inputs until the
seconds are spent, each op followed by samples of the calibration kernel
(see calibration.py).  It reports each input's median time relative to the
kernel, and its fastest time.  With "trace" set it instead alternates
untraced and traced passes for the per-layer numbers.

Only this process imports the package; the parent never does.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import math
import os
import resource
import statistics
import sys
import time

import ops
from calibration import kernel_after
from tracer import LAYERS, Tracer

SUITE_CHECKS = ("identities", "crosschecks", "equivalences", "inclusions",
                "threshold_fixture", "bracket_identity", "disk_sampling")
SETUP_ARGV = ["check", "--predicate", "T1_F_in_S", "--m", "0.3", "--k", "1.0"]
CLI_MAIN_REPS = 51


def import_package(src: str):
    sys.path.insert(0, src)
    import gftpoisson
    if not os.path.realpath(gftpoisson.__file__).startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"imported gftpoisson from {gftpoisson.__file__}, not from {src}")
    import gftpoisson.cli   # imported here so the tracer sees every module
    return gftpoisson


class Runner:
    """Runs ops over the inputs and keeps the first output of each input."""

    def __init__(self, gft, workload: str, inputs: list):
        self.gft = gft
        self.op = ops.OPS[workload]
        self.inputs = inputs
        self.outputs: list = [None] * len(inputs)
        self.mismatches = 0
        self.kernel_ns: list = []

    def run(self, i: int) -> int:
        """Runs input i once and returns the time it took in ns."""
        start = time.perf_counter_ns()
        try:
            text = self.op(self.gft, self.inputs[i])
        except Exception as exc:   # a raising op is a failed op, not a crashed run
            text = {"error": f"{type(exc).__name__}: {exc}"}
        elapsed = time.perf_counter_ns() - start
        first = self.outputs[i]
        if first is None:
            self.outputs[i] = text
        elif first != text:
            self.mismatches += 1
        return elapsed

    def one_pass(self, best_ns: list) -> None:
        """Runs every input once, lowering best_ns[i] to input i's time."""
        for i in range(len(self.inputs)):
            best_ns[i] = min(best_ns[i], self.run(i))

    def passes(self, seconds: float) -> tuple:
        """Whole passes over the inputs until `seconds` have elapsed (at least
        one).  Each op is followed by kernel samples (calibration.py), and
        its ratio is its time over their median.

        Returns the number of passes, each input's fastest time in ms, and
        each input's median ratio over the passes."""
        n = len(self.inputs)
        best_ns = [math.inf] * n
        ratios: list = [[] for _ in range(n)]
        gc.collect()
        done = 0
        start = time.perf_counter()
        while not done or time.perf_counter() - start < seconds:
            for i in range(n):
                t = self.run(i)
                samples = kernel_after(t)
                self.kernel_ns += samples
                best_ns[i] = min(best_ns[i], t)
                ratios[i].append(t / statistics.median(samples))
            done += 1
        return done, _ms(best_ns), [statistics.median(r) for r in ratios]


def _ms(best_ns: list) -> list:
    return [t / 1e6 for t in best_ns]


def _tally_hooks(gft, tally: dict) -> dict:
    def add(name, amount):
        tally[name] = tally.get(name, 0) + amount

    def coeff_terms(result, args, kwargs):
        add("coeff_terms", result.truncation_order)

    def grid(result, args, kwargs):
        spec = args[3] if len(args) > 3 else kwargs.get("grid") or gft.GridSpec()
        add("points", len(spec.radii) * spec.points_per_circle)
        add("skipped", result.skipped)

    def text_bytes(result, args, kwargs):
        add("bytes", len(result.encode()))

    return {"series.coeffs_F": coeff_terms, "series.coeffs_G": coeff_terms,
            "series.apply_operator_I": coeff_terms,
            "thresholds.solve_m_star": lambda res, a, k: add("evals", res.evaluations),
            "disk.grid_check": grid,
            "serialize.dumps_canonical": text_bytes,
            "serialize.rows_to_csv": text_bytes, "serialize.dict_to_human": text_bytes}


def layer_metrics(tracer: Tracer, tally: dict) -> tuple:
    """(counts, times) for one traced pass: counts repeat exactly, times do not."""
    totals = tracer.layer_totals()
    calls = tracer.calls
    solves = calls("thresholds.solve_m_star")
    points = tally.get("points", 0)
    draws = sum(calls(f"suite.{fn}") for fn in
                ("draw_t1_holding", "draw_t4_holding", "draw_t1_failing_radial"))
    candidates = (calls("theorems.t1_lhs", "suite.draw_")
                  + calls("theorems.t4_lhs", "suite.draw_"))
    counts = {
        "series.calls": totals["series"]["calls"],
        "series.coeff_terms": tally.get("coeff_terms", 0),
        "criteria.lemma_sum_calls": calls("criteria.lemma_sum"),
        "theorems.evaluate_calls": calls("theorems.evaluate"),
        "theorems.crosscheck_calls": (calls("theorems.crosscheck")
                                      + calls("theorems.evaluate_with_crosscheck")),
        "thresholds.solve_calls": solves,
        "thresholds.evals_per_solve": tally.get("evals", 0) / solves if solves else 0.0,
        "disk.grid_calls": calls("disk.grid_check"),
        "disk.points": points,
        "disk.horner_calls": calls("disk.eval_series") + calls("disk.eval_deriv"),
        "disk.skipped_share": tally.get("skipped", 0) / points if points else 0.0,
        "suite.draw_accept_share": draws / candidates if candidates else 0.0,
        "serialize.calls": sum(calls(f"serialize.{fn}") for fn in
                               ("dumps_canonical", "rows_to_csv", "dict_to_human")),
        "serialize.bytes": tally.get("bytes", 0),
    }
    times = {f"{layer}.self_ms": totals[layer]["self_ns"] / 1e6
             for layer in LAYERS if layer not in ("suite", "cli")}
    times.update({f"suite.{name}_ms": tracer.total_ns(f"suite.check_{name}") / 1e6
                  for name in SUITE_CHECKS})
    return counts, times


def cli_main_ms(gft) -> tuple:
    """Median time of cli.main on the set-up request, stdout captured."""
    samples = []
    text = None
    for _ in range(CLI_MAIN_REPS):
        buf = io.StringIO()
        start = time.perf_counter_ns()
        with contextlib.redirect_stdout(buf):
            code = gft.cli.main(SETUP_ARGV)
        samples.append((time.perf_counter_ns() - start) / 1e6)
        text = (code, buf.getvalue())
    return statistics.median(samples), text


def traced(gft, runner: Runner, seconds: float) -> dict:
    """Pairs of passes until `seconds` have elapsed: an untraced pass, then a
    traced one with the wrappers installed for that pass only.  Counts must
    repeat exactly between traced passes.

    Both sides get the same number of passes at nearly the same moments, so
    the difference of their op times is the tracer's cost, not host drift.
    The runner still compares every output with the first one, so a tracer
    that changed an answer shows as a mismatch.  Each time is the smallest
    over the passes, like the untraced op times."""
    tally: dict = {}
    tracer = Tracer(gft, _tally_hooks(gft, tally))
    plain_ns = [math.inf] * len(runner.inputs)
    traced_ns = [math.inf] * len(runner.inputs)
    pass_counts, pass_times = [], []
    gc.collect()
    start = time.perf_counter()
    while not pass_counts or time.perf_counter() - start < seconds:
        runner.one_pass(plain_ns)
        tracer.reset()
        tally.clear()
        tracer.install()
        try:
            runner.one_pass(traced_ns)
        finally:
            tracer.uninstall()
        counts, times = layer_metrics(tracer, tally)
        pass_counts.append(counts)
        pass_times.append(times)
    return {
        "passes": len(pass_counts),
        "counts": pass_counts[0],
        "counts_repeat": all(c == pass_counts[0] for c in pass_counts),
        "times": {key: min(t[key] for t in pass_times) for key in pass_times[0]},
        "plain_ms": _ms(plain_ns),
        "traced_ms": _ms(traced_ns),
    }


def main() -> None:
    job = json.load(sys.stdin)
    gft = import_package(job["src"])
    runner = Runner(gft, job["workload"], job["inputs"])
    for i in range(len(runner.inputs)):
        kernel_after(runner.run(i))
    # the package's footprint: the warm-up ran every input once, and the timed
    # passes' bookkeeping grows with the number of passes that fit
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if job["trace"]:
        result = {"traced": traced(gft, runner, job["seconds"])}
        result["cli_main_ms"], result["cli_main_output"] = cli_main_ms(gft)
    else:
        passes, best_ms, ratios = runner.passes(job["seconds"])
        result = {"passes": passes, "best_ms": best_ms, "ratios": ratios,
                  "kernel_ms": statistics.median(runner.kernel_ns) / 1e6,
                  "peak_rss_kb": peak_rss_kb}
    result["outputs"] = runner.outputs
    result["mismatches"] = runner.mismatches
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()
