"""The operation each workload times, written against the package's public API.

Each op turns one generated input into the canonical JSON the matching CLI
subcommand prints, so the benchmark can check and digest every answer.  The
package's functions are looked up on the package object at call time, so the
tracer's wrappers are seen.  This module runs in the worker process and must
not import mpmath, which would count in the worker's peak memory.
"""

from __future__ import annotations

import random


def _class_and_r(gft, x: dict):
    c = gft.ClassParams(x["k"], x["lam"])
    if x["A"] is None:
        return c, None
    return c, gft.RParams(x["A"], x["B"], complex(x["tau_re"], x["tau_im"]))


def crosscheck_op(gft, x: dict) -> str:
    """What `gftpoisson crosscheck` prints."""
    c, r = _class_and_r(gft, x)
    report = gft.evaluate_with_crosscheck(gft.PredicateId(x["pid"]),
                                          gft.PoissonParams(x["m"]), c, r)
    return gft.dumps_canonical(report.to_json_dict())


def threshold_op(gft, x: dict) -> str:
    """What `gftpoisson threshold` prints, at the default tol 1e-10."""
    c, r = _class_and_r(gft, x)
    result = gft.solve_m_star(gft.PredicateId(x["pid"]), c, r, tol=1e-10)
    return gft.dumps_canonical(result.to_json_dict())


def suite_op(gft, x: dict) -> str:
    """One check of `run_suite`, with its own RNG, as `run_suite` reports it."""
    check = getattr(gft.suite, "check_" + x["check"])
    name, ok, detail = check(random.Random(x["rng_seed"]), **x["kwargs"])
    return gft.dumps_canonical({"name": name, "status": "pass" if ok else "fail",
                                "detail": detail})


OPS = {"crosscheck_mix": crosscheck_op, "threshold_sweep": threshold_op,
       "suite_checks": suite_op}
