"""Seeded inputs and known-answer checks for the benchmark workloads.

This module runs in the benchmark's parent process only: it draws every input
from the --seed argument with the standard library RNG, and judges each output
the package printed against bench/reference.py.  The package itself never sees
anything but the generated inputs (see bench/ops.py).

Why each workload exists:

- crosscheck_mix: coefficient construction, lemma_sum, the closed forms and
  serialization do all the work; disk and solver do none.  High-m draws make
  the latency tail, so series work moves p99 and closed-form work moves p50.
- threshold_sweep: every solve makes about forty closed-form evaluations and
  no coefficient or disk work, so only solver and closed-form changes move it.
- suite_checks: the seven checks of the package's suite, each at a twentieth
  of its draws in `run_suite`; the only workload that reaches the suite's
  draw loops, the pole scan, the inclusion check and disk grid sampling, so it
  mixes every layer.
"""

from __future__ import annotations

import cmath
import json
import math
import random

import mpmath
from mpmath import mpf

import reference as ref

# the package's own pins: suite.RESIDUAL_TOL, criteria.BOUNDARY_TOL and the
# defaults of solve_m_star (tol, scan_limit)
RESIDUAL_TOL = 1e-9
BOUNDARY_TOL = 1e-9
SOLVER_TOL = 1e-10
SCAN_LIMIT = 50.0
# relative error allowed between the printed lhs and the 50-digit closed form:
# far above double rounding, far below any wrong formula
LHS_REL_TOL = 1e-9
# a printed verdict is also accepted when a margin this close (relative to the
# lhs) to a band edge could round either way in double precision
VERDICT_EDGE_REL = 1e-12

# keyword arguments of each suite check: a twentieth of its draws in run_suite
# (at least one), so that every op is short enough for the host-speed
# calibration to follow it
SUITE_CHECKS = {
    "identities": {"draws": 10},
    "crosschecks": {"draws": 10},
    "equivalences": {"draws": 50},
    "inclusions": {"draws": 500},
    "threshold_fixture": {},
    "bracket_identity": {"draws": 50},
    "disk_sampling": {"holding_draws": 1, "failing_draws": 1},
}

OK, WRONG, KNOWN_3A = "ok", "wrong", "known_defect_3a"


# ---- parameter draws, as in the package's suite.draw_class_params / draw_r_params ----

def _class_params(rng: random.Random) -> tuple:
    return rng.uniform(1e-6, 1.0), rng.uniform(0.0, 0.999)


def _r_params(rng: random.Random) -> tuple:
    b = rng.uniform(-1.0, 0.9)
    a = rng.uniform(b + 0.05, 1.0)
    tau = cmath.rect(rng.uniform(0.05, 2.0), rng.uniform(0.0, 2 * math.pi))
    return a, b, tau


def _point(pid: str, m, k: float, lam: float, r: tuple) -> dict:
    a, b, tau = r
    x = {"pid": pid, "m": m, "k": k, "lam": lam,
         "A": None, "B": None, "tau_re": None, "tau_im": None}
    if pid in ref.NEEDS_R:
        x.update(A=a, B=b, tau_re=tau.real, tau_im=tau.imag)
    return x


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return 10 ** rng.uniform(math.log10(lo), math.log10(hi))


def crosscheck_inputs(seed: int, count: int = 2400) -> list:
    """m log-uniform in [1e-3, 300], so N runs from ~12 to ~600; cycles all 12 ids."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        m = _log_uniform(rng, 1e-3, 300.0)
        k, lam = _class_params(rng)
        out.append(_point(ref.PREDICATES[i % 12], m, k, lam, _r_params(rng)))
    return out


def _near_boundary(rng: random.Random, x: dict) -> None:
    """Put the limit of a bounded predicate at or just above 2k.

    For T5/C3 |tau| is set so that scale*P = 2k / (1 - (1-lam)(1-k)/(P m_t)),
    which puts the crossing near m_t in [60, 3000], beyond the solver's scan
    limit of 50.  T4/C6 have no scale: their limit P exceeds 2k by
    (1-lam)(1-k), which is either 0 (k = 1) or puts the crossing below
    m = ln(P/(P-2k)) < 50, so their share uses k = 1, where the limit equals 2k.
    """
    if x["pid"] in ("T4_G_in_S", "C6_G_in_Sk"):
        x["k"] = 1.0
        return
    m_t = _log_uniform(rng, 60.0, 3000.0)
    k = x["k"]
    lam = 0.0 if x["pid"].startswith("C") else x["lam"]
    p = (1 - lam) + k * (1 + lam)
    scale = 2 * k / (p - (1 - lam) * (1 - k) / m_t)
    tau = cmath.rect(scale / (x["A"] - x["B"]), math.atan2(x["tau_im"], x["tau_re"]))
    x.update(tau_re=tau.real, tau_im=tau.imag)


def threshold_inputs(seed: int, count: int = 480) -> list:
    """Cycles all 12 ids; every second cycle puts the bounded ids near the boundary."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        k, lam = _class_params(rng)
        x = _point(ref.PREDICATES[i % 12], None, k, lam, _r_params(rng))
        if x["pid"] in ref.BOUNDED and (i // 12) % 2 == 1:
            _near_boundary(rng, x)
        out.append(x)
    return out


def suite_inputs(seed: int, count: int = 140) -> list:
    """Cycles the seven suite checks, the i-th call of each with RNG seed i,
    rotated by --seed.  The disk check's rejection draws make its time depend
    on the RNG seed by up to a factor of ten, so, as with run_suite's fixed
    seeds, the list itself never changes."""
    names = list(SUITE_CHECKS)
    fixed = [{"check": names[i % len(names)], "kwargs": SUITE_CHECKS[names[i % len(names)]],
              "rng_seed": i // len(names)} for i in range(count)]
    start = seed % count
    return fixed[start:] + fixed[:start]


# ---- known-answer checks: each returns (status, reason) ----

def _verdict(margin) -> str:
    if abs(margin) <= BOUNDARY_TOL:
        return "Marginal"
    return "Holds" if margin > 0 else "Fails"


def check_crosscheck(x: dict, text: str) -> tuple:
    out = json.loads(text)
    lhs = ref.lhs(x, x["m"])
    margin = ref.rhs(x) - lhs
    edge = VERDICT_EDGE_REL * max(abs(lhs), 1)
    allowed = {_verdict(margin + d) for d in (-edge, 0, edge)}
    if out["predicate"] != x["pid"]:
        return WRONG, f"predicate {out['predicate']}"
    if out["verdict"] not in allowed:
        return WRONG, f"verdict {out['verdict']}, reference {sorted(allowed)}"
    if not abs(mpf(out["lhs"]) - lhs) <= LHS_REL_TOL * abs(lhs):
        return WRONG, f"lhs {out['lhs']!r}, reference {mpmath.nstr(lhs, 17)}"
    residual = out["residual"]
    if residual is None or not 0 <= residual <= RESIDUAL_TOL:
        return WRONG, f"residual {residual!r} above {RESIDUAL_TOL}"
    return OK, ""


def check_threshold(x: dict, text: str) -> tuple:
    out = json.loads(text)
    pid = x["pid"]
    if out["outcome"] == "always_holds":
        if ref.never_fails(x):
            return OK, ""
        # ROADMAP defect 3a: the bounded scan stops at m = 50 although the
        # limit exceeds 2k; any other wrong always_holds is a new defect
        if pid in ref.BOUNDED and ref.margin(x, SCAN_LIMIT) > 0:
            return KNOWN_3A, f"always_holds, but scale*P > 2k (m* = {mpmath.nstr(ref.m_star(x), 6)})"
        return WRONG, "always_holds, but the margin turns negative"
    if ref.never_fails(x):
        return WRONG, f"finite m* {out['m_star']!r}, but scale*P <= 2k"
    m = mpf(out["m_star"])
    # the solver promises the root within tol, so the window is at least tol
    w = max(m * mpf("1e-6"), mpf(SOLVER_TOL))
    if not (ref.margin(x, m - w) > 0 > ref.margin(x, m + w)):
        return WRONG, f"no sign change of the margin around m* {out['m_star']!r}"
    if pid in ref.LAMBERT and not abs(m - ref.lambert_m_star(x)) <= 1e-9:
        return WRONG, f"m* {out['m_star']!r}, W(2k/P) {mpmath.nstr(ref.lambert_m_star(x), 17)}"
    return OK, ""


def check_suite(x: dict, text: str) -> tuple:
    out = json.loads(text)
    if out["name"] != x["check"] or out["status"] != "pass":
        return WRONG, f"suite check {out['name']}: {out['status']}, {out['detail']}"
    return OK, ""


WORKLOADS = {
    "crosscheck_mix": (crosscheck_inputs, check_crosscheck),
    "threshold_sweep": (threshold_inputs, check_threshold),
    "suite_checks": (suite_inputs, check_suite),
}
