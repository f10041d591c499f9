"""Seeded property suite covering the package's verification obligations.

Every check draws its own parameters from one shared RNG, so a fixed seed
makes the whole run (and its serialized summary) reproducible byte for byte.
The inclusion and equivalence checks classify theorems._margin, the float
evaluate() reports as its margin, without building a report per verdict.
"""

from __future__ import annotations

import cmath
import math
import random

from .criteria import ClassParams, RParams, Verdict, classify
from .disk import ConditionId, GridSpec, _horner_pair, _pair_table, grid_check
from .serialize import fmt_float
from .series import (PoissonParams, SumKind, TruncationPolicy,
                     choose_truncation, coeffs_F, coeffs_G, partial_shifted_sum,
                     shifted_exp_sum)
# evaluate is not called here, but bench/test_tracer.py wraps it under this name
from .theorems import (SPECS, PredicateId, _margin, crosscheck,  # noqa: F401
                       evaluate, resolve, t1_lhs, t4_lhs, t5_lhs)
from .thresholds import solve_m_star

# pinned tolerances; the acceptance tests assert the same numbers
IDENTITY_ABS_TOL = 1e-10
IDENTITY_REL_TOL = 1e-12
RESIDUAL_TOL = 1e-9
THRESHOLD_FIXTURE = 0.5671432904097838
THRESHOLD_FIXTURE_TOL = 1e-9
BRACKET_REL_TOL = 1e-14

EXTENDED_RADII = (0.25, 0.5, 0.75, 0.9, 0.999)
WITNESS_EPS = 1e-14


# ---- parameter draws ----

def draw_class_params(rng: random.Random) -> ClassParams:
    return ClassParams(k=rng.uniform(1e-6, 1.0), lam=rng.uniform(0.0, 0.999))


def draw_r_params(rng: random.Random) -> RParams:
    b = rng.uniform(-1.0, 0.9)
    a = rng.uniform(b + 0.05, 1.0)
    tau = cmath.rect(rng.uniform(0.05, 2.0), rng.uniform(0.0, 2 * math.pi))
    return RParams(A=a, B=b, tau=tau)


def _no_interior_pole(f, lam: float) -> bool:
    # the radius-0.999 witness is only claimed where the quotient denominator
    # (1-lam) f(r)/r + lam f'(r) stays positive on the real segment (0, 0.999].
    # For a negative-tail f (every b_n >= 0) it is 1 - sum b_n (1-lam+lam n) r^(n-1),
    # strictly decreasing in r, so its sign at the end decides; taking the end
    # one ulp past 0.999 can only reject a draw, never accept one wrongly.
    # f(r) and f'(r) come from one Horner pass, with eval_series's and eval_deriv's floats
    r = math.nextafter(0.999, 1.0)
    fr, dfr = _horner_pair(_pair_table(f), complex(r))
    return (1 - lam) * fr.real / r + lam * dfr.real > 0


def draw_t1_holding(rng: random.Random, rel_margin: float = 0.01):
    """(p, c) with the F-series S-membership holding by at least rel_margin of 2k."""
    while True:
        m = 10 ** rng.uniform(-3, 0)
        c = ClassParams(k=rng.uniform(0.05, 1.0), lam=rng.uniform(0.0, 0.95))
        p = PoissonParams(m)
        if t1_lhs(p, c) <= (1 - rel_margin) * 2 * c.k:
            return p, c


def draw_t4_holding(rng: random.Random, rel_margin: float = 0.01):
    """(p, c) with the integral-companion S-membership holding by rel_margin of 2k."""
    while True:
        m = 10 ** rng.uniform(-3, 0.5)
        c = ClassParams(k=rng.uniform(0.05, 1.0), lam=rng.uniform(0.0, 0.95))
        p = PoissonParams(m)
        if t4_lhs(p, c) <= (1 - rel_margin) * 2 * c.k:
            return p, c


def draw_t1_failing_radial(rng: random.Random, rel_excess: float = 0.10):
    """(p, c, f) failing the F-series criterion by >= rel_excess, restricted to
    draws whose condition denominator has no zero on the real segment, where
    the radial witness at 0.999 is guaranteed."""
    policy = TruncationPolicy(eps=WITNESS_EPS)
    while True:
        m = rng.uniform(1e-3, 10.0)
        c = ClassParams(k=rng.uniform(0.01, 1.0), lam=rng.uniform(0.0, 0.999))
        p = PoissonParams(m)
        if t1_lhs(p, c) < (1 + rel_excess) * 2 * c.k:
            continue
        f = coeffs_F(p, policy)
        if _no_interior_pole(f, c.lam):
            return p, c, f


# ---- checks ----

def check_identities(rng: random.Random, draws: int = 200):
    policy = TruncationPolicy(eps=1e-12)
    worst = 0.0
    for _ in range(draws):
        p = PoissonParams(rng.uniform(1e-6, 10.0))
        n_top = choose_truncation(p, policy)
        for kind in SumKind:
            closed = shifted_exp_sum(p, kind)
            partial = partial_shifted_sum(p, kind, n_top)
            err = abs(closed - partial)
            allowed = max(IDENTITY_ABS_TOL, IDENTITY_REL_TOL * abs(closed))
            worst = max(worst, err / allowed)
    return "identities", worst <= 1.0, f"worst err/allowed {fmt_float(worst)}"


_CROSSCHECK_PIDS = (PredicateId.T1_F_in_S, PredicateId.T2_F_in_C,
                    PredicateId.T4_G_in_S, PredicateId.T5_I_in_S,
                    PredicateId.T6_I_in_C)


def check_crosschecks(rng: random.Random, draws: int = 200):
    worst = 0.0
    for _ in range(draws):
        p = PoissonParams(rng.uniform(1e-6, 10.0))
        c = draw_class_params(rng)
        r = draw_r_params(rng)
        for pid in _CROSSCHECK_PIDS:
            worst = max(worst, crosscheck(pid, p, c, r))
    return "crosschecks", worst < RESIDUAL_TOL, f"worst residual {fmt_float(worst)}"


def _verdict(pid: PredicateId, p: PoissonParams, c: ClassParams,
             r: RParams | None = None) -> Verdict:
    # evaluate()'s verdict: a corollary still resolves to its theorem at lambda = 0
    row, c = resolve(pid, c, r)
    return classify(_margin(row, p, c, r))


def check_equivalences(rng: random.Random, draws: int = 1000):
    mismatches = 0
    for _ in range(draws):
        p = PoissonParams(10 ** rng.uniform(-3, 1))
        c = draw_class_params(rng)
        r = draw_r_params(rng)
        if _verdict(PredicateId.T3_G_in_C, p, c) is not \
                _verdict(PredicateId.T1_F_in_S, p, c):
            mismatches += 1
        c0 = ClassParams(c.k, 0.0)
        for pid, row in SPECS.items():
            if pid is row.corollary and _verdict(pid, p, c, r) is not \
                    _verdict(row.theorem, p, c0, r):
                mismatches += 1
    return "equivalences", mismatches == 0, f"{mismatches} verdict mismatches"


def check_inclusions(rng: random.Random, draws: int = 10_000):
    violations = 0
    ok_verdicts = (Verdict.HOLDS, Verdict.MARGINAL)
    # theorem rows resolve to the class parameters they are given
    t1, t2, t5, t6 = (SPECS[pid] for pid in (
        PredicateId.T1_F_in_S, PredicateId.T2_F_in_C,
        PredicateId.T5_I_in_S, PredicateId.T6_I_in_C))
    for _ in range(draws):
        p = PoissonParams(10 ** rng.uniform(-3, 1))
        c = draw_class_params(rng)
        r = draw_r_params(rng)
        if classify(_margin(t2, p, c, None)) is Verdict.HOLDS:
            if classify(_margin(t1, p, c, None)) not in ok_verdicts:
                violations += 1
        if classify(_margin(t6, p, c, r)) is Verdict.HOLDS:
            if classify(_margin(t5, p, c, r)) not in ok_verdicts:
                violations += 1
    return "inclusions", violations == 0, f"{violations} violations"


def check_threshold_fixture(rng: random.Random):
    res = solve_m_star(PredicateId.T1_F_in_S, ClassParams(k=1.0, lam=0.0), tol=1e-10)
    err = abs(res.m_star - THRESHOLD_FIXTURE)
    return ("threshold_fixture", err < THRESHOLD_FIXTURE_TOL,
            f"m_star {fmt_float(res.m_star)} err {fmt_float(err)}")


def check_bracket_identity(rng: random.Random, draws: int = 1000):
    worst = 0.0
    for _ in range(draws):
        p = PoissonParams(rng.uniform(1e-6, 10.0))
        c = draw_class_params(rng)
        r = draw_r_params(rng)
        lhs = t5_lhs(p, c, r)
        ref = r.scale * t4_lhs(p, c)
        denom = max(abs(lhs), abs(ref), 1e-300)
        worst = max(worst, abs(lhs - ref) / denom)
    return "bracket_identity", worst <= BRACKET_REL_TOL, f"worst rel diff {fmt_float(worst)}"


def check_disk_sampling(rng: random.Random, holding_draws: int = 20,
                        failing_draws: int = 10):
    policy = TruncationPolicy(eps=1e-12)
    bad = []
    for _ in range(holding_draws):
        p, c = draw_t1_holding(rng)
        rep = grid_check(coeffs_F(p, policy), ConditionId.S_COND, c)
        if rep.violations:
            bad.append(f"S violation at m={fmt_float(p.m)}")
        p, c = draw_t4_holding(rng)
        rep = grid_check(coeffs_G(p, policy), ConditionId.S_COND, c)
        if rep.violations:
            bad.append(f"G violation at m={fmt_float(p.m)}")
    witness_grid = GridSpec(radii=EXTENDED_RADII)
    for _ in range(failing_draws):
        p, c, f = draw_t1_failing_radial(rng)
        rep = grid_check(f, ConditionId.S_COND, c, witness_grid)
        if not rep.max_value > c.k:
            bad.append(f"missing witness at m={fmt_float(p.m)} k={fmt_float(c.k)}"
                       f" lam={fmt_float(c.lam)}")
    return "disk_sampling", not bad, "; ".join(bad) if bad else "all grids consistent"


_CHECKS = (check_identities, check_crosschecks, check_equivalences,
           check_inclusions, check_threshold_fixture, check_bracket_identity,
           check_disk_sampling)


def run_suite(seed: int = 0) -> dict:
    rng = random.Random(seed)
    checks = []
    failed = 0
    for fn in _CHECKS:
        name, ok, detail = fn(rng)
        checks.append({"name": name, "status": "pass" if ok else "fail",
                       "detail": detail})
        failed += 0 if ok else 1
    return {"seed": seed, "checks": checks,
            "passed": len(checks) - failed, "failed": failed}
