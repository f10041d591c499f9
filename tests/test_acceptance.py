"""Acceptance gate: one test per numbered criterion, one PASS/FAIL line each.

Every criterion draws from its own seeded RNG so reruns are reproducible.
Timed criteria assert the stated wall-clock budget as well.
"""

import math
import os
import random
import time

from gftpoisson import (ClassParams, ConditionId, GridSpec, PoissonParams,
                        PredicateId, SumKind, TruncationPolicy, Verdict,
                        choose_truncation, coeffs_F, coeffs_G, crosscheck,
                        dumps_canonical, evaluate, grid_check, run_suite,
                        shifted_exp_sum, solve_m_star, t4_lhs, t5_lhs)
from gftpoisson.disk import DEFAULT_RADII
from gftpoisson.suite import (WITNESS_EPS, draw_class_params, draw_r_params,
                              draw_t1_failing_radial, draw_t1_holding,
                              draw_t4_holding)

# criterion 7 grids each failing draw on the default circles and the witness's
EXTENDED_RADII = DEFAULT_RADII + (0.999,)


def _report(num: int, label: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}: criterion {num} {label} ({detail})")
    assert ok, f"criterion {num} {label}: {detail}"


# independently coded term formulas, summed with fsum and exact factorials
_TERMS = {
    SumKind.SHIFT1: (2, lambda m, n: m ** (n - 1) / math.factorial(n - 1)),
    SumKind.SHIFT2: (2, lambda m, n: m ** (n - 1) / math.factorial(n - 2)),
    SumKind.SHIFT3: (3, lambda m, n: m ** (n - 1) / math.factorial(n - 3)),
    SumKind.OVER_N_FACT: (2, lambda m, n: m ** (n - 1) / math.factorial(n)),
    SumKind.POW_N_OVER_N_FACT: (2, lambda m, n: m ** n / math.factorial(n)),
}


def test_criterion_1_shifted_sum_identities():
    rng = random.Random(9001)
    policy = TruncationPolicy(eps=1e-12)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        m = rng.uniform(1e-9, 10.0)
        p = PoissonParams(m)
        n_top = choose_truncation(p, policy)
        for kind, (first, term) in _TERMS.items():
            closed = shifted_exp_sum(p, kind)
            partial = math.fsum(term(m, n) for n in range(first, n_top + 1))
            err = abs(closed - partial)
            allowed = max(1e-10, 1e-12 * abs(closed))
            worst = max(worst, err / allowed)
    elapsed = time.perf_counter() - start
    ok = worst <= 1.0 and elapsed < 1.0
    _report(1, "shifted-sum identities", ok,
            f"worst err/allowed {worst:.3g}, {elapsed:.2f}s")


def test_criterion_2_theorem_crosschecks():
    rng = random.Random(9002)
    pids = (PredicateId.T1_F_in_S, PredicateId.T2_F_in_C, PredicateId.T4_G_in_S,
            PredicateId.T5_I_in_S, PredicateId.T6_I_in_C)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        p = PoissonParams(rng.uniform(1e-9, 10.0))
        c = draw_class_params(rng)
        r = draw_r_params(rng)
        for pid in pids:
            worst = max(worst, crosscheck(pid, p, c, r))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-9 and elapsed < 5.0
    _report(2, "theorem cross-checks", ok,
            f"worst residual {worst:.3g}, {elapsed:.2f}s")


_COROLLARY_PARENT = (
    (PredicateId.C1_F_in_Sk, PredicateId.T1_F_in_S),
    (PredicateId.C2_F_in_Ck, PredicateId.T2_F_in_C),
    (PredicateId.C3_I_in_Sk, PredicateId.T5_I_in_S),
    (PredicateId.C4_I_in_Ck, PredicateId.T6_I_in_C),
    (PredicateId.C5_G_in_Ck, PredicateId.T3_G_in_C),
    (PredicateId.C6_G_in_Sk, PredicateId.T4_G_in_S),
)


def test_criterion_3_predicate_equivalences():
    rng = random.Random(9003)
    mismatches = 0
    for _ in range(1000):
        p = PoissonParams(10 ** rng.uniform(-3, 1))
        c = draw_class_params(rng)
        r = draw_r_params(rng)
        if evaluate(PredicateId.T3_G_in_C, p, c).verdict is not \
                evaluate(PredicateId.T1_F_in_S, p, c).verdict:
            mismatches += 1
        c0 = ClassParams(c.k, 0.0)
        for cid, parent in _COROLLARY_PARENT:
            if evaluate(cid, p, c, r).verdict is not \
                    evaluate(parent, p, c0, r).verdict:
                mismatches += 1
    _report(3, "predicate equivalences", mismatches == 0,
            f"{mismatches} verdict mismatches in 1000 draws")


def test_criterion_4_inclusion_properties():
    rng = random.Random(9004)
    ok_verdicts = (Verdict.HOLDS, Verdict.MARGINAL)
    violations = 0
    for _ in range(10_000):
        p = PoissonParams(10 ** rng.uniform(-3, 1))
        c = draw_class_params(rng)
        r = draw_r_params(rng)
        if evaluate(PredicateId.T2_F_in_C, p, c).verdict is Verdict.HOLDS:
            if evaluate(PredicateId.T1_F_in_S, p, c).verdict not in ok_verdicts:
                violations += 1
        if evaluate(PredicateId.T6_I_in_C, p, c, r).verdict is Verdict.HOLDS:
            if evaluate(PredicateId.T5_I_in_S, p, c, r).verdict not in ok_verdicts:
                violations += 1
    _report(4, "inclusion properties", violations == 0,
            f"{violations} violations in 10000 draws")


def test_criterion_5_threshold_fixture():
    start = time.perf_counter()
    res = solve_m_star(PredicateId.T1_F_in_S, ClassParams(k=1.0, lam=0.0),
                       tol=1e-10)
    elapsed = time.perf_counter() - start
    err = abs(res.m_star - 0.5671432904097838)
    ok = err < 1e-9 and elapsed < 0.1
    _report(5, "threshold fixture", ok,
            f"m_star {res.m_star!r} err {err:.3g}, {elapsed * 1000:.1f}ms")


def test_criterion_6_bracket_identity():
    rng = random.Random(9006)
    worst = 0.0
    for _ in range(1000):
        p = PoissonParams(rng.uniform(1e-9, 10.0))
        c = draw_class_params(rng)
        r = draw_r_params(rng)
        lhs = t5_lhs(p, c, r)
        ref = r.scale * t4_lhs(p, c)
        worst = max(worst, abs(lhs - ref) / max(abs(lhs), abs(ref), 1e-300))
    _report(6, "bracket identity", worst <= 1e-14,
            f"worst rel diff {worst:.3g} in 1000 draws")


def test_criterion_7_sufficiency_sampling():
    rng = random.Random(9007)
    policy = TruncationPolicy(eps=1e-12)
    start = time.perf_counter()
    problems = []
    for _ in range(20):
        p, c = draw_t1_holding(rng)
        rep = grid_check(coeffs_F(p, policy), ConditionId.S_COND, c)
        if rep.violations:
            problems.append(f"F-series violation at m={p.m:.4g}")
        p, c = draw_t4_holding(rng)
        rep = grid_check(coeffs_G(p, policy), ConditionId.S_COND, c)
        if rep.violations:
            problems.append(f"G-series violation at m={p.m:.4g}")
    witness_grid = GridSpec(radii=EXTENDED_RADII)
    assert witness_grid.radii[-1] == 0.999
    for _ in range(10):
        p, c, f = draw_t1_failing_radial(rng)
        assert f.tail_bound <= WITNESS_EPS
        rep = grid_check(f, ConditionId.S_COND, c, witness_grid)
        if not rep.max_value > c.k:
            problems.append(f"no witness at m={p.m:.4g} k={c.k:.4g} lam={c.lam:.4g}")
    elapsed = time.perf_counter() - start
    ok = not problems and elapsed < 30.0
    _report(7, "sufficiency sampling", ok,
            "; ".join(problems) if problems else f"40+10 draws clean, {elapsed:.2f}s")


def test_criterion_8_suite_determinism():
    seed = int(os.environ.get("GFT_SEED", "0"))
    first = run_suite(seed)
    second = run_suite(seed)
    identical = dumps_canonical(first) == dumps_canonical(second)
    ok = identical and first["failed"] == 0
    _report(8, "suite determinism", ok,
            f"seed {seed}, identical={identical}, failed={first['failed']}")
