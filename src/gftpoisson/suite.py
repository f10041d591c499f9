"""Seeded property suite covering the package's verification obligations.

Every check draws its own parameters from one shared RNG, so a fixed seed
makes the whole run (and its serialized summary) reproducible byte for byte.
The sampled checks draw from one generator, _draws, which yields each draw's
first parameter (p or m), its ClassParams and its RParams, in that order;
identities, crosschecks and bracket_identity fold their per-draw measures
with _worst, so a nan measure is the worst value and fails its check.
The inclusion and equivalence checks classify theorems._margin, the float
evaluate() reports as its margin, without building a report per verdict.
The disk check grids F and G whole, from their closed forms
(series.ClosedSeries), and the failing draws' pole check reads F's closed
form too, so the suite builds no truncated series for the disk.  The F and G
holding draws are one rejection sampler over their closed forms, t1_lhs and
t4_lhs, and the disk check grids both in one loop, F then G per draw.
"""

from __future__ import annotations

import cmath
import math
import random

from .criteria import ClassParams, ConditionId, RParams, Verdict, classify
from .disk import GridSpec, _closed_values, _quotients, grid_check
from .errors import DomainError
from .serialize import fmt_float
# coeffs_F and evaluate are not called here, but bench/test_tracer.py wraps
# them under these names
from .series import (_F, _G, ClosedSeries, PoissonParams, SumKind,  # noqa: F401
                     TruncationPolicy, _shown, choose_truncation, coeffs_F,
                     partial_shifted_sum, shifted_exp_sum)
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

HOLD_MARGIN = 0.01
FAIL_EXCESS = 0.10
# the circle of the radial witness z = 0.999, at the default point count
_WITNESS_GRID = GridSpec(radii=(0.999,))


# ---- parameter draws ----

def draw_class_params(rng: random.Random) -> ClassParams:
    return ClassParams(k=rng.uniform(1e-6, 1.0), lam=rng.uniform(0.0, 0.999))


def draw_r_params(rng: random.Random) -> RParams:
    b = rng.uniform(-1.0, 0.9)
    a = rng.uniform(b + 0.05, 1.0)
    tau = cmath.rect(rng.uniform(0.05, 2.0), rng.uniform(0.0, 2 * math.pi))
    return RParams(A=a, B=b, tau=tau)


def _uniform_p(rng: random.Random) -> PoissonParams:
    return PoissonParams(rng.uniform(1e-6, 10.0))


def _log_m(rng: random.Random) -> float:
    return 10 ** rng.uniform(-3, 1)


def _draws(rng: random.Random, draws: int, first):
    """(first(rng), c, r) for each of draws draws, drawn in that order."""
    for _ in range(draws):
        yield first(rng), draw_class_params(rng), draw_r_params(rng)


def _no_interior_pole(p: PoissonParams, lam: float) -> bool:
    # the radius-0.999 witness is only claimed where the quotient denominator
    # D(r) = (1-lam) F(r)/r + lam F'(r) stays positive on the real segment (0, 0.999].
    # F's tail is negative (every b_n >= 0), so D(r) = 1 - sum b_n (1-lam+lam n) r^(n-1)
    # = 1 - e^{-m}[(1-lam)(e^{mr} - 1) + lam((1+mr)e^{mr} - 1)] is strictly
    # decreasing in r, and its sign at the end decides; taking the end one ulp
    # past 0.999 can only reject a draw, never accept one wrongly.  The grid's
    # den at z = r, from F's closed form, is r D(r), with the same sign
    r = complex(math.nextafter(0.999, 1.0))
    (_, den), = _quotients(_closed_values(ClosedSeries(_F, p), False, (r,)), lam)
    return den.real > 0


def _draw_holding(rng: random.Random, top: float, lhs):
    """(p, c) with m log-uniform up to 10**top and lhs(p, c) at most 2k less
    HOLD_MARGIN of 2k, drawn until one holds."""
    while True:
        m = 10 ** rng.uniform(-3, top)
        c = ClassParams(k=rng.uniform(0.05, 1.0), lam=rng.uniform(0.0, 0.95))
        p = PoissonParams(m)
        if lhs(p, c) <= (1 - HOLD_MARGIN) * 2 * c.k:
            return p, c


def draw_t1_holding(rng: random.Random):
    """(p, c) with the F-series S-membership holding by at least HOLD_MARGIN of 2k."""
    return _draw_holding(rng, 0, t1_lhs)


def draw_t4_holding(rng: random.Random):
    """(p, c) with the integral-companion S-membership holding by HOLD_MARGIN of 2k."""
    return _draw_holding(rng, 0.5, t4_lhs)


def draw_t1_failing_radial(rng: random.Random):
    """(p, c) failing the F-series criterion by >= FAIL_EXCESS of 2k, restricted to
    draws whose condition denominator has no zero on the real segment, where
    the radial witness at 0.999 is guaranteed."""
    while True:
        m = rng.uniform(1e-3, 10.0)
        c = ClassParams(k=rng.uniform(0.01, 1.0), lam=rng.uniform(0.0, 0.999))
        p = PoissonParams(m)
        if t1_lhs(p, c) < (1 + FAIL_EXCESS) * 2 * c.k:
            continue
        if _no_interior_pole(p, c.lam):
            return p, c


# ---- checks ----

def _worst(values) -> float:
    """The largest of values and 0.0.  The first nan, which compares false
    with every number, is the largest: a nan measure fails its check."""
    worst = 0.0
    for value in values:
        if worst == worst and not value <= worst:
            worst = value
    return worst


def _identity_rows(p: PoissonParams, n_top: int):
    """(kind, closed, partial, |difference|, allowed) per sum; passes if difference <= allowed."""
    for kind in SumKind:
        closed = shifted_exp_sum(p, kind)
        partial = partial_shifted_sum(p, kind, n_top)
        yield (kind, closed, partial, abs(closed - partial),
               max(IDENTITY_ABS_TOL, IDENTITY_REL_TOL * abs(closed)))


def check_identities(rng: random.Random, draws: int = 200):
    policy = TruncationPolicy(eps=1e-12)
    worst = _worst(err / allowed for p in (_uniform_p(rng) for _ in range(draws))
                   for *_, err, allowed in _identity_rows(p, choose_truncation(p, policy)))
    return "identities", worst <= 1.0, f"worst err/allowed {fmt_float(worst)}"


_CROSSCHECK_PIDS = (PredicateId.T1_F_in_S, PredicateId.T2_F_in_C,
                    PredicateId.T4_G_in_S, PredicateId.T5_I_in_S,
                    PredicateId.T6_I_in_C)


def check_crosschecks(rng: random.Random, draws: int = 200):
    worst = _worst(crosscheck(pid, p, c, r) for p, c, r in _draws(rng, draws, _uniform_p)
                   for pid in _CROSSCHECK_PIDS)
    return "crosschecks", worst < RESIDUAL_TOL, f"worst residual {fmt_float(worst)}"


def _verdict(pid: PredicateId, m: float, c: ClassParams,
             r: RParams | None = None) -> Verdict:
    # evaluate()'s verdict: a corollary still resolves to its theorem at lambda = 0
    row, c = resolve(pid, c, r)
    return classify(_margin(row, m, c, r))


def check_equivalences(rng: random.Random, draws: int = 1000):
    """Compare verdicts that the paper states are equal, over random draws.

    The check can fail only if theorems._ROWS or theorems.resolve is
    miswired: T3 and T1 share one closed form, theorems._t1, and each
    corollary resolves to its theorem's row at lambda = 0, so each pair is a
    computation compared with itself.  It stays because bench/ calls it by
    name; ROADMAP item 10 gives it an independent route, G's C-condition
    against F's S-condition on one grid (z G' = F).
    """
    mismatches = 0
    for m, c, r in _draws(rng, draws, _log_m):
        if _verdict(PredicateId.T3_G_in_C, m, c) is not \
                _verdict(PredicateId.T1_F_in_S, m, c):
            mismatches += 1
        c0 = ClassParams(c.k, 0.0)
        for pid, row in SPECS.items():
            if pid is row.corollary and _verdict(pid, m, c, r) is not \
                    _verdict(row.theorem, m, c0, r):
                mismatches += 1
    return "equivalences", mismatches == 0, f"{mismatches} verdict mismatches"


def check_inclusions(rng: random.Random, draws: int = 10_000):
    violations = 0
    ok_verdicts = (Verdict.HOLDS, Verdict.MARGINAL)
    # theorem rows resolve to the class parameters they are given
    t1, t2, t5, t6 = (SPECS[pid] for pid in (
        PredicateId.T1_F_in_S, PredicateId.T2_F_in_C,
        PredicateId.T5_I_in_S, PredicateId.T6_I_in_C))
    for m, c, r in _draws(rng, draws, _log_m):
        if classify(_margin(t2, m, c, None)) is Verdict.HOLDS:
            if classify(_margin(t1, m, c, None)) not in ok_verdicts:
                violations += 1
        if classify(_margin(t6, m, c, r)) is Verdict.HOLDS:
            if classify(_margin(t5, m, c, r)) not in ok_verdicts:
                violations += 1
    return "inclusions", violations == 0, f"{violations} violations"


def check_threshold_fixture(rng: random.Random):
    res = solve_m_star(PredicateId.T1_F_in_S, ClassParams(k=1.0, lam=0.0), tol=1e-10)
    err = abs(res.m_star - THRESHOLD_FIXTURE)
    return ("threshold_fixture", err < THRESHOLD_FIXTURE_TOL,
            f"m_star {fmt_float(res.m_star)} err {fmt_float(err)}")


def _rel_diff(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def check_bracket_identity(rng: random.Random, draws: int = 1000):
    """Compare t5_lhs with scale times t4_lhs, over random draws.

    t5_lhs(p, c, r) is r.scale * t4_lhs(p, c), the very expression it is
    compared with, so the worst relative difference reads 0 by construction.
    The check stays because bench/ calls it by name; ROADMAP item 10 gives it
    an independent route, the I image's S-sum against scale times G's.
    """
    worst = _worst(_rel_diff(t5_lhs(p, c, r), r.scale * t4_lhs(p, c))
                   for p, c, r in _draws(rng, draws, _uniform_p))
    return "bracket_identity", worst <= BRACKET_REL_TOL, f"worst rel diff {fmt_float(worst)}"


def _draw_at(p: PoissonParams, c: ClassParams) -> str:
    """The draw (m, k, lambda) a failing grid was made at, to rerun it by."""
    return f"m={fmt_float(p.m)} k={fmt_float(c.k)} lam={fmt_float(c.lam)}"


def check_disk_sampling(rng: random.Random, holding_draws: int = 20,
                        failing_draws: int = 10):
    """Grid holding draws for no violation and failing draws for a witness.

    Each series is gridded whole, from its closed form (series.ClosedSeries).
    A holding draw's F or G series must stay below k on every circle of the
    default grid, so it is gridded on all four radii.  A failing draw is
    claimed to exceed k at the radial point z = 0.999 (draw_t1_failing_radial
    admits only draws where that witness is guaranteed), so it is gridded on
    the circle of radius 0.999 alone, whose first point is that z.  A witness
    found on that one circle is also a witness on any grid that contains it,
    so dropping the inner circles can only make the check stricter.
    """
    bad = []
    for _ in range(holding_draws):
        for draw, series, label in ((draw_t1_holding, _F, "S"), (draw_t4_holding, _G, "G")):
            p, c = draw(rng)
            if grid_check(ClosedSeries(series, p), ConditionId.S_COND, c).violations:
                bad.append(f"{label} violation at {_draw_at(p, c)}")
    for _ in range(failing_draws):
        p, c = draw_t1_failing_radial(rng)
        rep = grid_check(ClosedSeries(_F, p), ConditionId.S_COND, c, _WITNESS_GRID)
        if not rep.max_value > c.k:
            bad.append(f"missing witness at {_draw_at(p, c)}")
    return "disk_sampling", not bad, "; ".join(bad) if bad else "all grids consistent"


_CHECKS = (check_identities, check_crosschecks, check_equivalences,
           check_inclusions, check_threshold_fixture, check_bracket_identity,
           check_disk_sampling)


def run_suite(seed: int = 0) -> dict:
    # random.Random seeds None from the OS, and the summary must repeat
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise DomainError(f"seed must be an int, got {_shown(seed)}")
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
