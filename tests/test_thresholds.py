import cmath
import functools
import math
import random
import sys

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gftpoisson.thresholds
from gftpoisson.cli import EXIT_USAGE, main
from gftpoisson import (ClassParams, DomainError, InvalidTolerance,
                        MissingRParams, Outcome, PoissonParams, PredicateId,
                        RParams, Verdict, evaluate, solve_m_star)
from gftpoisson.theorems import _NEWTON_STEPS, SPECS, _lambert_w0, _newton, resolve

K1 = ClassParams(k=1.0, lam=0.0)
R_WIDE = RParams(A=1.0, B=-1.0, tau=1.0)

# frozen reference roots, each solved to 1e-13 by bisection on the closed form
T1_ROOT = 0.5671432904097838       # m e^m = 1
T2_ROOT = 0.24211528765542134      # m^2 e^m + 3 m e^m = 1
T4_ROOT_K04 = 1.1749966220525625   # k = 0.4 crossing of the bounded form
T6_ROOT = 0.2662486081617502       # 2m + 2(1 - e^{-m}) = 1


def test_t1_fixture_root():
    res = solve_m_star(PredicateId.T1_F_in_S, K1, tol=1e-10)
    assert res.outcome is Outcome.FINITE
    assert abs(res.m_star - T1_ROOT) <= 1e-15
    assert res.bracket_width < 1e-10
    # the W(2k/P) route: one probe on each side of Omega = W(1)
    assert res.evaluations == 2


def test_a_confirmed_root_is_returned_bit_for_bit():
    # W(2k/P) lies 5.6e-12 below 0.5, so root + tol/4 rounds on the coarser
    # grid above 0.5 and the midpoint of the two probes is one ulp off the root
    pid, c = PredicateId.T1_F_in_S, ClassParams(k=0.7012019672989103, lam=0.0)
    root = SPECS[pid].root(c, None, None)
    assert 0.5 * ((root - 1e-10 / 4) + (root + 1e-10 / 4)) != root
    res = solve_m_star(pid, c)
    assert res.evaluations == 2
    assert res.m_star == root


def test_t2_fixture_root():
    res = solve_m_star(PredicateId.T2_F_in_C, K1, tol=1e-10)
    assert abs(res.m_star - T2_ROOT) < 1e-9
    # two margins confirm the Newton root; the bracket and ITP made 9, and
    # doubling 17
    assert res.evaluations == 2


def test_t6_fixture_root():
    res = solve_m_star(PredicateId.T6_I_in_C, K1, r=R_WIDE, tol=1e-10)
    assert res.outcome is Outcome.FINITE
    assert abs(res.m_star - T6_ROOT) < 1e-9
    # the W route: one probe on each side of the closed-form crossing
    assert res.evaluations == 2


def test_t4_k1_never_crosses():
    res = solve_m_star(PredicateId.T4_G_in_S, K1)
    assert res.outcome is Outcome.ALWAYS_HOLDS
    assert res.m_star is None
    assert res.bracket_width is None
    assert res.evaluations == 0
    d = res.to_json_dict()
    assert set(d) == {"predicate", "outcome", "m_star", "bracket", "evals"}
    assert d["outcome"] == "always_holds"
    assert d["m_star"] is None


def test_t4_small_k_crosses():
    res = solve_m_star(PredicateId.T4_G_in_S, ClassParams(k=0.4, lam=0.0))
    assert res.outcome is Outcome.FINITE
    assert abs(res.m_star - T4_ROOT_K04) < 1e-8


def test_t5_bounded_outcomes():
    # limit of the LHS is scale * P; above 2k it crosses, below it never does
    narrow = RParams(A=1.0, B=0.5, tau=1.0)   # scale 0.5, limit 1 < 2
    res = solve_m_star(PredicateId.T5_I_in_S, K1, r=narrow)
    assert res.outcome is Outcome.ALWAYS_HOLDS
    wide = solve_m_star(PredicateId.T5_I_in_S, ClassParams(k=0.4, lam=0.0),
                        r=R_WIDE)
    assert wide.outcome is Outcome.FINITE


def test_t5_crossing_beyond_fifty_is_found():
    # the LHS limit scale * P = 0.6677 * 1.5 exceeds 2k = 1, but the margin
    # stays positive until m is about 215
    c = ClassParams(k=0.5, lam=0.0)
    r = RParams(A=1.0, B=0.0, tau=0.6677)
    res = solve_m_star(PredicateId.T5_I_in_S, c, r=r)
    assert res.outcome is Outcome.FINITE
    assert res.m_star == pytest.approx(215.387, abs=1e-3)
    assert evaluate(PredicateId.T5_I_in_S, PoissonParams(0.99 * res.m_star),
                    c, r).verdict is Verdict.HOLDS
    assert evaluate(PredicateId.T5_I_in_S, PoissonParams(1.01 * res.m_star),
                    c, r).verdict is Verdict.FAILS


def test_t5_one_ulp_past_the_limit_terminates():
    # fl(scale * P) is the float just above 2k = 1, so the float limit margin
    # is -2^-52; the exact gap d = 4.2e-16 puts the crossing near m = 1.2e15,
    # where the margin has rounded to 0 since about 9e14
    c = ClassParams(k=0.5, lam=0.0)
    r = RParams(A=1.0, B=0.0, tau=0.6666666666666669)
    assert 2 * c.k - r.scale * 1.5 == -2.0 ** -52
    res = solve_m_star(PredicateId.T5_I_in_S, c, r=r)
    assert res.evaluations < 200
    _assert_bounded_contract(PredicateId.T5_I_in_S, c, r, res)


def test_float_resolution_bracket_holds_the_sign_change():
    # near m = 1.2e15 the bracket closes at one ulp and m* rounds onto one of
    # its ends, so the reported bracket must reach the far end
    c = ClassParams(k=0.5, lam=0.0)
    r = RParams(A=1.0, B=0.0, tau=0.6666666666666669)
    res = solve_m_star(PredicateId.T5_I_in_S, c, r=r)
    assert res.bracket_width <= math.ulp(res.m_star)
    with mpmath.workdps(50):
        exact = _mp_crossing(lambda m: _mp_gap_margin(c, _mp_scale(r), m))
        assert abs(exact - res.m_star) <= res.bracket_width


@st.composite
def _points(draw):
    pid = draw(st.sampled_from(list(PredicateId)))
    c = ClassParams(k=draw(st.floats(1e-3, 1.0)), lam=draw(st.floats(0.0, 0.99)))
    b = draw(st.floats(-1.0, 0.9))
    tau = cmath.rect(draw(st.floats(0.05, 2.0)), draw(st.floats(0.0, 2 * math.pi)))
    r = RParams(A=draw(st.floats(b + 0.05, 1.0)), B=b, tau=tau)
    return pid, c, r


@given(_points())
@settings(max_examples=150, deadline=None)
def test_bounded_outcome_agrees_with_evaluate(point):
    pid, c, r = point
    res = solve_m_star(pid, c, r=r)

    def margin(m):
        return evaluate(pid, PoissonParams(m), c, r).margin

    if res.outcome is Outcome.ALWAYS_HOLDS:
        assert res.evaluations == 0
        # the exact limit is at most 2k, and the float margin at most an ulp
        # below 0, inside the Marginal band
        assert all(evaluate(pid, PoissonParams(m), c, r).verdict is not Verdict.FAILS
                   for m in (1, 50, 1e3, 1e6, 1e12))
    if SPECS[pid].gap(c, r) is not None:
        _assert_bounded_contract(pid, c, r, res)
    elif res.m_star <= 1e4:
        probe = 3 * res.bracket_width
        assert margin(res.m_star - probe) > 0
        assert margin(res.m_star + probe) <= 0


LAMBERT_PIDS = (PredicateId.T1_F_in_S, PredicateId.C1_F_in_Sk,
                PredicateId.T3_G_in_C, PredicateId.C5_G_in_Ck)


@given(st.sampled_from(LAMBERT_PIDS), st.floats(1e-6, 1.0), st.floats(0.0, 0.999))
@settings(max_examples=200)
def test_p_m_exp_m_roots_are_lambert_w(pid, k, lam):
    # P m e^m = 2k at m* = W(2k/P), P = (1-lambda) + k(1+lambda)
    res = solve_m_star(pid, ClassParams(k=k, lam=lam))
    if pid.value.startswith("C"):
        lam = 0.0
    with mpmath.workdps(50):
        k_, lam_ = mpmath.mpf(k), mpmath.mpf(lam)
        w = mpmath.lambertw(2 * k_ / ((1 - lam_) + k_ * (1 + lam_))).real
        assert abs(res.m_star - w) <= 1e-15 * res.m_star


def test_w_route_declines_a_bracket_as_wide_as_tol():
    # Omega's last bit is odd, so Omega -+ tol/4 at tol = 2 ulp rounds to the
    # neighbouring floats, a bracket exactly tol wide; the contract wants < tol
    tol = 2 * math.ulp(T1_ROOT)
    res = solve_m_star(PredicateId.T1_F_in_S, K1, tol=tol)
    assert res.evaluations > 2
    assert abs(res.m_star - T1_ROOT) <= tol


def test_wide_tolerance_below_a_tiny_root():
    # W(2k/P) = 2e-6 lies closer to 0 than tol/4, so the search probes it at
    # half its size on either side
    c = ClassParams(k=1e-6, lam=0.0)
    res = solve_m_star(PredicateId.T1_F_in_S, c, tol=1.0)
    assert res.outcome is Outcome.FINITE
    assert 0 < res.m_star - res.bracket_width
    assert evaluate(PredicateId.T1_F_in_S,
                    PoissonParams(res.m_star + res.bracket_width), c).margin <= 0


def test_probes_keep_a_quarter_tol_from_the_bracket_ends():
    # a regula falsi probe here lands within 1e-16 of the crossing; closing the
    # bracket that far below tol leaves both ends in the margin's rounding noise
    pid, c = PredicateId.T4_G_in_S, ClassParams(k=0.0001763002574256282,
                                                 lam=0.9815816892199952)
    res = solve_m_star(pid, c, tol=1e-10)
    assert res.bracket_width >= 1e-10 / 8
    probe = 3 * res.bracket_width
    assert evaluate(pid, PoissonParams(res.m_star - probe), c).margin > 0
    assert evaluate(pid, PoissonParams(res.m_star + probe), c).margin <= 0


def test_tolerance_below_float_resolution_ends_at_one_ulp():
    res = solve_m_star(PredicateId.T2_F_in_C, K1, tol=5e-324)
    assert res.outcome is Outcome.FINITE
    assert abs(res.m_star - T2_ROOT) < 1e-15
    assert res.bracket_width <= math.ulp(res.m_star)


@pytest.mark.parametrize("pid,r", [
    (PredicateId.T1_F_in_S, None),
    (PredicateId.T2_F_in_C, None),
    (PredicateId.T6_I_in_C, R_WIDE),
    (PredicateId.T4_G_in_S, R_WIDE),
])
def test_bracket_contains_sign_change(pid, r):
    c = ClassParams(k=0.6, lam=0.2)
    res = solve_m_star(pid, c, r=r, tol=1e-10)
    if res.outcome is not Outcome.FINITE:
        pytest.skip("no crossing for these parameters")
    probe = 3 * res.bracket_width
    below = evaluate(pid, PoissonParams(res.m_star - probe), c, r).margin
    above = evaluate(pid, PoissonParams(res.m_star + probe), c, r).margin
    assert below > 0
    assert above < 0


def test_refined_root_stays_inside_coarse_bracket():
    coarse = solve_m_star(PredicateId.T1_F_in_S, K1, tol=1e-8)
    fine = solve_m_star(PredicateId.T1_F_in_S, K1, tol=1e-9)
    assert abs(fine.m_star - coarse.m_star) <= coarse.bracket_width + fine.bracket_width


def test_root_increases_with_k():
    # a looser class constant moves the crossing outward
    roots = [solve_m_star(PredicateId.T1_F_in_S, ClassParams(k=k, lam=0.0)).m_star
             for k in (0.1, 0.25, 0.5, 0.75, 1.0)]
    assert all(b > a for a, b in zip(roots, roots[1:]))


def test_corollary_threshold_matches_parent():
    res_c = solve_m_star(PredicateId.C1_F_in_Sk, ClassParams(k=0.7, lam=0.9))
    res_p = solve_m_star(PredicateId.T1_F_in_S, ClassParams(k=0.7, lam=0.0))
    assert res_c.m_star == pytest.approx(res_p.m_star, abs=1e-10)


# an int past the largest double raised a bare OverflowError that named no input
@pytest.mark.parametrize("bad", [0.0, -1e-10, math.inf, math.nan, True, 10 ** 400],
                         ids=["0", "negative", "inf", "nan", "True", "10**400"])
def test_rejects_bad_tolerance(bad):
    with pytest.raises(InvalidTolerance) as exc:
        solve_m_star(PredicateId.T1_F_in_S, K1, tol=bad)
    assert str(exc.value) == f"tol must be finite and positive, got {bad!r}"


@pytest.mark.parametrize("pid", ["T1_F_in_S", None, []])
def test_rejects_a_predicate_that_is_not_a_predicate_id(pid):
    with pytest.raises(DomainError) as exc:
        solve_m_star(pid, K1)
    assert str(exc.value) == f"predicate must be a PredicateId, got {pid!r}"


@pytest.mark.parametrize("c", [0.5, None, RParams(A=1.0, B=-1.0, tau=1.0)])
def test_rejects_class_params_that_are_no_class_params_record(c):
    # a float raised "'float' object has no attribute 'k'"
    with pytest.raises(DomainError) as exc:
        solve_m_star(PredicateId.T1_F_in_S, c)
    assert str(exc.value) == f"c must be a ClassParams, got {c!r}"


@pytest.mark.parametrize("r", [(1.0, -1.0, 1.0), K1])
def test_rejects_r_params_that_are_neither_none_nor_an_r_params_record(r):
    with pytest.raises(DomainError) as exc:
        solve_m_star(PredicateId.T5_I_in_S, K1, r)
    assert str(exc.value) == f"r must be an RParams or None, got {r!r}"


def test_requires_r_params_for_operator_predicates():
    with pytest.raises(MissingRParams):
        solve_m_star(PredicateId.T5_I_in_S, K1)
    with pytest.raises(MissingRParams):
        solve_m_star(PredicateId.C4_I_in_Ck, K1)


# ---- closed-form roots and Newton starts against 50-digit references ----

ks = st.floats(1e-6, 1.0)
lams = st.floats(0.0, 0.999)


@st.composite
def _r_params(draw):
    b = draw(st.floats(-1.0, 0.9))
    a = draw(st.floats(b + 1e-3, 1.0))
    tau = cmath.rect(draw(st.floats(1e-3, 1e3)), draw(st.floats(0.0, 2 * math.pi)))
    return RParams(A=a, B=b, tau=tau)


def _mp_class(c):
    k, lam = mpmath.mpf(c.k), mpmath.mpf(c.lam)
    return k, (1 - lam) + k * (1 + lam), (1 - lam) * (1 - k), 1 + 2 * k + k * lam - lam


def _mp_t2_margin(c, m):
    k, p, _, q_factor = _mp_class(c)
    m = mpmath.mpf(m)
    return 2 * k - m * mpmath.exp(m) * (p * m + 2 * q_factor)


def _mp_t4_margin(c, scale, m):
    # scale is the float r.scale the solver's closed form multiplies by
    k, p, q, _ = _mp_class(c)
    m = mpmath.mpf(m)
    g = (-mpmath.expm1(-m) - m * mpmath.exp(-m)) / m
    return 2 * k - mpmath.mpf(scale) * (p * -mpmath.expm1(-m) - q * g)


def _bounded_case(k, lam, r, excess_exp):
    """(c, r) of T4 where r is None, else of T5, with its limit scale * P put
    just above 2k where excess_exp is given."""
    c = ClassParams(k=k, lam=lam)
    if r is not None and excess_exp is not None:
        # the crossing is far out when the limit is near 2k
        tau = 2 * k * (1 + 10 ** excess_exp) / (c.P * (r.A - r.B))
        r = RParams(A=r.A, B=r.B, tau=tau)
    return c, r


bounded_cases = (ks, lams, st.one_of(st.none(), _r_params()),
                 st.one_of(st.none(), st.floats(-10.0, 0.0)))


@given(*bounded_cases)
@settings(max_examples=2000, deadline=None)
@example(0.4, 0.0, None, None)   # the T4 fixture, m* = 1.175
@example(1 - 2.0 ** -40, 0.0, None, None)   # d = Q = 2^-40, declined below 2^-30 P once
@example(0.5, 0.0, RParams(A=1.0, B=0.0, tau=1 / (1.5 - 0.5 / 2000)), None)   # m* = 2000
@example(0.5, 0.0, R_WIDE, -10.0)   # the limit 1e-10 above 2k
@example(1.0, 0.3, R_WIDE, None)   # Q = 0: the start is m* itself
def test_bounded_newton_start_is_below_the_crossing(k, lam, r, excess_exp):
    # m* >= max(log(P/d), Q/d - 1) in exact arithmetic; the float start may lie
    # an ulp or so above it, and the first Newton step, taken unconditionally,
    # lands below it.  The margin is compared at 50 digits, so an exact 0 (Q = 0)
    # may read as -1e-50
    c, r = _bounded_case(k, lam, r, excess_exp)
    with mpmath.workdps(50):
        s = _mp_scale(r)
        k_, p, q, _ = _mp_class(c)
        d = p - 2 * k_ / s
        if d <= 0:
            return   # the limit is at most 2k: no crossing to start below
        start = max(mpmath.log(p / d), q / d - 1)
        assert _mp_gap_margin(c, s, start) >= -mpmath.mpf(10) ** -45, ("start past m*", start)


@given(ks, lams, _r_params())
@settings(max_examples=1000, deadline=None)
def test_t6_root_matches_the_mpmath_root(k, lam, r):
    # s (P m + 2k (1 - e^-m)) = 2k at m* = (a - 2k)/P + W((2k/P) e^((2k-a)/P)), a = 2k/s
    c = ClassParams(k=k, lam=lam)
    root = SPECS[PredicateId.T6_I_in_C].root(c, r, None)
    with mpmath.workdps(50):
        k_, p, _, _ = _mp_class(c)
        s = mpmath.mpf(r.scale)
        exact = mpmath.findroot(
            lambda m: s * (p * m - 2 * k_ * mpmath.expm1(-m)) - 2 * k_,
            (mpmath.mpf(0), 2 * k_ / (s * p)), solver="anderson")
        assert abs(root - exact) <= 1e-15 * max(exact, 1)


TOL = 1e-10   # solve_m_star's default


def _mp_crossing(margin, dps=50):
    """The zero of a margin that falls through 0 once as m grows, bracketed
    by halving or doubling m from 1 in mpmath."""
    with mpmath.workdps(dps):
        lo = hi = mpmath.mpf(1)
        while margin(hi) > 0:
            lo, hi = hi, 2 * hi
        while margin(lo) <= 0:
            lo, hi = lo / 2, lo
        return mpmath.findroot(margin, (lo, hi), solver="anderson", maxsteps=200)


def _mp_scale(r):
    """(A - B)|tau| of the float inputs at the working precision; 1 for T4."""
    if r is None:
        return mpmath.mpf(1)
    return (mpmath.mpf(r.A) - mpmath.mpf(r.B)) * mpmath.hypot(r.tau.real, r.tau.imag)


def _mp_gap_margin(c, s, m):
    """b - t4(m) = h(m) - d at the working precision, with b = 2k/s and
    d = P - b, formed on the smaller side, b or d, as the solver forms it."""
    k, p, q, _ = _mp_class(c)
    m, b = mpmath.mpf(m), 2 * k / s
    if 2 * b < p:
        return b - (p * -mpmath.expm1(-m) - q * (-mpmath.expm1(-m) - m * mpmath.exp(-m)) / m)
    return q * -mpmath.expm1(-m) / m + 2 * k * mpmath.exp(-m) - (p - b)


def _assert_bounded_contract(pid, c, r, res):
    """A bounded solve answers always_holds exactly where scale * P <= 2k, and
    otherwise evaluate() reports Holds or Marginal at m* - bracket and Fails or
    Marginal at m* + bracket, and the 50-digit crossing lies in m* -+ bracket
    while m* <= 1e5, past which the root's probes fall in the noise of h - d."""
    row, c_row = resolve(pid, c, r)
    r_row = r if row.needs_r else None
    with mpmath.workdps(50):
        s = _mp_scale(r_row)
        k, p, _, _ = _mp_class(c_row)
        if s * p <= 2 * k:
            assert res.outcome is Outcome.ALWAYS_HOLDS, res
            return
        assert res.outcome is Outcome.FINITE, res
        if res.m_star <= 1e5:
            exact = _mp_crossing(lambda m: _mp_gap_margin(c_row, s, m))
            assert abs(exact - res.m_star) <= res.bracket_width, (res, exact)
    below = evaluate(pid, PoissonParams(res.m_star - res.bracket_width), c, r)
    above = evaluate(pid, PoissonParams(res.m_star + res.bracket_width), c, r)
    assert below.verdict is not Verdict.FAILS, below
    assert above.verdict is not Verdict.HOLDS, above


def test_newton_gives_up_on_a_slope_that_is_not_positive():
    seen = []

    def value_slope(m):
        seen.append(m)
        return 1.0, 0.0

    assert _newton(1.0, value_slope) is None
    assert seen == [1.0]


def test_newton_gives_up_after_its_step_budget():
    # a unit step never falls below 4e-16 m, so the climb never stops itself
    seen = []

    def value_slope(m):
        seen.append(m)
        return 1.0, 1.0

    assert _newton(1.0, value_slope) is None
    assert seen == [1.0 + i for i in range(_NEWTON_STEPS)]


@given(ks, lams)
@settings(max_examples=500, deadline=None)
def test_t2_newton_root_is_within_a_quarter_tol(k, lam):
    c = ClassParams(k=k, lam=lam)
    root = SPECS[PredicateId.T2_F_in_C].root(c, None, None)
    exact = _mp_crossing(lambda m: _mp_t2_margin(c, m))
    assert abs(root - exact) <= TOL / 4


def _assert_bounded_root(c, r):
    row = SPECS[PredicateId.T4_G_in_S if r is None else PredicateId.T5_I_in_S]
    d = row.gap(c, r)
    with mpmath.workdps(50):
        s = _mp_scale(r)
        k, p, _, _ = _mp_class(c)
        assert (d > 0) == (s * p > 2 * k), d   # the gap's sign is exact
        if not d > 0:
            return
        root = row.root(c, r, d)
        exact = _mp_crossing(lambda m: _mp_gap_margin(c, s, m))
        # a few ulp of d or of h(m) move the crossing by a few ulp of m*; once
        # that exceeds tol/4 (m* above about 1e4) no float root does better
        assert abs(root - exact) <= max(TOL / 4, 16 * 2.0 ** -53 * exact), (root, exact)


@given(ks, lams)
@settings(max_examples=500, deadline=None)
def test_t4_newton_root_is_within_a_quarter_tol(k, lam):
    _assert_bounded_root(ClassParams(k=k, lam=lam), None)


@given(ks, lams, _r_params(), st.one_of(st.none(), st.floats(-10.0, 0.0)))
@settings(max_examples=500, deadline=None)
def test_t5_newton_root_is_within_a_quarter_tol(k, lam, r, excess_exp):
    _assert_bounded_root(*_bounded_case(k, lam, r, excess_exp))


@pytest.mark.parametrize("row", sorted(set(SPECS.values()), key=lambda row: row.theorem.value),
                         ids=lambda row: row.theorem.value)
@pytest.mark.parametrize("k", [5e-324, 1e-310, 2.2e-308, 1e-100])
@pytest.mark.parametrize("lam", [0.0, 0.3, 0.999])
def test_no_root_raises_at_a_tiny_class_constant(row, k, lam):
    c = ClassParams(k=k, lam=lam)
    root = row.root(c, R_UNIT, row.gap(c, R_UNIT))
    assert root is None or 0 < root < math.inf


@pytest.mark.parametrize("pid", [PredicateId.T2_F_in_C, PredicateId.T4_G_in_S,
                                 PredicateId.T5_I_in_S])
@pytest.mark.parametrize("k", [1e-100, 1e-300])
def test_newton_roots_keep_their_relative_accuracy_at_a_tiny_k(pid, k):
    # m* is of order k; a value formed as h(m) - d = (P - t4(m)) - (P - b)
    # would carry an absolute error near 1e-16, far above m* itself.  g(m)
    # cancels to about m/2 out of m, so the reference needs 2 log10(1/k) digits
    c, row = ClassParams(k=k, lam=0.3), SPECS[pid]
    scale = R_WIDE.scale if pid is PredicateId.T5_I_in_S else 1.0
    margin = (functools.partial(_mp_t2_margin, c) if pid is PredicateId.T2_F_in_C
              else functools.partial(_mp_t4_margin, c, scale))
    exact = _mp_crossing(margin, dps=700)
    assert abs(row.root(c, R_WIDE, row.gap(c, R_WIDE)) - exact) <= 1e-15 * exact


@given(_points())
@settings(max_examples=500, deadline=None)
def test_solver_shows_the_sign_change_at_its_bracket_ends(point):
    pid, c, r = point
    res = solve_m_star(pid, c, r=r)
    if SPECS[pid].gap(c, r) is not None:
        _assert_bounded_contract(pid, c, r, res)
        return
    below = evaluate(pid, PoissonParams(res.m_star - res.bracket_width), c, r)
    above = evaluate(pid, PoissonParams(res.m_star + res.bracket_width), c, r)
    assert below.margin > 0
    assert above.margin <= 0


@given(st.floats(0.0, math.e))
@settings(max_examples=1000)
@example(0.0)
@example(5e-324)
@example(math.e)
def test_lambert_w0_matches_mpmath_on_zero_to_e(x):
    # the T6 root feeds W arguments up to (2k/P) e^(2k/P) <= e
    w = _lambert_w0(x)
    with mpmath.workdps(50):
        exact = mpmath.lambertw(mpmath.mpf(x)).real
        assert abs(w - exact) <= 4e-16 * exact


# ---- every m the solver evaluates is positive and finite ----

def _recording(monkeypatch):
    """The list every margin the solver evaluates appends its m to: evaluate's
    margin, or h(m) - d near a bounded row's limit."""
    probes = []
    margin, gap_margin = gftpoisson.thresholds._margin, gftpoisson.thresholds._gap_margin

    def recording(row, m, c_row, r_row):
        probes.append(m)
        return margin(row, m, c_row, r_row)

    def gap_recording(m, c_row, d):
        probes.append(m)
        return gap_margin(m, c_row, d)

    monkeypatch.setattr(gftpoisson.thresholds, "_margin", recording)
    monkeypatch.setattr(gftpoisson.thresholds, "_gap_margin", gap_recording)
    return probes


def _recorded_probes(monkeypatch, pid, c, r, tol):
    probes = _recording(monkeypatch)
    res = solve_m_star(pid, c, r=r, tol=tol)
    assert len(probes) == res.evaluations
    return probes


@pytest.mark.parametrize("pid", list(PredicateId))
@pytest.mark.parametrize("k", [1e-6, 0.4])
@pytest.mark.parametrize("tol", [5e-324, 1e-10, 0.5])
def test_every_probe_is_positive_and_finite(monkeypatch, pid, k, tol):
    probes = _recorded_probes(monkeypatch, pid, ClassParams(k=k, lam=0.3),
                              R_WIDE, tol)
    assert all(0 < m < math.inf for m in probes), probes


@pytest.mark.parametrize("tol", [5e-324, 1e-10, 0.5])
def test_probes_of_the_far_t5_crossing_are_positive_and_finite(monkeypatch, tol):
    # the float limit exceeds 2k by one ulp and the crossing sits near m = 1.2e15
    c = ClassParams(k=0.5, lam=0.0)
    r = RParams(A=1.0, B=0.0, tau=0.6666666666666669)
    probes = _recorded_probes(monkeypatch, PredicateId.T5_I_in_S, c, r, tol)
    assert probes and all(0 < m < math.inf for m in probes), probes


def test_a_probe_past_the_largest_float_raises(monkeypatch):
    # with a margin that never turns negative, the search's doubling step
    # reaches m = inf, where the solver's guard raises, as PoissonParams(inf) does
    monkeypatch.setattr(gftpoisson.thresholds, "_margin", lambda row, m, c, r: 1.0)
    with pytest.raises(DomainError):
        solve_m_star(PredicateId.T2_F_in_C, K1)


@pytest.mark.parametrize("pid", [PredicateId.T2_F_in_C, PredicateId.T4_G_in_S,
                                 PredicateId.T5_I_in_S])
def test_newton_roots_are_confirmed_in_two_margins(monkeypatch, pid):
    # a confirmed start bracket and ITP made 9, 11 and 9 evaluations at this
    # point, and doubling from m = 1e-3 made 17, 23 and 19
    c, r, tol = ClassParams(k=0.9, lam=0.7), RParams(A=0.5, B=-1.0, tau=-1.5), 1e-10
    probes = _recorded_probes(monkeypatch, pid, c, r, tol)
    root = SPECS[pid].root(c, r, SPECS[pid].gap(c, r))
    assert probes == [root - tol / 4, root + tol / 4]


def test_near_limit_newton_root_is_confirmed_in_two_probes(monkeypatch):
    # near m* = 2000 evaluate's margin rounds to 0 over a stretch of m far
    # wider than tol/2, so probes of it could not confirm the root: the search
    # stepped down from the low one and ITP closed a bracket 7.8e-10 off the
    # crossing, in 10 evaluations.  h(m) - d shows the sign change at root -+ tol/4
    pid, c, tol = PredicateId.T5_I_in_S, ClassParams(k=0.5, lam=0.0), 1e-10
    r = RParams(A=1.0, B=0.0, tau=1 / (1.5 - 0.5 / 2000))
    probes = _recorded_probes(monkeypatch, pid, c, r, tol)
    root = SPECS[pid].root(c, r, SPECS[pid].gap(c, r))
    assert root == pytest.approx(2000, rel=1e-9)
    assert probes == [root - tol / 4, root + tol / 4]
    _assert_bounded_contract(pid, c, r, solve_m_star(pid, c, r=r, tol=tol))


def _with_root(row, root):
    # the row with another closed-form crossing, every other field the same
    return type(row)(row.theorem, row.corollary, row.series, row.condition, row.gap,
                     root, row.lhs, row.sum_scale)


@pytest.mark.parametrize("root", [T1_ROOT - 1e-6, T1_ROOT + 1e-6, 1000 * T1_ROOT])
def test_a_root_far_off_the_crossing_still_starts_the_search(monkeypatch, root):
    # the end on the crossing's side moves out from the root's probes, so no
    # answer depends on the root being right; below the root no probe is less
    # than half of the one before, so a root 1000 times m* is left by halving
    pid, tol = PredicateId.T1_F_in_S, 1e-10
    monkeypatch.setitem(SPECS, pid, _with_root(SPECS[pid], lambda c, r, d: root))
    probes = _recorded_probes(monkeypatch, pid, K1, None, tol)
    assert probes[0] == root - tol / 4
    assert len(set(probes)) == len(probes)
    assert all(b >= a / 2 for a, b in zip(probes, probes[1:])), probes
    res = solve_m_star(pid, K1, tol=tol)
    assert abs(res.m_star - T1_ROOT) <= tol
    assert evaluate(pid, PoissonParams(res.m_star - res.bracket_width), K1).margin > 0
    assert evaluate(pid, PoissonParams(res.m_star + res.bracket_width), K1).margin <= 0


def test_a_crossing_without_a_root_is_searched_from_a_thousandth(monkeypatch):
    # with d = P - 2k/scale = 2^-31 P the T5 root lies near m* = 7.2e8, where
    # an ulp exceeds tol, so its probes leave a bracket for bisection to close
    # at float resolution.  With the root taken away, the search probes
    # 1e-3 -+ 5e-4 and doubles its step out to m*; below 2^-30 P there was no
    # proven start, and with ITP this took 96 evaluations
    pid, c = PredicateId.T5_I_in_S, ClassParams(k=0.5, lam=0.0)
    r = RParams(A=1.0, B=0.0, tau=2 * c.k / (c.P * (1 - 2.0 ** -31)))
    assert c.P - 2 * c.k / r.scale == 2.0 ** -31 * c.P
    rooted = solve_m_star(pid, c, r=r)
    assert rooted.evaluations == 3
    monkeypatch.setitem(SPECS, pid, _with_root(SPECS[pid], lambda c, r, d: None))
    probes = _recorded_probes(monkeypatch, pid, c, r, 1e-10)
    assert probes[:3] == [5e-4, 1.5e-3, 2.5e-3]
    assert len(probes) == 94
    res = solve_m_star(pid, c, r=r)
    assert res.m_star == pytest.approx(7.158e8, rel=1e-3)
    assert abs(res.m_star - rooted.m_star) <= res.bracket_width + rooted.bracket_width
    _assert_bounded_contract(pid, c, r, res)


# ---- class constants near the smallest positive double ----

TINY_M = 5e-324
R_UNIT = RParams(A=1.0, B=0.0, tau=1.0)


TINY_KS = [5e-324, 1e-320, 1e-310, 2.2e-308]


@pytest.mark.parametrize("pid", list(PredicateId))
@pytest.mark.parametrize("k", TINY_KS)
def test_a_tiny_class_constant_is_solved_or_refused_as_a_domain_error(pid, k):
    # the crossing is of order k, far below tol = 1e-10, so the search probes
    # the root at half its size on either side, down to 5e-324;
    # InvalidTolerance was raised here once the start fell below 1e-300
    c = ClassParams(k=k, lam=0.3)

    def margin(m):
        return evaluate(pid, PoissonParams(m), c, R_UNIT).margin

    try:
        res = solve_m_star(pid, c, r=R_UNIT)
    except DomainError as exc:
        assert "smallest positive double" in str(exc)
        assert margin(TINY_M) <= 0
        return
    assert res.outcome is Outcome.FINITE
    # a bracket of width tol around a crossing near 1e-308 reaches below 0
    # once m* - bracket rounds, so its low end is the smallest positive m
    assert margin(max(res.m_star - res.bracket_width, TINY_M)) > 0
    assert margin(res.m_star + res.bracket_width) <= 0


@pytest.mark.parametrize("pid", list(PredicateId))
@pytest.mark.parametrize("k", [1e-100, 1e-310, 2.2e-308])
def test_a_root_closer_to_0_than_tol_is_confirmed_in_two_margins(pid, k):
    # the root, of order k, lies far closer to 0 than tol/4, so the search
    # probes it at half its size on either side.  Doubling from the W root
    # took up to 6 evaluations here and halving from 1e-3 about 323.  Below
    # the normal range the T2, T4 and T5 roots are the linear crossing; with
    # no root there, the search would halve from 1e-3 about 1020 times
    c = ClassParams(k=k, lam=0.3)
    res = solve_m_star(pid, c, r=R_UNIT)
    row, c_row = resolve(pid, c, R_UNIT)
    assert res.evaluations == 2
    assert res.m_star == row.root(c_row, R_UNIT, row.gap(c_row, R_UNIT))
    assert evaluate(pid, PoissonParams(res.m_star - res.bracket_width), c, R_UNIT).margin > 0
    assert evaluate(pid, PoissonParams(res.m_star + res.bracket_width), c, R_UNIT).margin <= 0


@pytest.mark.parametrize("pid", list(PredicateId))
@pytest.mark.parametrize("k", TINY_KS)
def test_no_solve_probes_the_same_m_twice(monkeypatch, pid, k):
    # after halving to a positive margin, doubling climbed straight back onto
    # the m it had just rejected and evaluated that margin a second time
    probes = _recording(monkeypatch)
    try:
        solve_m_star(pid, ClassParams(k=k, lam=0.3), r=R_UNIT)
    except DomainError:
        pass   # the halving reached 5e-324; its probes still count
    assert probes and len(set(probes)) == len(probes), probes


# ---- bounded crossings against 50 digits ----

BOUNDED_PIDS = (PredicateId.T4_G_in_S, PredicateId.C6_G_in_Sk,
                PredicateId.T5_I_in_S, PredicateId.C3_I_in_Sk)


def _near_limit_points(seed, count):
    """T5/C3 points drawn as the threshold_sweep workload draws its near-limit
    ones: |tau| puts the crossing near m_t, log-uniform in [60, 3000]."""
    rng = random.Random(seed)
    points = []
    for i in range(count):
        pid = (PredicateId.T5_I_in_S, PredicateId.C3_I_in_Sk)[i % 2]
        k, lam = rng.uniform(1e-6, 1.0), rng.uniform(0.0, 0.999)
        b = rng.uniform(-1.0, 0.9)
        a = rng.uniform(b + 0.05, 1.0)
        m_t = 10 ** rng.uniform(math.log10(60.0), math.log10(3000.0))
        row_lam = 0.0 if pid is PredicateId.C3_I_in_Sk else lam
        p = (1 - row_lam) + k * (1 + row_lam)
        scale = 2 * k / (p - (1 - row_lam) * (1 - k) / m_t)
        tau = cmath.rect(scale / (a - b), rng.uniform(0.0, 2 * math.pi))
        points.append((pid, ClassParams(k=k, lam=lam), RParams(A=a, B=b, tau=tau)))
    return points


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_near_limit_brackets_hold_the_50_digit_crossing(seed):
    # float margins rounded to one value over many tol of m here, and 76 of
    # the 278 finite bounded solves at three workload seeds reported a
    # bracket that missed the crossing, by up to 2.3e-7 with a 5e-11 bracket
    for pid, c, r in _near_limit_points(seed, 40):
        res = solve_m_star(pid, c, r=r)
        assert res.evaluations == 2, (pid, c, r, res)
        _assert_bounded_contract(pid, c, r, res)


@pytest.mark.parametrize("pid", [PredicateId.T4_G_in_S, PredicateId.C6_G_in_Sk])
@pytest.mark.parametrize("j", range(1, 54))
def test_t4_brackets_hold_the_50_digit_crossing_near_k_1(pid, j):
    # d = Q = (1 - lambda) 2^-j; the float limit P - 2k cancelled to a few ulp
    c = ClassParams(k=1 - 2.0 ** -j, lam=0.3)
    res = solve_m_star(pid, c)
    assert res.evaluations == 2, res
    _assert_bounded_contract(pid, c, None, res)


def test_t4_near_k_1_is_confirmed_in_two_probes():
    # 57 evaluations reported 31.22136 +- 2.5e-11 here; the crossing is 31.22417
    pid, c = PredicateId.T4_G_in_S, ClassParams(k=1 - 2.0 ** -44, lam=0.0)
    res = solve_m_star(pid, c)
    assert res.evaluations == 2
    assert res.m_star == pytest.approx(31.22417, abs=1e-5)
    _assert_bounded_contract(pid, c, None, res)


@given(st.sampled_from(BOUNDED_PIDS), ks, lams, _r_params(),
       st.one_of(st.none(), st.floats(-4.0, 0.0)))
@settings(max_examples=300, deadline=None)
@example(PredicateId.T5_I_in_S, 1.0, 0.3, R_WIDE, -4.0)
def test_bounded_brackets_hold_the_50_digit_crossing(pid, k, lam, r, excess_exp):
    # the limit at most 1e-4 above 2k keeps m* below about 1e5, where the
    # root's probes tol/4 apart still differ by more than the noise of h(m) - d
    c, r = _bounded_case(k, lam, r, excess_exp)
    _assert_bounded_contract(pid, c, r, solve_m_star(pid, c, r=r))


def test_a_gap_the_float_limit_hides_is_solved():
    # fl(scale * P) = 2k, so the float limit called this always_holds, but
    # scale * P exceeds 2k by 1.1e-16 and the crossing lies near m = 3e15
    pid, c = PredicateId.T5_I_in_S, ClassParams(k=0.5, lam=0.0)
    r = RParams(A=1.0, B=0.0, tau=math.nextafter(2 / 3, 1))
    assert 2 * c.k - r.scale * c.P == 0
    res = solve_m_star(pid, c, r=r)
    _assert_bounded_contract(pid, c, r, res)
    with mpmath.workdps(50):
        exact = _mp_crossing(lambda m: _mp_gap_margin(c, _mp_scale(r), m))
        assert exact == pytest.approx(3.0024e15, rel=1e-4)
        assert abs(exact - res.m_star) <= res.bracket_width


def test_a_crossing_past_the_largest_double_is_refused(capsys):
    # d = 5e-324 puts Q/d and the crossing past every double, where the float
    # limit, 1e-323 * 1.0, called this always_holds; the root is None and the
    # search doubles out to the largest double, where the margin is still > 0
    pid, c = PredicateId.T5_I_in_S, ClassParams(k=5e-324, lam=0.0)
    r = RParams(A=1.0, B=0.0, tau=1e-323)
    assert 2 * c.k - r.scale * c.P == 0
    assert SPECS[pid].gap(c, r) == 5e-324
    with pytest.raises(DomainError):
        solve_m_star(pid, c, r=r)
    code = main(["threshold", "--predicate", pid.value, "--k", "5e-324",
                 "--A", "1", "--B", "0", "--tau-re", "1e-323"])
    assert code == EXIT_USAGE
    assert "the crossing lies past the largest double" in capsys.readouterr().err


@pytest.mark.parametrize("tau", [1e-308, 3e-309, 2.5e-309])
def test_a_t6_crossing_near_the_largest_double_is_solved(tau):
    # 1.5 m + (1 - e^-m) = 1/scale at k = 0.5, so m* = (1/scale - 1)/1.5 here;
    # from MAX/2 on the bisection midpoint 0.5 (lo + hi) overflowed to inf, and
    # from MAX/1.5 on so did P m inside T6's closed form.  Where 2k/scale
    # overflows (tau = 2.5e-309) the root is still formed, so the probes at
    # root -+ step confirm it: the search from 1e-3 took 1088 evaluations
    c, r = ClassParams(k=0.5), RParams(A=1.0, B=-1.0, tau=tau)
    res = solve_m_star(PredicateId.T6_I_in_C, c, r=r)
    exact = (1 / mpmath.mpf(r.scale) - 1) / mpmath.mpf(1.5)
    assert res.outcome is Outcome.FINITE
    assert abs(exact - res.m_star) <= res.bracket_width < 1e-15 * res.m_star
    assert res.evaluations <= 4


def test_t6_closed_form_past_the_overflow_of_P_m():
    # P m = 1.5 m overflows here, but the left-hand side scale P m does not
    c, r = ClassParams(k=0.5), RParams(A=1.0, B=-1.0, tau=1e-309)
    report = evaluate(PredicateId.T6_I_in_C, PoissonParams(1.3e308), c, r)
    assert report.lhs == pytest.approx(r.scale * 1.5 * 1.3e308, rel=1e-13)
    assert report.verdict is Verdict.HOLDS


def test_a_t6_crossing_past_the_largest_double_names_its_cause(capsys):
    # m* = 3.3e308 at tau = 1e-309: the upward search stops at the largest
    # double with the margin still > 0
    assert main(["threshold", "--predicate", "T6_I_in_C", "--k", "0.5",
                 "--A", "1", "--B", "-1", "--tau-re", "1e-309"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "the crossing lies past the largest double" in err
    assert f"the margin at m = {sys.float_info.max!r} is " in err
