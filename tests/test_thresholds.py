import cmath
import math

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gftpoisson.thresholds
from gftpoisson import (ClassParams, DomainError, InvalidTolerance,
                        MissingRParams, Outcome, PoissonParams, PredicateId,
                        RParams, Verdict, evaluate, solve_m_star)
from gftpoisson.theorems import SPECS, _lambert_w0

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


def test_t2_fixture_root():
    res = solve_m_star(PredicateId.T2_F_in_C, K1, tol=1e-10)
    assert abs(res.m_star - T2_ROOT) < 1e-9
    # two margins confirm [W(2k/(P u + 2Q')), u], then ITP; doubling made 17
    assert res.evaluations <= 9


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
    # fl(scale * P) is the float just above 2k = 1, so the limit margin is -2^-52
    # and the float LHS reaches it only where (1-k) g(m) drops below half an ulp
    c = ClassParams(k=0.5, lam=0.0)
    r = RParams(A=1.0, B=0.0, tau=0.6666666666666669)
    assert 2 * c.k - r.scale * 1.5 == -2.0 ** -52
    res = solve_m_star(PredicateId.T5_I_in_S, c, r=r)
    assert res.outcome is Outcome.FINITE
    assert res.evaluations < 200
    # the bracket ends at float resolution near m = 9e14, where m* may round
    # onto either end, so probe three half-widths out; the margin passes
    # through exactly 0 there before it settles at -2^-52 near m = 2e15
    probe = 3 * res.bracket_width
    below = evaluate(PredicateId.T5_I_in_S, PoissonParams(res.m_star - probe), c, r)
    above = evaluate(PredicateId.T5_I_in_S, PoissonParams(res.m_star + probe), c, r)
    assert below.margin > 0
    assert above.margin <= 0


def test_float_resolution_bracket_holds_the_sign_change():
    # near m = 9e14 the bracket closes at one ulp and m* rounds onto one of its
    # ends, so the reported bracket must reach the far end
    c = ClassParams(k=0.5, lam=0.0)
    r = RParams(A=1.0, B=0.0, tau=0.6666666666666669)
    res = solve_m_star(PredicateId.T5_I_in_S, c, r=r)
    assert res.outcome is Outcome.FINITE
    below = evaluate(PredicateId.T5_I_in_S,
                     PoissonParams(res.m_star - res.bracket_width), c, r)
    above = evaluate(PredicateId.T5_I_in_S,
                     PoissonParams(res.m_star + res.bracket_width), c, r)
    assert below.margin > 0
    assert above.margin <= 0


@st.composite
def _points(draw):
    pid = draw(st.sampled_from(list(PredicateId)))
    c = ClassParams(k=draw(st.floats(1e-3, 1.0)), lam=draw(st.floats(0.0, 0.99)))
    b = draw(st.floats(-1.0, 0.9))
    tau = cmath.rect(draw(st.floats(0.05, 2.0)), draw(st.floats(0.0, 2 * math.pi)))
    r = RParams(A=draw(st.floats(b + 0.05, 1.0)), B=b, tau=tau)
    return pid, c, r


@given(_points())
@settings(max_examples=150)
def test_bounded_outcome_agrees_with_evaluate(point):
    pid, c, r = point
    res = solve_m_star(pid, c, r=r)

    def margin(m):
        return evaluate(pid, PoissonParams(m), c, r).margin

    if res.outcome is Outcome.ALWAYS_HOLDS:
        assert res.evaluations == 0
        assert all(margin(m) >= 0 for m in (1, 50, 1e3, 1e6, 1e12))
    elif res.m_star <= 1e4:
        # near k = 1 the margin is so flat at m* that it can round to exactly
        # 0 above the crossing; the solver counts 0 as not holding, as it must
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
    # W(2k/P) = 2e-6 lies closer to 0 than tol/4, so the W route cannot probe
    # below it and the doubling bracket takes over
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


@pytest.mark.parametrize("bad", [0.0, -1e-10, math.inf, math.nan, True])
def test_rejects_bad_tolerance(bad):
    with pytest.raises(InvalidTolerance):
        solve_m_star(PredicateId.T1_F_in_S, K1, tol=bad)


def test_requires_r_params_for_operator_predicates():
    with pytest.raises(MissingRParams):
        solve_m_star(PredicateId.T5_I_in_S, K1)
    with pytest.raises(MissingRParams):
        solve_m_star(PredicateId.C4_I_in_Ck, K1)


# ---- closed-form roots and start brackets against 50-digit references ----

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


def _assert_true_bracket(bracket, margin):
    lo, hi = bracket
    with mpmath.workdps(50):
        assert margin(lo) > 0, ("lower end past the crossing", bracket)
        assert margin(hi) < 0, ("upper end short of the crossing", bracket)


@given(ks, lams)
@settings(max_examples=1000, deadline=None)
def test_t2_bracket_ends_are_bounds(k, lam):
    c = ClassParams(k=k, lam=lam)
    _assert_true_bracket(SPECS[PredicateId.T2_F_in_C].bracket(c, None),
                         lambda m: _mp_t2_margin(c, m))


def _assert_bounded_bracket(c, scale, bracket):
    if scale * c.P <= 2 * c.k:
        return   # the limit is at most 2k: no crossing to bracket
    if bracket is None:
        # declined only where P - 2k/scale is within 2^-30 of P
        assert c.P - 2 * c.k / scale <= 2.0 ** -30 * c.P
        return
    _assert_true_bracket(bracket, lambda m: _mp_t4_margin(c, scale, m))


@given(ks, lams)
@settings(max_examples=1000, deadline=None)
def test_t4_bracket_ends_are_bounds(k, lam):
    c = ClassParams(k=k, lam=lam)
    _assert_bounded_bracket(c, 1.0, SPECS[PredicateId.T4_G_in_S].bracket(c, None))


@given(ks, lams, _r_params(), st.one_of(st.none(), st.floats(-10.0, 0.0)))
@settings(max_examples=1000, deadline=None)
def test_t5_bracket_ends_are_bounds(k, lam, r, excess_exp):
    c = ClassParams(k=k, lam=lam)
    if excess_exp is not None:
        # put the limit scale * P just above 2k, where the crossing is far out
        tau = 2 * k * (1 + 10 ** excess_exp) / (c.P * (r.A - r.B))
        r = RParams(A=r.A, B=r.B, tau=tau)
    _assert_bounded_bracket(c, r.scale, SPECS[PredicateId.T5_I_in_S].bracket(c, r))


@given(ks, lams, _r_params())
@settings(max_examples=1000, deadline=None)
def test_t6_root_matches_the_mpmath_root(k, lam, r):
    # s (P m + 2k (1 - e^-m)) = 2k at m* = (a - 2k)/P + W((2k/P) e^((2k-a)/P)), a = 2k/s
    c = ClassParams(k=k, lam=lam)
    root = SPECS[PredicateId.T6_I_in_C].root(c, r)
    with mpmath.workdps(50):
        k_, p, _, _ = _mp_class(c)
        s = mpmath.mpf(r.scale)
        exact = mpmath.findroot(
            lambda m: s * (p * m - 2 * k_ * mpmath.expm1(-m)) - 2 * k_,
            (mpmath.mpf(0), 2 * k_ / (s * p)), solver="anderson")
        assert abs(root - exact) <= 1e-15 * max(exact, 1)


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

def _recorded_probes(monkeypatch, pid, c, r, tol):
    probes = []
    margin = gftpoisson.thresholds._margin

    def recording(row, m, c_row, r_row):
        probes.append(m)
        return margin(row, m, c_row, r_row)

    monkeypatch.setattr(gftpoisson.thresholds, "_margin", recording)
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
    # the limit exceeds 2k by one ulp and the crossing sits near m = 9e14
    c = ClassParams(k=0.5, lam=0.0)
    r = RParams(A=1.0, B=0.0, tau=0.6666666666666669)
    probes = _recorded_probes(monkeypatch, PredicateId.T5_I_in_S, c, r, tol)
    assert probes and all(0 < m < math.inf for m in probes), probes


def test_a_probe_past_the_largest_float_raises(monkeypatch):
    # with a margin that never turns negative, doubling reaches m = inf, where
    # the solver's guard raises, as PoissonParams(inf) does
    monkeypatch.setattr(gftpoisson.thresholds, "_margin", lambda row, m, c, r: 1.0)
    with pytest.raises(DomainError):
        solve_m_star(PredicateId.T2_F_in_C, K1)


@pytest.mark.parametrize("pid,budget", [(PredicateId.T2_F_in_C, 9),
                                        (PredicateId.T4_G_in_S, 11),
                                        (PredicateId.T5_I_in_S, 9)])
def test_rows_without_a_root_start_from_their_bracket(monkeypatch, pid, budget):
    # doubling from m = 1e-3 made 17, 23 and 19 evaluations at this point
    c, r = ClassParams(k=0.9, lam=0.7), RParams(A=0.5, B=-1.0, tau=-1.5)
    probes = _recorded_probes(monkeypatch, pid, c, r, 1e-10)
    assert tuple(probes[:2]) == SPECS[pid].bracket(c, r)
    assert len(probes) <= budget


# ---- class constants near the smallest positive double ----

TINY_M = 5e-324
R_UNIT = RParams(A=1.0, B=0.0, tau=1.0)


@pytest.mark.parametrize("pid", list(PredicateId))
@pytest.mark.parametrize("k", [5e-324, 1e-320, 1e-310, 2.2e-308])
def test_a_tiny_class_constant_is_solved_or_refused_as_a_domain_error(pid, k):
    # the crossing is of order k, below anything the W route can probe at
    # tol = 1e-10, so the doubling start halves down to 5e-324 to find it;
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


@pytest.mark.parametrize("pid", [PredicateId.T1_F_in_S, PredicateId.C1_F_in_Sk,
                                 PredicateId.T3_G_in_C, PredicateId.C5_G_in_Ck,
                                 PredicateId.T6_I_in_C, PredicateId.C4_I_in_Ck])
def test_doubling_starts_at_a_root_too_small_to_probe(pid):
    # the root, of order k, lies far closer to 0 than tol/4, so the W route
    # declines; doubling from it takes a few steps where halving from 1e-3
    # took about 323
    c = ClassParams(k=1e-100, lam=0.3)
    res = solve_m_star(pid, c, r=R_UNIT)
    assert res.outcome is Outcome.FINITE
    assert res.evaluations <= 6
    assert evaluate(pid, PoissonParams(res.m_star - res.bracket_width), c, R_UNIT).margin > 0
    assert evaluate(pid, PoissonParams(res.m_star + res.bracket_width), c, R_UNIT).margin <= 0
