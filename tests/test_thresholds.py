import cmath
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gftpoisson import (ClassParams, InvalidTolerance, MissingRParams,
                        Outcome, PoissonParams, PredicateId, RParams,
                        Verdict, evaluate, solve_m_star)

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
    assert abs(res.m_star - T1_ROOT) < 1e-9
    assert res.bracket_width < 1e-10
    assert res.evaluations > 10


def test_t2_fixture_root():
    res = solve_m_star(PredicateId.T2_F_in_C, K1, tol=1e-10)
    assert abs(res.m_star - T2_ROOT) < 1e-9


def test_t6_fixture_root():
    res = solve_m_star(PredicateId.T6_I_in_C, K1, r=R_WIDE, tol=1e-10)
    assert res.outcome is Outcome.FINITE
    assert abs(res.m_star - T6_ROOT) < 1e-9


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


BOUNDED_PIDS = (PredicateId.T4_G_in_S, PredicateId.T5_I_in_S,
                PredicateId.C3_I_in_Sk, PredicateId.C6_G_in_Sk)


@st.composite
def _bounded_points(draw):
    pid = draw(st.sampled_from(BOUNDED_PIDS))
    c = ClassParams(k=draw(st.floats(1e-3, 1.0)), lam=draw(st.floats(0.0, 0.99)))
    b = draw(st.floats(-1.0, 0.9))
    tau = cmath.rect(draw(st.floats(0.05, 2.0)), draw(st.floats(0.0, 2 * math.pi)))
    r = RParams(A=draw(st.floats(b + 0.05, 1.0)), B=b, tau=tau)
    return pid, c, r


@given(_bounded_points())
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


@pytest.mark.parametrize("bad", [0.0, -1e-10, math.inf, math.nan])
def test_rejects_bad_tolerance(bad):
    with pytest.raises(InvalidTolerance):
        solve_m_star(PredicateId.T1_F_in_S, K1, tol=bad)


def test_requires_r_params_for_operator_predicates():
    with pytest.raises(MissingRParams):
        solve_m_star(PredicateId.T5_I_in_S, K1)
    with pytest.raises(MissingRParams):
        solve_m_star(PredicateId.C4_I_in_Ck, K1)
