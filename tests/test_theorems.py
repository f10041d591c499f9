import cmath
import math
import random

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gftpoisson import (ClassParams, ConditionId, DomainError, MissingRParams,
                        PoissonParams, PredicateId, RParams, TruncationPolicy,
                        Verdict, apply_operator_I, choose_truncation, classify,
                        coeffs_G, crosscheck, evaluate, evaluate_with_crosscheck,
                        lemma_sum, t1_lhs, t2_lhs, t4_lhs, t5_lhs, t6_lhs,
                        worst_case_R_coeffs)
from gftpoisson.theorems import SPECS, _image, _margin, resolve

ks = st.floats(min_value=1e-6, max_value=1.0)
lams = st.floats(min_value=0.0, max_value=0.999)
ms = st.floats(min_value=1e-3, max_value=20.0)

R_DEFAULT = RParams(A=1.0, B=-1.0, tau=1.0)


# ---- closed forms ----

def test_t1_at_m1_k1_lam0_is_2e():
    assert t1_lhs(PoissonParams(1.0), ClassParams(k=1.0, lam=0.0)) == pytest.approx(
        2 * math.e, rel=1e-15)


def test_t1_fails_at_m1():
    report = evaluate(PredicateId.T1_F_in_S, PoissonParams(1.0),
                      ClassParams(k=1.0, lam=0.0))
    assert report.verdict is Verdict.FAILS
    assert report.lhs == pytest.approx(5.43656365691809, abs=1e-13)


def test_t1_holds_small_m():
    report = evaluate(PredicateId.T1_F_in_S, PoissonParams(0.01),
                      ClassParams(k=0.5, lam=0.5))
    assert report.verdict is Verdict.HOLDS


def test_t1_marginal_at_fixture_root():
    # W(m) = m e^m solves W = 1 at the Lambert point; margin rounds to zero
    report = evaluate(PredicateId.T1_F_in_S, PoissonParams(0.5671432904097838),
                      ClassParams(k=1.0, lam=0.0))
    assert report.verdict is Verdict.MARGINAL


def test_t2_at_m1_k1_lam0_is_8e():
    assert t2_lhs(PoissonParams(1.0), ClassParams(k=1.0, lam=0.0)) == pytest.approx(
        8 * math.e, rel=1e-15)
    assert 8 * math.e == pytest.approx(21.74625462767236, abs=1e-13)


@given(k=ks, lam=lams)
def test_t2_coefficient_identity(k, lam):
    # the n=2 term of the quadratic expansion: 3P + (1-lam)(k-1) = 2Q
    p_fac = (1 - lam) + k * (1 + lam)
    q_fac = 1 + 2 * k + k * lam - lam
    assert 3 * p_fac + (1 - lam) * (k - 1) == pytest.approx(2 * q_fac, rel=1e-12, abs=1e-12)


@given(m=st.floats(min_value=1e-3, max_value=50.0))
@settings(max_examples=80)
def test_t4_k1_closed_form(m):
    # at k=1, lam=0 the correction term vanishes: lhs = 2(1 - e^{-m}) < 2,
    # so membership never fails; at large m the margin 2e^{-m} sinks into
    # the marginal band
    lhs = t4_lhs(PoissonParams(m), ClassParams(k=1.0, lam=0.0))
    assert lhs == pytest.approx(2 * -math.expm1(-m), rel=1e-13)
    report = evaluate(PredicateId.T4_G_in_S, PoissonParams(m),
                      ClassParams(k=1.0, lam=0.0))
    assert report.verdict is not Verdict.FAILS
    assert report.margin >= 0
    if m < 20:
        assert report.verdict is Verdict.HOLDS


def test_t4_frozen_value():
    assert t4_lhs(PoissonParams(1.0), ClassParams(k=0.5, lam=0.0)) == pytest.approx(
        0.8160602794142788, abs=1e-15)


def test_t4_small_m_continuity():
    # the ratio term switches to its series branch below the tiny-m cut
    lo = t4_lhs(PoissonParams(9.9e-9), ClassParams(k=0.3, lam=0.2))
    hi = t4_lhs(PoissonParams(1.01e-8), ClassParams(k=0.3, lam=0.2))
    assert abs(lo - hi) < 1e-9


def test_t5_is_scale_times_t4():
    p = PoissonParams(1.0)
    c = ClassParams(k=1.0, lam=0.0)
    assert t5_lhs(p, c, R_DEFAULT) == 2.0 * t4_lhs(p, c)
    assert t5_lhs(p, c, R_DEFAULT) == pytest.approx(2.5284822353142307, abs=1e-15)


def test_t5_fails_for_wide_R_class():
    report = evaluate(PredicateId.T5_I_in_S, PoissonParams(1.0),
                      ClassParams(k=1.0, lam=0.0), R_DEFAULT)
    assert report.verdict is Verdict.FAILS


def test_t6_frozen_value():
    assert t6_lhs(PoissonParams(0.1), ClassParams(k=1.0, lam=0.0),
                  R_DEFAULT) == pytest.approx(0.7806503278561617, abs=1e-15)


@given(m=ms, k=ks, lam=lams)
@settings(max_examples=100)
def test_t6_equivalent_form(m, k, lam):
    # (A-B)|tau| e^{-m} (P m e^m + 2k(e^m - 1)) without the stable rewrite
    if m > 500:
        return
    c = ClassParams(k=k, lam=lam)
    p_fac = (1 - lam) + k * (1 + lam)
    naive = 2.0 * math.exp(-m) * (p_fac * m * math.exp(m) + 2 * k * (math.exp(m) - 1))
    assert t6_lhs(PoissonParams(m), c, R_DEFAULT) == pytest.approx(naive, rel=1e-12)


@pytest.mark.parametrize("fn", [t1_lhs, t2_lhs])
def test_monotone_in_m(fn):
    c = ClassParams(k=0.4, lam=0.3)
    vals = [fn(PoissonParams(m), c) for m in (0.1, 0.5, 1.0, 2.0, 5.0)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_t6_monotone_in_m():
    c = ClassParams(k=0.4, lam=0.3)
    vals = [t6_lhs(PoissonParams(m), c, R_DEFAULT) for m in (0.1, 0.5, 1.0, 2.0)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_overflow_guard_reports_failure_not_exception():
    report = evaluate(PredicateId.T1_F_in_S, PoissonParams(701.0),
                      ClassParams(k=1.0, lam=0.0))
    assert report.lhs == math.inf
    assert report.verdict is Verdict.FAILS


# ---- predicate wiring ----

@pytest.mark.parametrize("pid", list(PredicateId))
@given(m=st.floats(min_value=1e-6, max_value=750.0), k=ks, lam=lams)
@settings(max_examples=30)
def test_margin_is_evaluates_margin_bit_for_bit(pid, m, k, lam):
    p, c = PoissonParams(m), ClassParams(k=k, lam=lam)
    r = RParams(A=0.9, B=-0.4, tau=0.6 - 0.8j)
    report = evaluate(pid, p, c, r)
    row, c_row = resolve(pid, c, r)   # a corollary's row at lambda = 0
    margin = _margin(row, m, c_row, r)
    assert margin == report.margin
    assert classify(margin) is report.verdict


def test_missing_r_params_raises():
    with pytest.raises(MissingRParams):
        evaluate(PredicateId.T5_I_in_S, PoissonParams(1.0),
                 ClassParams(k=0.5, lam=0.0))
    with pytest.raises(MissingRParams):
        evaluate(PredicateId.C3_I_in_Sk, PoissonParams(1.0),
                 ClassParams(k=0.5, lam=0.0))


def test_t3_agrees_with_t1():
    rng = random.Random(7)
    for _ in range(1000):
        p = PoissonParams(10 ** rng.uniform(-3, 1))
        c = ClassParams(k=rng.uniform(1e-6, 1.0), lam=rng.uniform(0.0, 0.999))
        r1 = evaluate(PredicateId.T1_F_in_S, p, c)
        r3 = evaluate(PredicateId.T3_G_in_C, p, c)
        assert r3.lhs == r1.lhs
        assert r3.verdict is r1.verdict


COROLLARY_PARENT = [
    (PredicateId.C1_F_in_Sk, PredicateId.T1_F_in_S, False),
    (PredicateId.C2_F_in_Ck, PredicateId.T2_F_in_C, False),
    (PredicateId.C3_I_in_Sk, PredicateId.T5_I_in_S, True),
    (PredicateId.C4_I_in_Ck, PredicateId.T6_I_in_C, True),
    (PredicateId.C5_G_in_Ck, PredicateId.T3_G_in_C, False),
    (PredicateId.C6_G_in_Sk, PredicateId.T4_G_in_S, False),
]


@pytest.mark.parametrize("cor,parent,needs_r", COROLLARY_PARENT)
def test_corollary_equals_parent_at_lambda_zero(cor, parent, needs_r):
    rng = random.Random(11)
    for _ in range(300):
        p = PoissonParams(10 ** rng.uniform(-3, 1))
        k = rng.uniform(1e-6, 1.0)
        r = R_DEFAULT if needs_r else None
        rc = evaluate(cor, p, ClassParams(k=k, lam=rng.uniform(0.0, 0.999)), r)
        rp = evaluate(parent, p, ClassParams(k=k, lam=0.0), r)
        assert rc.lhs == rp.lhs
        assert rc.verdict is rp.verdict


def test_inclusion_T2_implies_T1_and_T6_implies_T5():
    rng = random.Random(13)
    for _ in range(2000):
        p = PoissonParams(10 ** rng.uniform(-3, 1))
        c = ClassParams(k=rng.uniform(1e-6, 1.0), lam=rng.uniform(0.0, 0.999))
        if evaluate(PredicateId.T2_F_in_C, p, c).verdict is Verdict.HOLDS:
            assert evaluate(PredicateId.T1_F_in_S, p, c).verdict in (
                Verdict.HOLDS, Verdict.MARGINAL)
        if evaluate(PredicateId.T6_I_in_C, p, c, R_DEFAULT).verdict is Verdict.HOLDS:
            assert evaluate(PredicateId.T5_I_in_S, p, c, R_DEFAULT).verdict in (
                Verdict.HOLDS, Verdict.MARGINAL)


# ---- dual-route crosscheck ----

def test_crosscheck_T1_reference_point():
    res = crosscheck(PredicateId.T1_F_in_S, PoissonParams(1.0),
                     ClassParams(k=1.0, lam=0.0))
    assert res < 1e-10


def test_crosscheck_T2_reference_point():
    res = crosscheck(PredicateId.T2_F_in_C, PoissonParams(2.0),
                     ClassParams(k=0.3, lam=0.7))
    assert res < 1e-10


def test_crosscheck_T5_reference_point():
    res = crosscheck(PredicateId.T5_I_in_S, PoissonParams(1.0),
                     ClassParams(k=0.5, lam=0.25), RParams(A=1.0, B=0.0, tau=1 + 1j))
    assert res < 1e-10


def test_crosscheck_random_draws():
    rng = random.Random(19)
    pids = [PredicateId.T1_F_in_S, PredicateId.T2_F_in_C, PredicateId.T4_G_in_S,
            PredicateId.T5_I_in_S, PredicateId.T6_I_in_C]
    for _ in range(50):
        p = PoissonParams(10 ** rng.uniform(-3, 1))
        c = ClassParams(k=rng.uniform(1e-6, 1.0), lam=rng.uniform(0.0, 0.999))
        b = rng.uniform(-1.0, 0.9)
        r = RParams(A=rng.uniform(b + 0.05, 1.0), B=b,
                    tau=complex(rng.uniform(0.1, 2.0), rng.uniform(-1.0, 1.0)))
        for pid in pids:
            assert crosscheck(pid, p, c, r) < 1e-9


def test_evaluate_with_crosscheck_report_fields():
    report = evaluate_with_crosscheck(PredicateId.T1_F_in_S, PoissonParams(0.3),
                                      ClassParams(k=0.8, lam=0.1))
    assert report.crosscheck_residual is not None
    assert report.crosscheck_residual < 1e-10
    assert report.truncation_order is not None
    assert report.truncation_order >= 12
    d = report.to_json_dict()
    assert set(d) == {"predicate", "verdict", "lhs", "rhs", "margin",
                      "residual", "N"}
    assert d["predicate"] == "T1_F_in_S"


# ---- the series column ----

r_params = st.builds(
    lambda b, gap, rho, theta: RParams(A=min(1.0, b + gap), B=b,
                                       tau=cmath.rect(rho, theta)),
    st.floats(-1.0, 0.9), st.floats(0.05, 1.0), st.floats(0.05, 2.0),
    st.floats(0.0, 2 * math.pi))
IMAGE = SPECS[PredicateId.T5_I_in_S].series


@given(m=st.floats(1e-3, 700.0), eps_exp=st.floats(-15.0, -3.0), r=r_params)
@settings(max_examples=100, deadline=None)
def test_image_builder_equals_the_operator_on_the_extremal_member(m, eps_exp, r):
    p, policy = PoissonParams(m), TruncationPolicy(eps=10.0 ** eps_exp)
    image = IMAGE(p, policy, r)
    via_operator = apply_operator_I(worst_case_R_coeffs(r, choose_truncation(p, policy)), p)
    assert image.convention is via_operator.convention
    assert image.coefficients == via_operator.coefficients


@given(m=st.floats(1e-3, 600.0), eps_exp=st.floats(-15.0, -3.0), r=r_params)
@settings(max_examples=60, deadline=None)
def test_image_tail_bound_covers_the_true_tail(m, eps_exp, r):
    f = IMAGE(PoissonParams(m), TruncationPolicy(eps=10.0 ** eps_exp), r)
    top = f.truncation_order
    with mpmath.workdps(50):
        mm = mpmath.mpf(m)
        # |I_n| = scale e^{-m} m^{n-1}/n!, summed over n > N until the terms vanish
        term = mpmath.exp(-mm + top * mpmath.log(mm) - mpmath.loggamma(top + 2))
        tail, n = mpmath.mpf(0), top + 1
        while term > tail * mpmath.mpf(10) ** -52:
            tail += term
            n += 1
            term *= mm / n
        true_tail = mpmath.mpf(r.scale) * tail
    assert 0 < true_tail <= f.tail_bound


# ---- the cross-check's one weight pass ----

@given(pid=st.sampled_from(list(PredicateId)),
       log_m=st.floats(math.log(1e-6), math.log(714.0)),
       eps=st.floats(1e-14, 1e-2), k=ks, lam=lams, r=r_params)
@settings(max_examples=300, deadline=None)
def test_crosscheck_equals_lemma_sum_over_the_built_series(pid, log_m, eps, k, lam, r):
    # the reference route builds the row's CoefficientSeq and sums it with the
    # public lemma_sum; the cross-check sums the same floats from one weight pass
    p, policy = PoissonParams(min(math.exp(log_m), 714.0)), TruncationPolicy(eps=eps)
    c = ClassParams(k=k, lam=lam)
    row, c0 = resolve(pid, c, r)
    seq = row.series(p, policy, r)
    residual = abs(row.sum_scale(p.m, c0, r) - lemma_sum(seq, c0, row.condition))
    assert crosscheck(pid, p, c, r, policy).hex() == residual.hex()
    report = evaluate_with_crosscheck(pid, p, c, r, policy)
    assert report.crosscheck_residual.hex() == residual.hex()
    assert report.truncation_order == seq.truncation_order


@pytest.mark.parametrize("pid", [PredicateId.T5_I_in_S, PredicateId.T6_I_in_C])
def test_crosscheck_refuses_a_scale_that_overflows(pid):
    # |tau| overflows to inf, so the I image's tail is inf and its check refuses it
    r = RParams(A=1.0, B=-1.0, tau=1e308 + 1e308j)
    with pytest.raises(DomainError, match="tail_bound must be finite"):
        crosscheck(pid, PoissonParams(0.5), ClassParams(k=0.5), r)


# ---- each C row cross-checks its own series ----

# G in C(k, lambda) and I in C(k, lambda): Silverman's criterion on G's and on
# |I|'s own coefficients under the C-weights, not on F's under the S-weights
C_ROWS = (PredicateId.T3_G_in_C, PredicateId.C5_G_in_Ck,
          PredicateId.T6_I_in_C, PredicateId.C4_I_in_Ck)


def _own_c_residual(pid, p, c, r, policy):
    row, c = resolve(pid, c, r)
    own = _image(p, policy, r) if row.needs_r else coeffs_G(p, policy)
    return abs(row.sum_scale(p.m, c, r) - lemma_sum(own, c, ConditionId.C_COND))


@given(pid=st.sampled_from(C_ROWS), m=st.floats(1e-3, 700.0), k=ks, lam=lams,
       r=r_params, eps_exp=st.floats(-15.0, -3.0))
@settings(max_examples=200, deadline=None)
# two points where F under the S-weights (for T3) and scale * G under the
# C-weights (for T6) give another residual than the row's own series
@example(pid=PredicateId.T3_G_in_C, m=1.0, k=0.5, lam=0.25, r=R_DEFAULT, eps_exp=-12.0)
@example(pid=PredicateId.T6_I_in_C, m=2.0, k=0.9, lam=0.7,
         r=RParams(A=0.5, B=-1.0, tau=-1.5), eps_exp=-12.0)
def test_c_rows_crosscheck_their_own_series_under_c_weights(pid, m, k, lam, r, eps_exp):
    p, c = PoissonParams(m), ClassParams(k=k, lam=lam)
    policy = TruncationPolicy(eps=10.0 ** eps_exp)
    assert crosscheck(pid, p, c, r, policy) == _own_c_residual(pid, p, c, r, policy)
