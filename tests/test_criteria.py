import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gftpoisson import (ClassParams, CoefficientSeq, ConditionId, DomainError,
                        PoissonParams, RParams, SignConvention,
                        TruncationPolicy, Verdict, apply_operator_I,
                        choose_truncation, classify, coeffs_F, coeffs_G,
                        dixit_pal_bound, lemma_sum, weight_C, weight_S,
                        worst_case_R_coeffs)

ks = st.floats(min_value=1e-6, max_value=1.0)
lams = st.floats(min_value=0.0, max_value=0.999)


# ---- parameter validation ----

@pytest.mark.parametrize("bad_k", [0.0, -0.5, 1.5, math.nan, True])
def test_class_params_rejects_bad_k(bad_k):
    with pytest.raises(DomainError) as exc:
        ClassParams(k=bad_k, lam=0.0)
    assert "k must be in (0,1]" in str(exc.value)


@pytest.mark.parametrize("bad_lam", [-0.1, 1.0, 1.5, math.nan, False])
def test_class_params_rejects_bad_lambda(bad_lam):
    with pytest.raises(DomainError) as exc:
        ClassParams(k=0.5, lam=bad_lam)
    assert "lambda must be in [0,1)" in str(exc.value)


def test_r_params_ordering_and_tau():
    with pytest.raises(DomainError):
        RParams(A=0.5, B=0.5, tau=1.0)
    with pytest.raises(DomainError):
        RParams(A=0.5, B=-1.5, tau=1.0)
    with pytest.raises(DomainError):
        RParams(A=1.5, B=0.0, tau=1.0)
    with pytest.raises(DomainError):
        RParams(A=1.0, B=0.0, tau=0.0)


@pytest.mark.parametrize("a, b, tau", [
    (True, 0.0, 1.0), (1.0, False, 1.0), (1.0, 0.0, True),
    (1.0, 0.0, complex(math.nan, 0.0)), (1.0, 0.0, complex(1.0, math.inf)),
    (1.0, 0.0, complex(-math.inf, 0.0))])
def test_r_params_rejects_bools_and_non_finite_tau(a, b, tau):
    with pytest.raises(DomainError):
        RParams(A=a, B=b, tau=tau)


def test_r_params_scale():
    r = RParams(A=1.0, B=-1.0, tau=0.5j)
    assert r.scale == pytest.approx(1.0, rel=1e-15)


# ---- weights ----

def test_weight_values():
    c = ClassParams(k=1.0, lam=0.0)
    assert weight_S(2, c) == pytest.approx(4.0, abs=1e-15)
    k = 0.3
    assert weight_S(2, ClassParams(k=k, lam=0.0)) == pytest.approx(1 + 3 * k, abs=1e-15)
    assert weight_S(3, ClassParams(k=0.5, lam=0.5)) == pytest.approx(3.5, abs=1e-15)
    assert weight_C(2, c) == pytest.approx(8.0, abs=1e-15)
    assert weight_S(3, c) == pytest.approx(6.0, abs=1e-15)
    assert weight_S(3, ClassParams(k=0.3, lam=0.0)) == pytest.approx(3.2, abs=1e-14)


@given(k=ks, lam=lams, n=st.integers(min_value=2, max_value=100))
def test_weight_S_positive_and_increasing(k, lam, n):
    c = ClassParams(k=k, lam=lam)
    assert weight_S(n, c) > 0
    assert weight_S(n + 1, c) > weight_S(n, c)


@given(k=ks, lam=lams, n=st.integers(min_value=2, max_value=100))
def test_weight_C_is_n_times_weight_S(k, lam, n):
    c = ClassParams(k=k, lam=lam)
    assert weight_C(n, c) == pytest.approx(n * weight_S(n, c), rel=1e-15)
    assert weight_C(n, c) > weight_S(n, c)


# ---- classify ----

def test_classify_bands():
    assert classify(1e-6) is Verdict.HOLDS
    assert classify(-1e-6) is Verdict.FAILS
    assert classify(0.0) is Verdict.MARGINAL
    assert classify(5e-10) is Verdict.MARGINAL
    assert classify(-5e-10) is Verdict.MARGINAL


# ---- lemma_sum ----

def _seq(coeffs):
    return CoefficientSeq(SignConvention.NEGATIVE_TAIL, tuple(coeffs), 0.0)


def test_lemma_sum_identity_function_holds():
    c = ClassParams(k=0.5, lam=0.25)
    lhs = lemma_sum(_seq([0.0]), c, ConditionId.S_COND)
    assert lhs == 0.0
    assert classify(2 * c.k - lhs) is Verdict.HOLDS


def test_lemma_sum_sharpness_witness_is_marginal():
    # one-term tail with b_2 = 2k / w_S(2) sits exactly on the bound
    c = ClassParams(k=0.7, lam=0.3)
    b2 = 2 * c.k / weight_S(2, c)
    lhs = lemma_sum(_seq([b2]), c, ConditionId.S_COND)
    assert lhs == pytest.approx(2 * c.k, rel=1e-15)
    assert classify(2 * c.k - lhs) is Verdict.MARGINAL


def test_lemma_sum_poisson_m02_frozen_value():
    # k=1, lam=0: sum (n+... ) reduces to 2m + 2(1 - e^{-m})
    from gftpoisson import PoissonParams, TruncationPolicy, coeffs_F
    f = coeffs_F(PoissonParams(0.2), TruncationPolicy(eps=1e-13))
    c = ClassParams(k=1.0, lam=0.0)
    lhs = lemma_sum(f, c, ConditionId.S_COND)
    assert lhs == pytest.approx(0.7625384938440364, abs=1e-12)
    assert classify(2 * c.k - lhs) is Verdict.HOLDS


def _weight_fn_sum(f, c, condition):
    # the sum as one weight_S / weight_C call per term
    w = weight_S if condition is ConditionId.S_COND else weight_C
    return math.fsum(w(n, c) * abs(f.coefficients[n - 2])
                     for n in range(2, f.truncation_order + 1))


@pytest.mark.parametrize("condition", [ConditionId.S_COND, ConditionId.C_COND])
@pytest.mark.parametrize("series", "FGI")
@given(m=st.floats(min_value=1e-3, max_value=300.0), k=ks, lam=lams)
@settings(max_examples=30, deadline=None)
def test_lemma_sum_matches_the_weight_functions_bit_for_bit(series, condition, m, k, lam):
    p, policy = PoissonParams(m), TruncationPolicy()
    if series == "F":
        f = coeffs_F(p, policy)
    elif series == "G":
        f = coeffs_G(p, policy)
    else:
        r = RParams(A=1.0, B=-0.5, tau=0.3 + 0.4j)
        worst = worst_case_R_coeffs(r, choose_truncation(p, policy))
        f = apply_operator_I(worst, p)
    c = ClassParams(k=k, lam=lam)
    assert lemma_sum(f, c, condition) == _weight_fn_sum(f, c, condition)


def test_lemma_sum_sums_the_magnitude_of_a_general_tail():
    # the criterion on |a_n| is sufficient for a general tail: |0.3 + 0.4j| = 0.5
    c = ClassParams(k=0.5, lam=0.2)
    f = CoefficientSeq(SignConvention.GENERAL_TAIL, (0.3 + 0.4j,), 0.0)
    assert lemma_sum(f, c, ConditionId.S_COND) == 0.5 * weight_S(2, c)
    assert lemma_sum(f, c, ConditionId.C_COND) == 0.5 * weight_C(2, c)


@pytest.mark.parametrize("condition", ["S", ConditionId.R_COND, None])
def test_lemma_sum_rejects_a_condition_without_a_criterion(condition):
    # a value naming no S or C criterion must not fall through to either weights
    with pytest.raises(DomainError):
        lemma_sum(_seq([0.5]), ClassParams(k=0.5, lam=0.2), condition)


@given(k=ks, lam=lams, b=st.floats(min_value=1e-6, max_value=0.5))
@settings(max_examples=100)
def test_lemma_sum_monotone_in_coefficients(k, lam, b):
    c = ClassParams(k=k, lam=lam)
    lo = lemma_sum(_seq([b]), c, ConditionId.S_COND)
    hi = lemma_sum(_seq([b, b / 2]), c, ConditionId.S_COND)
    assert hi > lo


@given(k=ks, lam=lams,
       bs=st.lists(st.floats(min_value=0.0, max_value=0.05), min_size=1, max_size=6))
@settings(max_examples=200)
def test_lemma_sum_C_holding_implies_S_holding(k, lam, bs):
    c = ClassParams(k=k, lam=lam)
    seq = _seq(bs)
    if classify(2 * c.k - lemma_sum(seq, c, ConditionId.C_COND)) is Verdict.HOLDS:
        s_verdict = classify(2 * c.k - lemma_sum(seq, c, ConditionId.S_COND))
        assert s_verdict in (Verdict.HOLDS, Verdict.MARGINAL)


# ---- derivative bound for the R class ----

def test_dixit_pal_bound_values():
    assert dixit_pal_bound(2, RParams(A=1.0, B=-1.0, tau=1.0)) == pytest.approx(
        1.0, rel=1e-15)
    assert dixit_pal_bound(4, RParams(A=0.5, B=0.0, tau=2j)) == pytest.approx(
        0.25, rel=1e-15)


@given(n=st.integers(min_value=2, max_value=50))
def test_dixit_pal_bound_decreasing(n):
    r = RParams(A=0.8, B=-0.3, tau=1 + 1j)
    assert dixit_pal_bound(n + 1, r) < dixit_pal_bound(n, r)


def test_worst_case_R_coeffs():
    r = RParams(A=1.0, B=-1.0, tau=1.0)
    w = worst_case_R_coeffs(r, 4)
    assert w.convention is SignConvention.GENERAL_TAIL
    assert w.tail_bound == 0.0
    assert w.coefficients[0] == pytest.approx(1.0, rel=1e-15)
    assert abs(w.coefficients[1]) == pytest.approx(2 / 3, rel=1e-15)
