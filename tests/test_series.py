import hashlib
import math
import random

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gftpoisson import (CoefficientSeq, DomainError, PoissonParams,
                        SignConvention, SumKind, TruncationNotReached,
                        TruncationPolicy, apply_operator_I, choose_truncation,
                        coeffs_F, coeffs_G, partial_shifted_sum,
                        shifted_exp_sum, worst_case_R_coeffs)
from gftpoisson.criteria import RParams
from gftpoisson.theorems import _image

POLICY = TruncationPolicy(eps=1e-12)


# ---- parameter validation ----

@pytest.mark.parametrize("bad_m", [0.0, -1.0, math.nan, math.inf, -math.inf, True])
def test_poisson_params_rejects_bad_m(bad_m):
    with pytest.raises(DomainError) as exc:
        PoissonParams(bad_m)
    assert str(exc.value) == f"m must be a finite positive real, got {bad_m!r}"


def test_coefficient_seq_rejects_negative_entries():
    with pytest.raises(DomainError):
        CoefficientSeq(SignConvention.NEGATIVE_TAIL, (0.5, -0.1), 0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_coefficient_seq_rejects_non_finite_entries(bad):
    # builders skip these checks; a sequence a caller builds never does
    with pytest.raises(DomainError):
        CoefficientSeq(SignConvention.NEGATIVE_TAIL, (0.5, bad), 0.0)


def test_coefficient_seq_rejects_bad_tail_bound():
    with pytest.raises(DomainError):
        CoefficientSeq(SignConvention.NEGATIVE_TAIL, (0.5,), -1e-3)
    with pytest.raises(DomainError):
        CoefficientSeq(SignConvention.NEGATIVE_TAIL, (0.5,), math.inf)
    with pytest.raises(DomainError):
        CoefficientSeq(SignConvention.NEGATIVE_TAIL, (0.5,), True)


def test_truncation_policy_rejects_bad_orders():
    with pytest.raises(DomainError):
        TruncationPolicy(eps=0.0)


@pytest.mark.parametrize("kwargs", [{"eps": True}, {"eps": "1e-12"}],
                         ids=["eps-bool", "eps-str"])
def test_truncation_policy_rejects_what_is_no_real_number(kwargs):
    with pytest.raises(DomainError):
        TruncationPolicy(**kwargs)


# ---- Poisson coefficients e^{-m} m^{n-1}/(n-1)!, read off coeffs_F ----

# eps this small takes N past n = 20 for every m below
DEEP = TruncationPolicy(eps=1e-300)


def test_poisson_coeff_first_term_is_exp_neg_m():
    assert coeffs_F(PoissonParams(1.0), POLICY).coefficients[0] == pytest.approx(
        math.exp(-1), rel=1e-15)


@given(st.floats(min_value=1e-3, max_value=10.0))
def test_poisson_coeff_n2_is_m_exp_neg_m(m):
    assert coeffs_F(PoissonParams(m), POLICY).coefficients[0] == pytest.approx(
        m * math.exp(-m), rel=1e-15)


def test_poisson_coeff_m2_n4():
    # (4/3) e^{-2}, oracle computed as exact rational 8/6 times e^{-2}
    assert coeffs_F(PoissonParams(2.0), POLICY).coefficients[4 - 2] == pytest.approx(
        0.18044704431548358, abs=1e-16)


@pytest.mark.parametrize("m", [0.1, 1.0, 3.7, 10.0])
@pytest.mark.parametrize("n", range(2, 21))
def test_poisson_coeff_recurrence_matches_direct_formula(m, n):
    direct = math.exp(-m) * m ** (n - 1) / math.factorial(n - 1)
    assert coeffs_F(PoissonParams(m), DEEP).coefficients[n - 2] == pytest.approx(
        direct, rel=1e-14)


# ---- coeffs_F / coeffs_G ----

def test_coeffs_F_single_term_m1():
    f = coeffs_F(PoissonParams(1.0), POLICY)
    assert f.coefficients[0] == pytest.approx(math.exp(-1), rel=1e-15)
    assert f.convention is SignConvention.NEGATIVE_TAIL


@given(st.floats(min_value=1e-3, max_value=10.0))
@settings(max_examples=60, deadline=None)
def test_coeffs_F_partial_sum_approaches_total_mass(m):
    f = coeffs_F(PoissonParams(m), POLICY)
    total = 1 - math.exp(-m)
    partial = math.fsum(f.coefficients)
    # positive terms increase to the limit; the gap is inside the tail bound
    assert partial <= total + 1e-15
    assert total - partial <= max(f.tail_bound, 1e-15)


def test_coeffs_F_decreasing_past_mode():
    f = coeffs_F(PoissonParams(0.5), TruncationPolicy(eps=1e-12))
    bs = f.coefficients
    assert all(b >= 0 for b in bs)
    # ratio m/(n-1) < 1 for n-1 > m
    assert all(bs[i + 1] < bs[i] for i in range(len(bs) - 1))


def test_coeffs_G_is_coeffs_F_over_n():
    p = PoissonParams(2.3)
    f, g = coeffs_F(p, POLICY), coeffs_G(p, POLICY)
    assert g.truncation_order == f.truncation_order
    for n in range(2, g.truncation_order + 1):
        assert g.coefficients[n - 2] == pytest.approx(f.coefficients[n - 2] / n, rel=1e-15)


def test_coeffs_G_first_term_m1():
    g = coeffs_G(PoissonParams(1.0), POLICY)
    assert g.coefficients[0] == pytest.approx(math.exp(-1) / 2, rel=1e-15)


def test_coeffs_G_total_mass_m1():
    # sum b_n = (e^m - 1 - m) e^{-m}/m, at m=1 equal to (e-2)/e
    g = coeffs_G(PoissonParams(1.0), POLICY)
    assert math.fsum(g.coefficients) == pytest.approx(0.26424111765711533, abs=1e-13)


# ---- operator ----

def test_operator_on_zero_tail_is_identity():
    f = CoefficientSeq(SignConvention.GENERAL_TAIL, (0j, 0j, 0j), 0.0)
    out = apply_operator_I(f, PoissonParams(2.0))
    assert out.coefficients == (0j, 0j, 0j)
    assert out.tail_bound == 0.0
    assert out.truncation_order == f.truncation_order


def test_operator_single_term():
    f = CoefficientSeq(SignConvention.GENERAL_TAIL, (1.0 + 0j,), 0.0)
    out = apply_operator_I(f, PoissonParams(1.0))
    assert out.coefficients[0] == pytest.approx(math.exp(-1), rel=1e-15)


def test_operator_on_worst_case_sequence():
    r = RParams(A=1.0, B=-1.0, tau=1.0)
    worst = worst_case_R_coeffs(r, 6)
    out = apply_operator_I(worst, PoissonParams(1.0))
    # spot check n=3: weight e^{-1}/2 times coefficient 2/3
    assert out.coefficients[1].real == pytest.approx(math.exp(-1) / 3, rel=1e-14)
    assert out.coefficients[1].imag == 0.0
    assert out.coefficients[0].real == pytest.approx(math.exp(-1), rel=1e-15)


def test_operator_preserves_order_and_shrinks_tail():
    f = CoefficientSeq(SignConvention.GENERAL_TAIL, (0.5 + 0.1j, 0.2j), 0.7)
    out = apply_operator_I(f, PoissonParams(3.0))
    assert out.truncation_order == f.truncation_order
    assert 0 <= out.tail_bound <= f.tail_bound


# ---- shifted exponential sums ----

CLOSED = {
    SumKind.SHIFT1: lambda m: math.exp(m) - 1,
    SumKind.SHIFT2: lambda m: m * math.exp(m),
    SumKind.SHIFT3: lambda m: m * m * math.exp(m),
    SumKind.OVER_N_FACT: lambda m: (math.exp(m) - 1 - m) / m,
    SumKind.POW_N_OVER_N_FACT: lambda m: math.exp(m) - 1 - m,
}


@pytest.mark.parametrize("kind", list(SumKind))
@pytest.mark.parametrize("m", [0.05, 0.7, 1.0, 4.2, 9.0])
def test_closed_forms_match_naive_formulas(kind, m):
    got = shifted_exp_sum(PoissonParams(m), kind)
    ref = CLOSED[kind](m)
    assert got == pytest.approx(ref, rel=1e-13, abs=1e-13)


def test_shift1_at_m1():
    assert shifted_exp_sum(PoissonParams(1.0), SumKind.SHIFT1) == pytest.approx(
        math.e - 1, rel=1e-15)


def test_shift3_at_m1_equals_e():
    assert shifted_exp_sum(PoissonParams(1.0), SumKind.SHIFT3) == pytest.approx(
        math.e, rel=1e-15)


def test_shift2_tiny_m():
    assert abs(shifted_exp_sum(PoissonParams(1e-8), SumKind.SHIFT2) - 1e-8) < 1e-15


@pytest.mark.parametrize("kind", list(SumKind))
@given(m=st.floats(min_value=1e-4, max_value=10.0))
@settings(max_examples=40, deadline=None)
def test_partial_sums_match_closed_forms(kind, m):
    p = PoissonParams(m)
    n_top = choose_truncation(p, POLICY)
    closed = shifted_exp_sum(p, kind)
    partial = partial_shifted_sum(p, kind, n_top)
    assert abs(closed - partial) <= max(1e-10, 1e-12 * abs(closed))


def test_unknown_sum_kind_is_a_domain_error():
    p = PoissonParams(1.0)
    with pytest.raises(DomainError):
        shifted_exp_sum(p, "Shift1")
    with pytest.raises(DomainError):
        partial_shifted_sum(p, "Shift1", 5)


# ---- truncation control ----

def test_truncation_m1_constant_growth():
    p = PoissonParams(1.0)
    n = choose_truncation(p, TruncationPolicy(eps=1e-12))
    assert n <= 25
    # the rule certifies the n^2-weighted tail, and with it the unweighted one
    assert 2 * n ** 2 * math.exp(-1) / math.factorial(n - 1) < 1e-12
    assert 2 * math.exp(-1) / math.factorial(n - 1) < 1e-12


def test_truncation_floor_rule_m10():
    n = choose_truncation(PoissonParams(10.0), TruncationPolicy(eps=1e-10))
    assert n >= 30


def test_truncation_tail_guarantee_shift1_m3():
    p = PoissonParams(3.0)
    policy = TruncationPolicy(eps=1e-12)
    n_top = choose_truncation(p, policy)
    # the sum certified by the rule carries the e^{-m} weight
    partial = math.exp(-3.0) * partial_shifted_sum(p, SumKind.SHIFT1, n_top)
    closed = math.exp(-3.0) * (math.exp(3.0) - 1)
    assert abs(partial - closed) < policy.eps


def test_order_stays_within_the_bound_at_the_smallest_eps():
    # _weights: N < 2 ceil(m) + 10 + 1078 for every m the weight pass accepts,
    # however small eps is
    m = 714.9
    n_top = choose_truncation(PoissonParams(m), TruncationPolicy(eps=5e-324))
    assert 2 * math.ceil(m) + 10 <= n_top < 2 * math.ceil(m) + 10 + 1078
    assert n_top < 2518


@pytest.mark.parametrize("build", [choose_truncation, coeffs_F, coeffs_G],
                         ids=["N", "F", "G"])
def test_a_huge_m_is_refused_before_any_weight_loop(build):
    # the order floor 2 ceil(m) + 10 is 2e300 here, so the first weight must be
    # checked before the loop runs
    with pytest.raises(TruncationNotReached):
        build(PoissonParams(1e300), TruncationPolicy(eps=5e-324))


# m e^{-m} is subnormal from m = 715 on; the weights would start from a
# number with too few bits, and the coefficients and tail bound round to zero
@pytest.mark.parametrize("build", [coeffs_F, coeffs_G], ids=["F", "G"])
def test_builders_refuse_a_subnormal_first_weight(build):
    with pytest.raises(TruncationNotReached):
        build(PoissonParams(800.0), POLICY)


def test_operator_refuses_a_subnormal_first_weight():
    f = CoefficientSeq(SignConvention.GENERAL_TAIL, (1.0 + 0j, 0.5j), 0.1)
    with pytest.raises(TruncationNotReached):
        apply_operator_I(f, PoissonParams(800.0))


def test_builders_still_reach_m_714():
    p = PoissonParams(714.0)
    f = coeffs_F(p, POLICY)
    assert f.coefficients[0] > 0 and f.tail_bound > 0
    # the Poisson weights of F carry mass 1 - e^{-m}
    assert math.fsum(f.coefficients) == pytest.approx(1.0, rel=1e-9)
    assert coeffs_G(p, POLICY).coefficients[0] == f.coefficients[0] / 2
    out = apply_operator_I(CoefficientSeq(SignConvention.GENERAL_TAIL, (1.0 + 0j,), 0.0), p)
    assert out.coefficients[0] == f.coefficients[0]


@pytest.mark.parametrize("m", [709.0, 711.0, 713.0, 714.0, 714.9])
def test_first_weight_keeps_its_precision_where_e_to_the_minus_m_is_subnormal(m):
    # e^{-m} is subnormal from m = 708.4 on; m * e^{-m} taken from it keeps its
    # lost bits, 6.1e-14 relative error at m = 714.9
    with mpmath.workdps(50):
        exact = mpmath.mpf(m) * mpmath.exp(-mpmath.mpf(m))
        b2 = coeffs_F(PoissonParams(m), POLICY).coefficients[0]
        assert abs(mpmath.mpf(b2) / exact - 1) <= 2.5e-16


# ---- bit identity of the builders and the shifted sums ----

def _series_digest():
    rng = random.Random(7)
    h = hashlib.sha256()
    for _ in range(200):
        m = rng.uniform(1e-6, 10.0) if rng.random() < 0.5 else rng.uniform(10.0, 700.0)
        p = PoissonParams(m)
        policy = TruncationPolicy(eps=10.0 ** rng.uniform(-15.0, -3.0))
        r = RParams(A=rng.uniform(0.0, 1.0), B=rng.uniform(-1.0, -1e-3),
                    tau=complex(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)))
        n_top = choose_truncation(p, policy)
        for f in (coeffs_F(p, policy), coeffs_G(p, policy),
                  apply_operator_I(worst_case_R_coeffs(r, n_top), p)):
            h.update(repr((n_top, f.coefficients, f.tail_bound)).encode())
    for _ in range(1000):
        p = PoissonParams(rng.uniform(1e-6, 50.0))
        upto = rng.randrange(0, 120)
        for kind in SumKind:
            h.update(repr((shifted_exp_sum(p, kind),
                           partial_shifted_sum(p, kind, upto))).encode())
    return h.hexdigest()


def test_builders_and_sums_are_bit_identical():
    # repr() of a float round-trips, so any change in any last bit shows here
    assert _series_digest() == (
        "81bf0c6a6c76a5e290ca5cc70a84cf502c50e2c9663129ec570cbeb9637d6b44")


# ---- trusted construction ----

@given(m=st.floats(1e-6, 714.0), eps=st.floats(1e-14, 1e-2),
       b=st.floats(-1.0, 0.9), gap=st.floats(0.05, 1.0), tau=st.complex_numbers(
           min_magnitude=0.05, max_magnitude=2.0, allow_nan=False, allow_infinity=False))
@settings(max_examples=100, deadline=None)
def test_builders_build_what_validation_would(m, eps, b, gap, tau):
    # coeffs_F, coeffs_G and the I image skip the per-coefficient checks; the
    # full __post_init__ must find nothing to change in what they build
    p, policy = PoissonParams(m), TruncationPolicy(eps=eps)
    r = RParams(A=min(1.0, b + gap), B=b, tau=tau)
    for seq, kind in ((coeffs_F(p, policy), float), (coeffs_G(p, policy), float),
                      (_image(p, policy, r), complex)):
        validated = CoefficientSeq(seq.convention, seq.coefficients, seq.tail_bound)
        assert validated == seq
        assert all(type(a) is kind for a in seq.coefficients)
        assert all(type(a) is kind for a in validated.coefficients)
        assert type(seq.tail_bound) is float
