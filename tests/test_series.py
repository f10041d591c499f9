import hashlib
import math
import random
import struct
import sys

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gftpoisson import (CoefficientSeq, DomainError, PoissonParams,
                        SignConvention, SumKind, TruncationNotReached,
                        TruncationPolicy, choose_truncation, coeffs_F,
                        coeffs_G, partial_shifted_sum, shifted_exp_sum)
from gftpoisson.criteria import ClassParams, RParams
from gftpoisson.disk import GridSpec
from gftpoisson.series import _SUMS, _exact_sum
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


@pytest.mark.parametrize("convention", ["negative", "general", None, 0])
def test_coefficient_seq_refuses_a_convention_that_is_not_a_sign_convention(convention):
    # "negative" was taken for a general tail, so its grid's argmax changed sign
    with pytest.raises(DomainError) as exc:
        CoefficientSeq(convention, (0.5,), 0.0)
    assert str(exc.value) == f"convention must be a SignConvention, got {convention!r}"


@pytest.mark.parametrize("bad", ["0.5", True, None, 0.5j, 0.5 + 0j, -0.1, math.nan, math.inf])
def test_coefficient_seq_refuses_a_negative_tail_coefficient_that_is_no_finite_real(bad):
    with pytest.raises(DomainError) as exc:
        CoefficientSeq(SignConvention.NEGATIVE_TAIL, (0.5, bad), 0.0)
    assert str(exc.value) == f"negative-tail coefficients must be finite reals >= 0, got {bad!r}"


@pytest.mark.parametrize("bad", ["0.5", True, None, math.nan, -math.inf,
                                 complex(math.nan, 0.0), complex(0.5, math.inf)])
def test_coefficient_seq_refuses_a_general_tail_coefficient_that_is_no_finite_number(bad):
    with pytest.raises(DomainError) as exc:
        CoefficientSeq(SignConvention.GENERAL_TAIL, (0.5j, bad), 0.0)
    assert str(exc.value) == f"general-tail coefficients must be finite complex numbers, got {bad!r}"


@pytest.mark.parametrize("coefficients", [None, 0.5, 2])
def test_coefficient_seq_refuses_coefficients_that_are_not_iterable(coefficients):
    # tuple() raised a TypeError that did not name the input
    with pytest.raises(DomainError) as exc:
        CoefficientSeq(SignConvention.NEGATIVE_TAIL, coefficients, 0.0)
    assert str(exc.value) == f"coefficients must be an iterable of numbers, got {coefficients!r}"


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


# the least int that float() rounds past the largest double, to 2**1024
FLOAT_OVERFLOW = 2 ** 1024 - 2 ** 970


@pytest.mark.parametrize("huge", [10 ** 400, FLOAT_OVERFLOW, -FLOAT_OVERFLOW],
                         ids=["10**400", "overflow", "-overflow"])
def test_an_int_past_the_largest_double_is_refused_by_name(huge):
    # float() of such an int raised a bare OverflowError that named no input
    with pytest.raises(DomainError) as exc:
        PoissonParams(huge)
    assert str(exc.value) == f"m must be a finite positive real, got {huge!r}"
    with pytest.raises(DomainError) as exc:
        TruncationPolicy(huge)
    assert str(exc.value) == f"eps must be finite and positive, got {huge!r}"
    with pytest.raises(DomainError) as exc:
        CoefficientSeq(SignConvention.NEGATIVE_TAIL, (huge,), 0.0)
    assert str(exc.value) == f"negative-tail coefficients must be finite reals >= 0, got {huge!r}"
    with pytest.raises(DomainError) as exc:
        CoefficientSeq(SignConvention.NEGATIVE_TAIL, (0.5,), huge)
    assert str(exc.value) == f"tail_bound must be finite and >= 0, got {huge!r}"
    with pytest.raises(DomainError) as exc:
        CoefficientSeq(SignConvention.GENERAL_TAIL, (huge,), 0.0)
    assert str(exc.value) == f"general-tail coefficients must be finite complex numbers, got {huge!r}"


# 10**5000 has 5001 digits, past Python's default limit of 4300 on int-to-str
# conversion, where its repr raises ValueError; 16610 is its bit length
BEYOND_REPR = 10 ** 5000
try:
    SHOWN = repr(BEYOND_REPR)   # only where the limit is lifted
except ValueError:
    SHOWN = "<int of 16610 bits>"


@pytest.mark.parametrize("build, message", [
    (lambda: PoissonParams(BEYOND_REPR), f"m must be a finite positive real, got {SHOWN}"),
    (lambda: ClassParams(BEYOND_REPR), f"k must be in (0,1], got {SHOWN}"),
    (lambda: RParams(BEYOND_REPR, 0), f"need -1 <= B < A <= 1, got A={SHOWN}, B=0"),
    (lambda: TruncationPolicy(BEYOND_REPR), f"eps must be finite and positive, got {SHOWN}"),
    (lambda: GridSpec(radii=(BEYOND_REPR,)),
     f"radii must be real numbers in (0,1), got ({SHOWN},)"),
    (lambda: GridSpec(radii=[0.5, BEYOND_REPR]),
     f"radii must be real numbers in (0,1), got [0.5, {SHOWN}]"),
    (lambda: coeffs_F(BEYOND_REPR), f"p must be a PoissonParams, got {SHOWN}"),
], ids=["PoissonParams", "ClassParams", "RParams", "TruncationPolicy", "GridSpec",
        "GridSpec-list", "coeffs_F"])
def test_an_int_too_long_for_repr_is_refused_by_its_bit_length(build, message):
    # the refusal's own message raised ValueError, naming no input
    with pytest.raises(DomainError) as exc:
        build()
    assert str(exc.value) == message


class _Unprintable:
    def __repr__(self):
        raise RuntimeError("no repr")


def _shown_or(value, text: str) -> str:
    try:
        return repr(value)   # only where the limit is lifted
    except ValueError:
        return text


@pytest.mark.parametrize("build, message", [
    (lambda: GridSpec(radii={BEYOND_REPR: 1}), "radii must be real numbers in (0,1), got "
     + _shown_or({BEYOND_REPR: 1}, "<unprintable dict>")),
    (lambda: PoissonParams({1: BEYOND_REPR}), "m must be a finite positive real, got "
     + _shown_or({1: BEYOND_REPR}, "<unprintable dict>")),
    (lambda: ClassParams({BEYOND_REPR}), "k must be in (0,1], got "
     + _shown_or({BEYOND_REPR}, "<unprintable set>")),
    (lambda: PoissonParams(_Unprintable()),
     "m must be a finite positive real, got <unprintable _Unprintable>"),
    (lambda: coeffs_F(_Unprintable()), "p must be a PoissonParams, got <unprintable _Unprintable>"),
], ids=["GridSpec-dict", "PoissonParams-dict", "ClassParams-set", "PoissonParams-repr",
        "coeffs_F-repr"])
def test_a_value_whose_repr_raises_is_refused_by_its_type(build, message):
    # the refusal's own message raised ValueError, or the repr's own error,
    # in place of DomainError
    with pytest.raises(DomainError) as exc:
        build()
    assert str(exc.value) == message


def test_the_largest_int_below_the_overflow_is_the_largest_double():
    assert PoissonParams(FLOAT_OVERFLOW - 1).m == sys.float_info.max
    f = CoefficientSeq(SignConvention.GENERAL_TAIL, (FLOAT_OVERFLOW - 1,), 0.0)
    assert f.coefficients == (complex(sys.float_info.max),)


def test_coefficient_seq_refuses_an_empty_coefficient_list():
    with pytest.raises(DomainError) as exc:
        CoefficientSeq(SignConvention.NEGATIVE_TAIL, (), 0.0)
    assert str(exc.value) == "coefficient list must reach at least n=2"


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


@pytest.mark.parametrize("p", [0.5, None, TruncationPolicy()])
@pytest.mark.parametrize("call", [
    lambda p: choose_truncation(p, POLICY), lambda p: coeffs_F(p, POLICY),
    lambda p: coeffs_G(p, POLICY), lambda p: _image(p, POLICY, RParams(A=1.0, B=-1.0)),
    lambda p: shifted_exp_sum(p, SumKind.SHIFT1),
    lambda p: partial_shifted_sum(p, SumKind.SHIFT1, 5)],
    ids=["N", "F", "G", "I", "closed", "partial"])
def test_a_p_that_is_no_poisson_params_record_is_refused(call, p):
    # a float raised "'float' object has no attribute 'm'"
    with pytest.raises(DomainError) as exc:
        call(p)
    assert str(exc.value) == f"p must be a PoissonParams, got {p!r}"


@pytest.mark.parametrize("policy", [0.5, 1e-12, None])
@pytest.mark.parametrize("build", [
    choose_truncation, coeffs_F, coeffs_G,
    lambda p, policy: _image(p, policy, RParams(A=1.0, B=-1.0))],
    ids=["N", "F", "G", "I"])
def test_a_policy_that_is_no_truncation_policy_record_is_refused(build, policy):
    # a float raised "'float' object has no attribute 'eps'"
    with pytest.raises(DomainError) as exc:
        build(PoissonParams(1.0), policy)
    assert str(exc.value) == f"policy must be a TruncationPolicy, got {policy!r}"


@pytest.mark.parametrize("upto", [5.5, 5.0, 1.0, True, "5", None])
def test_partial_shifted_sum_refuses_an_upto_that_is_no_int(upto):
    # 5.5 raised a TypeError from range(), and True, no spelling of 1, summed nothing
    with pytest.raises(DomainError) as exc:
        partial_shifted_sum(PoissonParams(1.0), SumKind.SHIFT1, upto)
    assert str(exc.value) == f"upto must be an int, got {upto!r}"


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


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


_TAIL_RNG = random.Random(15)
TAIL_DRAWS = [(_log_uniform(_TAIL_RNG, 1e-6, 714.0), _log_uniform(_TAIL_RNG, 1e-15, 1e-3))
              for _ in range(60)]


@pytest.mark.parametrize("m, eps", TAIL_DRAWS)
def test_the_n_squared_weighted_tail_past_the_order_is_below_eps(m, eps):
    # the stopping rule's claim, by meaning: sum_{n>N} n^2 c_n < eps, which
    # bounds the tail of both criteria's weights.  The exact total
    # sum_{n>=2} n^2 c_n = E[(j+1)^2] - e^{-m} = m^2 + 3m + 1 - e^{-m}, j
    # Poisson(m), less the 50-digit partial sum; no float term is read
    n_top = choose_truncation(PoissonParams(m), TruncationPolicy(eps=eps))
    with mpmath.workdps(50):
        mm = mpmath.mpf(m)
        c, partial = mm * mpmath.exp(-mm), mpmath.mpf(0)
        for n in range(2, n_top + 1):
            partial += n * n * c
            c *= mm / n
        tail = mm * mm + 3 * mm + 1 - mpmath.exp(-mm) - partial
    assert tail < eps


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
@pytest.mark.parametrize("build", [
    coeffs_F, coeffs_G, lambda p, policy: _image(p, policy, RParams(A=1.0, B=-1.0))],
    ids=["F", "G", "I"])
def test_builders_refuse_a_subnormal_first_weight(build):
    with pytest.raises(TruncationNotReached):
        build(PoissonParams(800.0), POLICY)


def test_builders_still_reach_m_714():
    p = PoissonParams(714.0)
    f = coeffs_F(p, POLICY)
    assert f.coefficients[0] > 0 and f.tail_bound > 0
    # the Poisson weights of F carry mass 1 - e^{-m}
    assert math.fsum(f.coefficients) == pytest.approx(1.0, rel=1e-9)
    assert coeffs_G(p, POLICY).coefficients[0] == f.coefficients[0] / 2
    # scale (A-B)|tau| = 2 makes the image's a_2 = c_2 (2/2) the weight itself
    assert _image(p, POLICY, RParams(A=1.0, B=-1.0)).coefficients[0] == f.coefficients[0]


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
        for f in (coeffs_F(p, policy), coeffs_G(p, policy), _image(p, policy, r)):
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
        "520cc90d8e790c11106ad8509eb6476d1c223c1cdbcd596c00cead308055760a")


# ---- one construction path ----

@pytest.mark.parametrize("build", [
    coeffs_F, coeffs_G, lambda p, policy: _image(p, policy, RParams(A=1.0, B=-1.0))],
    ids=["F", "G", "I"])
def test_each_builder_builds_through_the_constructor(seq_inits, build):
    f = build(PoissonParams(1.5), POLICY)
    assert seq_inits == [f.convention]


@given(m=st.floats(1e-6, 714.0), eps=st.floats(1e-14, 1e-2),
       b=st.floats(-1.0, 0.9), gap=st.floats(0.05, 1.0), tau=st.complex_numbers(
           min_magnitude=0.05, max_magnitude=2.0, allow_nan=False, allow_infinity=False))
@settings(max_examples=100, deadline=None)
def test_builders_build_what_validation_would(m, eps, b, gap, tau):
    # coeffs_F, coeffs_G and the I image build through the constructor; a
    # second pass through it must find nothing to change in what they stored,
    # and each coefficient has its convention's type
    p, policy = PoissonParams(m), TruncationPolicy(eps=eps)
    r = RParams(A=min(1.0, b + gap), B=b, tau=tau)
    for seq, kind in ((coeffs_F(p, policy), float), (coeffs_G(p, policy), float),
                      (_image(p, policy, r), complex)):
        validated = CoefficientSeq(seq.convention, seq.coefficients, seq.tail_bound)
        assert validated == seq
        assert all(type(a) is kind for a in seq.coefficients)
        assert all(type(a) is kind for a in validated.coefficients)
        assert type(seq.tail_bound) is float


# ---- exact sums, largest first when the terms rise ----

def _outcome(total):
    """The float bits total() returns, or the exception it raises."""
    try:
        return struct.pack("<d", total())
    except (OverflowError, ValueError) as exc:
        return type(exc), str(exc)


TINY, BIG = sys.float_info.min, sys.float_info.max
summands = st.one_of(
    st.sampled_from([0.0, 5e-324, TINY, 2.0 ** 1000, BIG, math.inf, math.nan]),
    st.floats(min_value=0.0, max_value=TINY),            # subnormals
    st.floats(min_value=0.0, max_value=BIG),
    st.floats(min_value=2.0 ** 999, max_value=2.0 ** 1001),
    st.floats(min_value=2.0 ** 1022, max_value=BIG),
    st.floats(min_value=0.0, allow_infinity=True))


@st.composite
def tied_lists(draw):
    # 1 and 3 times powers of two 0 to 106 binades below one anchor: their
    # sums often fall exactly halfway between two doubles
    e = draw(st.integers(-1074, 1022))
    part = st.builds(lambda d, k: math.ldexp(k, e - d),
                     st.sampled_from([0, 1, 52, 53, 54, 105, 106]), st.sampled_from([1, 3]))
    return draw(st.lists(part, min_size=1, max_size=30))


nonnegative_lists = st.one_of(st.lists(summands, min_size=1, max_size=40), tied_lists())


@given(terms=st.one_of(nonnegative_lists, nonnegative_lists.map(sorted)))
@settings(max_examples=500, deadline=None)
@example(terms=[1e308, math.inf, 1e308])
# rising, and the sorted list would raise OverflowError where fsum returns inf
@example(terms=[1e308, math.inf, 1.5e308])
@example(terms=[0.0, 1e308, 1e308, math.inf])
@example(terms=[0.0, math.nan, 1.0])
def test_exact_sum_is_fsum_in_the_given_order(terms):
    assert _outcome(lambda: _exact_sum(list(terms))) == _outcome(lambda: math.fsum(terms))


def _natural_shifted_terms(p, kind, upto):
    row = _SUMS[kind]
    t = row.term(p.m)
    terms = [t]
    for n in range(row.first + 1, upto + 1):
        t *= p.m / (n - row.shift)
        terms.append(t)
    return terms


@given(kind=st.sampled_from(list(SumKind)), log_m=st.floats(math.log(1e-3), math.log(714.0)))
@settings(max_examples=200, deadline=None)
def test_partial_shifted_sum_is_fsum_of_its_terms_in_natural_order(kind, log_m):
    # from m = 697 on m^2 e^m exceeds the largest double, and Shift3 raises
    p = PoissonParams(min(math.exp(log_m), 714.0))
    upto = choose_truncation(p, POLICY)
    natural = _natural_shifted_terms(p, kind, upto)
    assert (_outcome(lambda: partial_shifted_sum(p, kind, upto))
            == _outcome(lambda: math.fsum(natural)))


def test_rising_shifted_terms_reach_fsum_largest_first(fsum_calls):
    p = PoissonParams(300.0)
    upto = choose_truncation(p, POLICY)
    partial_shifted_sum(p, SumKind.SHIFT1, upto)
    [terms] = fsum_calls
    natural = _natural_shifted_terms(p, SumKind.SHIFT1, upto)
    assert natural[0] < natural[-1]
    assert terms == sorted(natural, reverse=True)


def test_falling_shifted_terms_reach_fsum_in_natural_order(fsum_calls):
    # the terms rise to n ~ m and fall below the first, so they stay as built
    p = PoissonParams(5.0)
    upto = choose_truncation(p, POLICY)
    partial_shifted_sum(p, SumKind.SHIFT1, upto)
    natural = _natural_shifted_terms(p, SumKind.SHIFT1, upto)
    assert fsum_calls == [natural]
    assert natural != sorted(natural, reverse=True)
