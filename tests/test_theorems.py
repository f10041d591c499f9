import cmath
import math
import random

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gftpoisson import (ClassParams, CoefficientSeq, ConditionId, DomainError,
                        MissingRParams, PoissonParams, PredicateId, RParams,
                        SignConvention, TruncationPolicy, Verdict, choose_truncation,
                        classify, coeffs_G, crosscheck, evaluate,
                        evaluate_with_crosscheck, coeffs_F, series, t1_lhs, t4_lhs,
                        t5_lhs)
from gftpoisson.series import _F, _G, _exact_sum
from gftpoisson.theorems import SPECS, _image, _margin, resolve

ks = st.floats(min_value=1e-6, max_value=1.0)
lams = st.floats(min_value=0.0, max_value=0.999)
ms = st.floats(min_value=1e-3, max_value=20.0)

R_DEFAULT = RParams(A=1.0, B=-1.0, tau=1.0)
# the closed forms that have no public wrapper, over the float m
T2_CLOSED = SPECS[PredicateId.T2_F_in_C].lhs
T6_CLOSED = SPECS[PredicateId.T6_I_in_C].lhs


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
    assert T2_CLOSED(1.0, ClassParams(k=1.0, lam=0.0), None) == pytest.approx(
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
    assert T6_CLOSED(0.1, ClassParams(k=1.0, lam=0.0),
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
    assert T6_CLOSED(m, c, R_DEFAULT) == pytest.approx(naive, rel=1e-12)


@pytest.mark.parametrize("fn", [lambda m, c: t1_lhs(PoissonParams(m), c),
                                lambda m, c: T2_CLOSED(m, c, None)], ids=["T1", "T2"])
def test_monotone_in_m(fn):
    c = ClassParams(k=0.4, lam=0.3)
    vals = [fn(m, c) for m in (0.1, 0.5, 1.0, 2.0, 5.0)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_t6_monotone_in_m():
    c = ClassParams(k=0.4, lam=0.3)
    vals = [T6_CLOSED(m, c, R_DEFAULT) for m in (0.1, 0.5, 1.0, 2.0)]
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


@pytest.mark.parametrize("pid", ["T1_F_in_S", None, 1, []])
@pytest.mark.parametrize("entry", [evaluate, crosscheck, evaluate_with_crosscheck])
def test_a_predicate_that_is_not_a_predicate_id_is_refused(entry, pid):
    # the SPECS lookup raised a bare KeyError (or TypeError for a list)
    with pytest.raises(DomainError) as exc:
        entry(pid, PoissonParams(1.0), ClassParams(k=0.5, lam=0.0), R_DEFAULT)
    assert str(exc.value) == f"predicate must be a PredicateId, got {pid!r}"


@pytest.mark.parametrize("c", [0.5, (0.5, 0.0), None, R_DEFAULT])
@pytest.mark.parametrize("pid", [PredicateId.T1_F_in_S, PredicateId.T5_I_in_S])
@pytest.mark.parametrize("entry", [evaluate, crosscheck, evaluate_with_crosscheck])
def test_class_params_that_are_no_class_params_record_are_refused(entry, pid, c):
    # a float raised "'float' object has no attribute 'k'"
    with pytest.raises(DomainError) as exc:
        entry(pid, PoissonParams(1.0), c, R_DEFAULT)
    assert str(exc.value) == f"c must be a ClassParams, got {c!r}"


@pytest.mark.parametrize("r", [(1.0, -1.0, 1.0), 0.5, ClassParams(k=0.5, lam=0.0)])
@pytest.mark.parametrize("pid", [PredicateId.T1_F_in_S, PredicateId.T5_I_in_S])
@pytest.mark.parametrize("entry", [evaluate, crosscheck, evaluate_with_crosscheck])
def test_r_params_that_are_neither_none_nor_an_r_params_record_are_refused(entry, pid, r):
    # a tuple raised "'tuple' object has no attribute 'scale'" for T5, and T1,
    # which never reads r, answered as if it were None
    with pytest.raises(DomainError) as exc:
        entry(pid, PoissonParams(1.0), ClassParams(k=0.5, lam=0.0), r)
    assert str(exc.value) == f"r must be an RParams or None, got {r!r}"


@pytest.mark.parametrize("p", [0.5, None, ClassParams(k=0.5, lam=0.0)])
@pytest.mark.parametrize("pid", [PredicateId.T1_F_in_S, PredicateId.T5_I_in_S])
@pytest.mark.parametrize("entry", [evaluate, crosscheck, evaluate_with_crosscheck])
def test_a_p_that_is_no_poisson_params_record_is_refused(entry, pid, p):
    # a float raised "'float' object has no attribute 'm'"
    with pytest.raises(DomainError) as exc:
        entry(pid, p, ClassParams(k=0.5, lam=0.0), R_DEFAULT)
    assert str(exc.value) == f"p must be a PoissonParams, got {p!r}"


@pytest.mark.parametrize("policy", [0.5, 1e-12, None])
@pytest.mark.parametrize("pid", [PredicateId.T1_F_in_S, PredicateId.T5_I_in_S])
@pytest.mark.parametrize("entry", [crosscheck, evaluate_with_crosscheck])
def test_a_policy_that_is_no_truncation_policy_record_is_refused(entry, pid, policy):
    # a float raised "'float' object has no attribute 'eps'"
    with pytest.raises(DomainError) as exc:
        entry(pid, PoissonParams(1.0), ClassParams(k=0.5, lam=0.0), R_DEFAULT, policy)
    assert str(exc.value) == f"policy must be a TruncationPolicy, got {policy!r}"


def test_a_row_needs_r_exactly_when_its_series_is_the_image():
    # needs_r is derived from the series at construction, never passed
    assert ({pid for pid, row in SPECS.items() if row.needs_r}
            == {PredicateId.T5_I_in_S, PredicateId.C3_I_in_Sk,
                PredicateId.T6_I_in_C, PredicateId.C4_I_in_Ck})
    assert all(row.needs_r is (row.series is _image) for row in SPECS.values())
    row = SPECS[PredicateId.T1_F_in_S]
    assert "needs_r" not in type(row)._fields
    with pytest.raises(TypeError):
        type(row)(*row._values(), needs_r=True)
    with pytest.raises(AttributeError, match="cannot assign to field 'needs_r'"):
        row.needs_r = True


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
    # the operator written out: the weight recurrence over the int n, c_2 =
    # m e^{-m} and c_{n+1} = c_n (m/n), each weight times complex(scale / n);
    # the one weight pass carries n as a float and must give the same bits
    p, policy = PoissonParams(m), TruncationPolicy(eps=10.0 ** eps_exp)
    image = IMAGE(p, policy, r)
    via_operator, c = [], m * math.exp(-m)
    for n in range(2, choose_truncation(p, policy) + 1):
        via_operator.append(c * complex(r.scale / n))
        c *= m / n
    assert image.convention is SignConvention.GENERAL_TAIL
    assert image.coefficients == tuple(via_operator)


@given(series=st.sampled_from("FGI"), m=st.floats(1e-3, 600.0),
       eps_exp=st.floats(-324.0, -3.0), r=r_params)
@settings(max_examples=150, deadline=None)
# c_{N+1} underflows to 0 at eps = 5e-324, where the true tails are 3.7e-180
# and 1.8e-30; at scale 5e-324 scale times a normal tail underflows to 0
@example(series="I", m=1.0, eps_exp=-324.0, r=RParams(A=1.0, B=-1.0, tau=1e150))
@example(series="I", m=1.0, eps_exp=-324.0, r=RParams(A=1.0, B=0.0, tau=1e300))
@example(series="I", m=1.0, eps_exp=-12.0, r=RParams(A=1.0, B=0.0, tau=5e-324))
@example(series="F", m=1.0, eps_exp=-324.0, r=None)
@example(series="G", m=700.0, eps_exp=-324.0, r=None)
def test_builders_tail_bound_covers_the_true_tail(series, m, eps_exp, r):
    p, policy = PoissonParams(m), TruncationPolicy(eps=max(10.0 ** eps_exp, 5e-324))
    f = {"F": _F, "G": _G, "I": IMAGE}[series](p, policy, r)
    top, over_n = f.truncation_order, series != "F"
    with mpmath.workdps(50):
        mm = mpmath.mpf(m)
        # c_n = e^{-m} m^{n-1}/(n-1)!, over n for G and I and times scale for I,
        # summed over n > N until the terms vanish
        term = mpmath.exp(-mm + top * mpmath.log(mm) - mpmath.loggamma(top + 1 + over_n))
        tail, n = mpmath.mpf(0), top + 1
        while term > tail * mpmath.mpf(10) ** -52:
            tail += term
            term *= mm / (n + over_n)
            n += 1
        true_tail = tail * (mpmath.mpf(r.scale) if series == "I" else 1)
    assert 0 < true_tail <= f.tail_bound


# ---- the cross-check's one weight pass ----

def _written_terms(magnitudes, c, condition):
    # w(n) a_n over the magnitudes a_n from n = 2, in index order, with the
    # weights written out: w_S(n) = n P - Q and w_C(n) = n w_S(n)
    if condition is ConditionId.S_COND:
        return [(n * c.P - c.Q) * a for n, a in enumerate(magnitudes, 2)]
    return [(n * (n * c.P - c.Q)) * a for n, a in enumerate(magnitudes, 2)]


def _weighted_sum(magnitudes, c, condition):
    # the reference sum: the written-out terms, correctly rounded by fsum
    return math.fsum(_written_terms(magnitudes, c, condition))


@given(pid=st.sampled_from(list(PredicateId)),
       log_m=st.floats(math.log(1e-6), math.log(714.0)),
       eps=st.floats(1e-14, 1e-2), k=ks, lam=lams, r=r_params)
@settings(max_examples=300, deadline=None)
def test_crosscheck_equals_the_weighted_sum_over_the_built_series(pid, log_m, eps, k,
                                                                  lam, r):
    # the reference route builds the row's CoefficientSeq and sums the
    # magnitudes of its coefficients; the cross-check sums the same floats
    # from one weight pass
    p, policy = PoissonParams(min(math.exp(log_m), 714.0)), TruncationPolicy(eps=eps)
    c = ClassParams(k=k, lam=lam)
    row, c0 = resolve(pid, c, r)
    seq = row.series(p, policy, r)
    residual = abs(row.sum_scale(p.m, c0, r)
                   - _weighted_sum(map(abs, seq.coefficients), c0, row.condition))
    assert crosscheck(pid, p, c, r, policy).hex() == residual.hex()
    report = evaluate_with_crosscheck(pid, p, c, r, policy)
    assert report.crosscheck_residual.hex() == residual.hex()
    assert report.truncation_order == seq.truncation_order


# eps log-uniform down to the smallest double, where N reaches 1968 at m = 714
small_eps = st.floats(math.log(5e-324), math.log(1e-2)).map(
    lambda log_eps: max(math.exp(log_eps), 5e-324))


@given(pid=st.sampled_from(list(PredicateId)),
       log_m=st.floats(math.log(1e-6), math.log(714.0)), eps=small_eps, k=ks,
       lam=lams, r=r_params)
@settings(max_examples=300, deadline=None)
@example(pid=PredicateId.T2_F_in_C, log_m=math.log(714.0), eps=5e-324, k=1.0,
         lam=0.999, r=R_DEFAULT)
@example(pid=PredicateId.T3_G_in_C, log_m=math.log(714.0), eps=5e-324, k=1e-6,
         lam=0.0, r=R_DEFAULT)
@example(pid=PredicateId.C4_I_in_Ck, log_m=math.log(714.0), eps=5e-324, k=0.5,
         lam=0.5, r=RParams(A=1.0, B=-1.0, tau=2.0 - 1.5j))
def test_one_pass_residual_and_order_are_the_written_out_sum_down_to_the_least_eps(
        pid, log_m, eps, k, lam, r):
    # each term w(n) a_n is formed inside the weight pass; summed with the
    # weights written out over the |coeff_n| of the built series it has the
    # same bits, and the pass stops at the same N, at every eps
    p, policy = PoissonParams(min(math.exp(log_m), 714.0)), TruncationPolicy(eps=eps)
    c = ClassParams(k=k, lam=lam)
    row, c0 = resolve(pid, c, r)
    seq = row.series(p, policy, r)
    residual = abs(row.sum_scale(p.m, c0, r)
                   - _weighted_sum(map(abs, seq.coefficients), c0, row.condition))
    report = evaluate_with_crosscheck(pid, p, c, r, policy)
    assert report.crosscheck_residual.hex() == residual.hex()
    assert crosscheck(pid, p, c, r, policy).hex() == residual.hex()
    assert report.truncation_order == seq.truncation_order


@pytest.mark.parametrize("pid", list(PredicateId))
@pytest.mark.parametrize("m, eps", [(1e-6, 1e-2), (1.0, 1e-12), (35.0, 1e-300),
                                    (300.0, 1e-12), (714.0, 1e-12), (714.0, 5e-324)])
def test_crosscheck_order_is_choose_truncation(pid, m, eps):
    # the stopping rule is read by one loop, weighted or not
    p, policy = PoissonParams(m), TruncationPolicy(eps=eps)
    report = evaluate_with_crosscheck(pid, p, ClassParams(k=0.5, lam=0.3), R_DEFAULT, policy)
    assert report.truncation_order == choose_truncation(p, policy)


@pytest.mark.parametrize("pid", list(PredicateId))
def test_the_crosscheck_builds_no_sequence_and_no_tail_bound(monkeypatch, pid):
    # the cross-check draws no verdict from a tail bound, so it neither builds
    # a CoefficientSeq nor checks one
    args = (pid, PoissonParams(2.5), ClassParams(k=0.5, lam=0.3), R_DEFAULT,
            TruncationPolicy(eps=1e-13))
    residual, report = crosscheck(*args), evaluate_with_crosscheck(*args)

    def refuse(*_):
        raise AssertionError("the cross-check built a sequence or a tail bound")

    monkeypatch.setattr(series, "_check_tail", refuse)
    monkeypatch.setattr(CoefficientSeq, "__init__", refuse)
    assert crosscheck(*args).hex() == residual.hex()
    assert evaluate_with_crosscheck(*args) == report


def _natural_terms(row, seq, c):
    # Silverman's weighted terms of the row's own series, in index order
    return _written_terms(map(abs, seq.coefficients), c, row.condition)


@given(pid=st.sampled_from(list(PredicateId)),
       log_m=st.floats(math.log(1e-3), math.log(714.0)), k=ks, lam=lams, r=r_params)
@settings(max_examples=200, deadline=None)
@example(pid=PredicateId.T2_F_in_C, log_m=math.log(300.0), k=0.5, lam=0.25, r=R_DEFAULT)
def test_crosscheck_sums_its_terms_as_fsum_does_in_their_natural_order(pid, log_m, k, lam, r):
    # the terms rise before they fall from m of about 35 on and are then added
    # largest first; fsum is correctly rounded, so no bit may move
    p, c = PoissonParams(min(math.exp(log_m), 714.0)), ClassParams(k=k, lam=lam)
    row, c0 = resolve(pid, c, r)
    terms = _natural_terms(row, row.series(p, TruncationPolicy(), r), c0)
    natural = math.fsum(terms)
    assert _exact_sum(list(terms)).hex() == natural.hex()
    residual = abs(row.sum_scale(p.m, c0, r) - natural)
    assert crosscheck(pid, p, c, r).hex() == residual.hex()


F_IN_S = PredicateId.T1_F_in_S
C_FIXTURE = ClassParams(k=0.5, lam=0.25)


def test_rising_crosscheck_terms_reach_fsum_largest_first(fsum_calls):
    # at m = 300 the F terms under w_S rise over 400 binades to n ~ 300; in
    # that order fsum would cost O(N^2)
    p = PoissonParams(300.0)
    crosscheck(F_IN_S, p, C_FIXTURE)
    [terms] = fsum_calls
    natural = _natural_terms(SPECS[F_IN_S], coeffs_F(p), C_FIXTURE)
    assert natural[0] < natural[-1]
    assert terms == sorted(natural, reverse=True)


@pytest.mark.parametrize("m", [1.0, 5.0])
def test_falling_crosscheck_terms_reach_fsum_in_natural_order(fsum_calls, m):
    # at m = 5 the terms rise to n ~ 5 and then fall below the first, so a
    # sort would reorder them: they must arrive unsorted
    p = PoissonParams(m)
    crosscheck(F_IN_S, p, C_FIXTURE)
    assert fsum_calls == [_natural_terms(SPECS[F_IN_S], coeffs_F(p), C_FIXTURE)]


@pytest.mark.parametrize("pid", [PredicateId.T5_I_in_S, PredicateId.T6_I_in_C])
def test_crosscheck_refuses_a_scale_that_overflows(pid):
    # (A-B)|tau| overflows to inf, so RParams refuses it before any route runs
    with pytest.raises(DomainError, match=r"the scale \(A-B\)\|tau\| must be finite"):
        crosscheck(pid, PoissonParams(0.5), ClassParams(k=0.5),
                   RParams(A=1.0, B=-1.0, tau=1e308 + 1e308j))


# ---- each C row cross-checks its own series ----

# G in C(k, lambda) and I in C(k, lambda): Silverman's criterion on G's and on
# |I|'s own coefficients under the C-weights, not on F's under the S-weights
C_ROWS = (PredicateId.T3_G_in_C, PredicateId.C5_G_in_Ck,
          PredicateId.T6_I_in_C, PredicateId.C4_I_in_Ck)


def _own_c_residual(pid, p, c, r, policy):
    row, c = resolve(pid, c, r)
    own = _image(p, policy, r) if row.needs_r else coeffs_G(p, policy)
    return abs(row.sum_scale(p.m, c, r)
               - _weighted_sum(map(abs, own.coefficients), c, ConditionId.C_COND))


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


_C = ClassParams(k=0.5, lam=0.0)


@pytest.mark.parametrize("call, message", [
    (lambda: t1_lhs(0.5, _C), "p must be a PoissonParams, got 0.5"),
    (lambda: t1_lhs(PoissonParams(1.0), None), "c must be a ClassParams, got None"),
    (lambda: t4_lhs(None, _C), "p must be a PoissonParams, got None"),
    (lambda: t4_lhs(PoissonParams(1.0), None), "c must be a ClassParams, got None"),
    (lambda: t5_lhs(1.0, _C, R_DEFAULT), "p must be a PoissonParams, got 1.0"),
    (lambda: t5_lhs(PoissonParams(1.0), (0.5, 0.0), R_DEFAULT),
     "c must be a ClassParams, got (0.5, 0.0)"),
    (lambda: t5_lhs(PoissonParams(1.0), _C, None), "r must be a RParams, got None"),
], ids=["t1-p", "t1-c", "t4-p", "t4-c", "t5-p", "t5-c", "t5-r"])
def test_the_public_closed_forms_refuse_a_record_of_the_wrong_kind(call, message):
    # each raised AttributeError, as "'float' object has no attribute 'm'"
    with pytest.raises(DomainError) as exc:
        call()
    assert str(exc.value) == message
