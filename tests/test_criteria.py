import cmath
import copy
import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gftpoisson import (BOUNDARY_TOL, ClassParams, CoefficientSeq, ConditionId,
                        DomainError, MembershipReport, Outcome, PoissonParams, RParams,
                        SignConvention, ThresholdResult, TruncationPolicy,
                        Verdict, choose_truncation, classify, coeffs_F,
                        coeffs_G, dumps_canonical)
from gftpoisson.series import _F, _G
from gftpoisson.theorems import _image

ks = st.floats(min_value=1e-6, max_value=1.0)
lams = st.floats(min_value=0.0, max_value=0.999)


# ---- parameter validation ----

@pytest.mark.parametrize("bad_k", [0.0, -0.5, 1.5, math.nan, math.inf, -math.inf, True])
def test_class_params_rejects_bad_k(bad_k):
    with pytest.raises(DomainError) as exc:
        ClassParams(k=bad_k, lam=0.0)
    assert str(exc.value) == f"k must be in (0,1], got {bad_k!r}"


@pytest.mark.parametrize("bad_lam", [-0.1, 1.0, 1.5, math.nan, math.inf, -math.inf, False])
def test_class_params_rejects_bad_lambda(bad_lam):
    with pytest.raises(DomainError) as exc:
        ClassParams(k=0.5, lam=bad_lam)
    assert str(exc.value) == f"lambda must be in [0,1), got {bad_lam!r}"


def test_r_params_ordering_and_tau():
    with pytest.raises(DomainError) as exc:
        RParams(A=0.5, B=0.5, tau=1.0)
    assert str(exc.value) == "need -1 <= B < A <= 1, got A=0.5, B=0.5"
    with pytest.raises(DomainError) as exc:
        RParams(A=0.5, B=-1.5, tau=1.0)
    assert str(exc.value) == "need -1 <= B < A <= 1, got A=0.5, B=-1.5"
    with pytest.raises(DomainError) as exc:
        RParams(A=1.5, B=0.0, tau=1.0)
    assert str(exc.value) == "need -1 <= B < A <= 1, got A=1.5, B=0.0"
    with pytest.raises(DomainError) as exc:
        RParams(A=math.nan, B=0.0, tau=1.0)
    assert str(exc.value) == "need -1 <= B < A <= 1, got A=nan, B=0.0"
    with pytest.raises(DomainError) as exc:
        RParams(A=1.0, B=-math.inf, tau=1.0)
    assert str(exc.value) == "need -1 <= B < A <= 1, got A=1.0, B=-inf"
    for zero in (0.0, 0j):
        with pytest.raises(DomainError) as exc:
            RParams(A=1.0, B=0.0, tau=zero)
        assert str(exc.value) == "tau must be nonzero"


@pytest.mark.parametrize("a, b, tau", [
    (True, 0.0, 1.0), (1.0, False, 1.0), (1.0, 0.0, True),
    (1.0, 0.0, complex(math.nan, 0.0)), (1.0, 0.0, complex(1.0, math.inf)),
    (1.0, 0.0, complex(-math.inf, 0.0))])
def test_r_params_rejects_bools_and_non_finite_tau(a, b, tau):
    with pytest.raises(DomainError) as exc:
        RParams(A=a, B=b, tau=tau)
    if isinstance(a, bool) or isinstance(b, bool):
        assert str(exc.value) == f"need -1 <= B < A <= 1, got A={a!r}, B={b!r}"
    else:
        assert str(exc.value) == f"tau must be a finite complex number, got {tau!r}"


# an int past the largest double has no complex, and complex(tau) raised a
# bare OverflowError that named no input
@pytest.mark.parametrize("tau", ["1", "1j", None, b"1", 10 ** 400, -10 ** 400],
                         ids=["str", "str-1j", "None", "bytes", "10**400", "-10**400"])
def test_r_params_refuses_a_tau_that_is_no_number(tau):
    with pytest.raises(DomainError) as exc:
        RParams(A=1.0, B=-1.0, tau=tau)
    assert str(exc.value) == f"tau must be a finite complex number, got {tau!r}"


def test_r_params_scale():
    r = RParams(A=1.0, B=-1.0, tau=0.5j)
    assert r.scale == pytest.approx(1.0, rel=1e-15)


@pytest.mark.parametrize("a, b, tau", [
    (1.0, -1.0, 1e308 + 1e308j), (1.0, -1.0, 1e308), (0.5, -1.0, -1.2e308),
    # |tau| itself is past the largest double, though both parts are finite
    (1e-300, 0.0, 1.7e308 + 1.7e308j)])
def test_r_params_refuses_a_scale_that_overflows(a, b, tau):
    # finite A, B and tau whose (A-B)|tau| is inf once gave closed forms of inf,
    # read as a Fails verdict
    with pytest.raises(DomainError) as exc:
        RParams(A=a, B=b, tau=tau)
    assert str(exc.value) == ("the scale (A-B)|tau| must be finite, "
                              f"got A={a!r}, B={b!r}, tau={tau!r}")


@pytest.mark.parametrize("a, b, tau", [
    (5e-324, 0.0, 5e-324), (0.25, 0.0, 5e-324j), (1e-200, -1e-200, 1e-200 - 1e-200j)])
def test_r_params_refuses_a_scale_that_underflows(a, b, tau):
    # A > B and tau != 0, yet (A-B)|tau| rounds to 0, which T5's gap 2k/scale divided by
    with pytest.raises(DomainError) as exc:
        RParams(A=a, B=b, tau=tau)
    assert str(exc.value) == ("the scale (A-B)|tau| must be nonzero, "
                              f"got A={a!r}, B={b!r}, tau={tau!r}")


# ---- stored constants ----

r_params = st.builds(
    lambda b, gap, rho, theta: RParams(A=min(1.0, b + gap), B=b,
                                       tau=cmath.rect(rho, theta)),
    st.floats(-1.0, 0.9), st.floats(0.05, 1.0), st.floats(0.05, 2.0),
    st.floats(0.0, 2 * math.pi))


@given(k=ks, lam=lams, r=r_params)
def test_stored_constants_are_the_expressions_of_the_fields(k, lam, r):
    c = ClassParams(k, lam)
    assert c.P == (1 - c.lam) + c.k * (1 + c.lam)
    assert c.Q == (1 - c.lam) * (1 - c.k)
    assert r.scale == (r.A - r.B) * abs(r.tau)


def test_stored_constants_stay_out_of_repr_equality_and_hash():
    c, r = ClassParams(0.5, 0.3), RParams(1.0, -0.5, 2j)
    assert repr(c) == "ClassParams(k=0.5, lam=0.3)"
    assert repr(r) == "RParams(A=1.0, B=-0.5, tau=2j)"
    c2, r2 = ClassParams(0.5, 0.3), RParams(1.0, -0.5, 2j)
    object.__setattr__(c2, "P", 0.0)
    object.__setattr__(r2, "scale", 0.0)
    assert c2 == c and hash(c2) == hash(c)
    assert r2 == r and hash(r2) == hash(r)


def test_a_record_equals_only_a_record_of_its_own_class():
    # equal field tuples are not enough: the other object's class must match
    assert PoissonParams(0.5) != TruncationPolicy(0.5)
    assert ClassParams(0.5, 0.3) != (0.5, 0.3)
    assert PoissonParams(0.5).__eq__(0.5) is NotImplemented


class _Real(float):
    pass


# each record built from exact floats, which skip the type check, from ints and
# from a float subclass, which take it
_RECORDS = {
    "float": (ClassParams(1.0, 0.0), RParams(1.0, -1.0, 2.0), PoissonParams(3.0)),
    "int": (ClassParams(1, 0), RParams(1, -1, 2), PoissonParams(3)),
    "subclass": (ClassParams(_Real(1.0), _Real(0.0)),
                 RParams(_Real(1.0), _Real(-1.0), _Real(2.0)), PoissonParams(_Real(3.0))),
}
_FIELDS = {ClassParams: ("k", "lam", "P", "Q"), RParams: ("A", "B", "tau", "scale"),
           PoissonParams: ("m",)}


@pytest.mark.parametrize("kind", sorted(_RECORDS))
@pytest.mark.parametrize("obj, name", [
    (ClassParams(0.5, 0.3), "k"), (ClassParams(0.5, 0.3), "lam"),
    (ClassParams(0.5, 0.3), "P"), (ClassParams(0.5, 0.3), "Q"),
    (RParams(1.0, -0.5, 2j), "A"), (RParams(1.0, -0.5, 2j), "B"),
    (RParams(1.0, -0.5, 2j), "tau"), (RParams(1.0, -0.5, 2j), "scale"),
    (PoissonParams(0.5), "m")])
def test_every_field_is_frozen(obj, name, kind):
    same_type = next(rec for rec in _RECORDS[kind] if type(rec) is type(obj))
    for record in (obj, same_type):
        with pytest.raises(AttributeError, match="cannot (assign to|delete) field"):
            setattr(record, name, 0.25)
        with pytest.raises(AttributeError, match="cannot (assign to|delete) field"):
            delattr(record, name)


@pytest.mark.parametrize("kind", ["int", "subclass"])
def test_records_from_ints_and_float_subclasses_equal_the_float_ones(kind):
    for built, reference in zip(_RECORDS[kind], _RECORDS["float"]):
        assert built == reference and hash(built) == hash(reference)
        assert repr(built) == repr(reference)
        for name in _FIELDS[type(built)]:
            value = getattr(built, name)
            assert value == getattr(reference, name)
            assert type(value) is (complex if name == "tau" else float)


@pytest.mark.parametrize("bad", [True, math.nan, math.inf, -math.inf,
                                 _Real(math.nan), _Real(math.inf)])
def test_every_record_refuses_bools_and_non_finite_values(bad):
    with pytest.raises(DomainError) as exc:
        ClassParams(bad, 0.0)
    assert str(exc.value) == f"k must be in (0,1], got {bad!r}"
    with pytest.raises(DomainError) as exc:
        ClassParams(0.5, bad)
    assert str(exc.value) == f"lambda must be in [0,1), got {bad!r}"
    with pytest.raises(DomainError) as exc:
        RParams(bad, -1.0)
    assert str(exc.value) == f"need -1 <= B < A <= 1, got A={bad!r}, B=-1.0"
    with pytest.raises(DomainError) as exc:
        RParams(1.0, bad)
    assert str(exc.value) == f"need -1 <= B < A <= 1, got A=1.0, B={bad!r}"
    with pytest.raises(DomainError) as exc:
        PoissonParams(bad)
    assert str(exc.value) == f"m must be a finite positive real, got {bad!r}"


@pytest.mark.parametrize("copy_of", [lambda x: pickle.loads(pickle.dumps(x)),
                                     copy.deepcopy, copy.copy])
@pytest.mark.parametrize("record", [ClassParams(0.3, 0.7), RParams(0.5, -0.25, 1 - 2j),
                                    PoissonParams(2.5)])
def test_records_survive_pickle_and_copy(copy_of, record):
    twin = copy_of(record)
    assert type(twin) is type(record) and twin == record and hash(twin) == hash(record)
    assert vars(twin) == vars(record)
    for name in _FIELDS[type(record)]:
        assert getattr(twin, name) == getattr(record, name)
        with pytest.raises(AttributeError, match="cannot (assign to|delete) field"):
            setattr(twin, name, 0.25)


# ---- result records ----

_REPORT = MembershipReport("T1_F_in_S", Verdict.HOLDS, 0.5, 1.0, 0.5)
_RESULT = ThresholdResult("T5_I_in_S", Outcome.FINITE, 0.25, 1e-11, 2)


@pytest.mark.parametrize("record", [_REPORT, _RESULT], ids=["report", "result"])
def test_result_records_are_frozen(record):
    # one __dict__ step sets every field; assignment is still refused
    for name in type(record)._fields:
        with pytest.raises(AttributeError, match="cannot (assign to|delete) field"):
            setattr(record, name, 0.25)
        with pytest.raises(AttributeError, match="cannot (assign to|delete) field"):
            delattr(record, name)


def test_result_records_keep_their_repr_equality_and_bytes():
    assert repr(_REPORT) == (
        "MembershipReport(predicate='T1_F_in_S', verdict=<Verdict.HOLDS: 'Holds'>, "
        "lhs=0.5, rhs=1.0, margin=0.5, crosscheck_residual=None, truncation_order=None)")
    assert repr(_RESULT) == (
        "ThresholdResult(predicate='T5_I_in_S', outcome=<Outcome.FINITE: 'finite'>, "
        "m_star=0.25, bracket_width=1e-11, evaluations=2)")
    by_name = MembershipReport(predicate="T1_F_in_S", verdict=Verdict.HOLDS, lhs=0.5,
                               rhs=1.0, margin=0.5)
    assert by_name == _REPORT and hash(by_name) == hash(_REPORT)
    fields = ("T1_F_in_S", Verdict.HOLDS, 0.5, 1.0, 0.5)
    assert MembershipReport(*fields, truncation_order=15).truncation_order == 15
    assert _REPORT != MembershipReport(*fields, crosscheck_residual=0.0)
    assert pickle.loads(pickle.dumps(_RESULT)) == _RESULT
    assert dumps_canonical(_REPORT.to_json_dict()) == (
        '{\n  "predicate": "T1_F_in_S",\n  "verdict": "Holds",\n  "lhs": 0.5,\n'
        '  "rhs": 1,\n  "margin": 0.5,\n  "residual": null,\n  "N": null\n}')
    assert dumps_canonical(_RESULT.to_json_dict()) == (
        '{\n  "predicate": "T5_I_in_S",\n  "outcome": "finite",\n  "m_star": 0.25,\n'
        '  "bracket": 9.9999999999999994e-12,\n  "evals": 2\n}')


# ---- weights ----

S, C = ConditionId.S_COND, ConditionId.C_COND


def _weighted_sum(magnitudes, c, condition):
    # the reference sum: w_S(n) = n P - Q and w_C(n) = n w_S(n) written out over
    # the magnitudes a_n from n = 2, correctly rounded by fsum
    P, Q = c.P, c.Q
    if condition is S:
        return math.fsum([(n * P - Q) * a for n, a in enumerate(magnitudes, 2)])
    return math.fsum([(n * (n * P - Q)) * a for n, a in enumerate(magnitudes, 2)])


def _weight(n, c, condition):
    # w(n) as _weighted_sum sees it: the sum over the unit magnitude at n
    return _weighted_sum([0.0] * (n - 2) + [1.0], c, condition)


def test_weight_values():
    c = ClassParams(k=1.0, lam=0.0)
    assert _weight(2, c, S) == pytest.approx(4.0, abs=1e-15)
    k = 0.3
    assert _weight(2, ClassParams(k=k, lam=0.0), S) == pytest.approx(1 + 3 * k, abs=1e-15)
    assert _weight(3, ClassParams(k=0.5, lam=0.5), S) == pytest.approx(3.5, abs=1e-15)
    assert _weight(2, c, C) == pytest.approx(8.0, abs=1e-15)
    assert _weight(3, c, S) == pytest.approx(6.0, abs=1e-15)
    assert _weight(3, ClassParams(k=0.3, lam=0.0), S) == pytest.approx(3.2, abs=1e-14)


@given(k=ks, lam=lams, n=st.integers(min_value=2, max_value=100))
def test_s_weights_are_positive_and_increasing(k, lam, n):
    c = ClassParams(k=k, lam=lam)
    assert _weight(n, c, S) > 0
    assert _weight(n + 1, c, S) > _weight(n, c, S)


@given(k=ks, lam=lams, n=st.integers(min_value=2, max_value=100))
def test_c_weights_are_n_times_the_s_weights(k, lam, n):
    c = ClassParams(k=k, lam=lam)
    assert _weight(n, c, C) == pytest.approx(n * _weight(n, c, S), rel=1e-15)
    assert _weight(n, c, C) > _weight(n, c, S)


# ---- classify ----

def test_classify_bands():
    assert classify(1e-6) is Verdict.HOLDS
    assert classify(-1e-6) is Verdict.FAILS
    assert classify(0.0) is Verdict.MARGINAL
    assert classify(5e-10) is Verdict.MARGINAL
    assert classify(-5e-10) is Verdict.MARGINAL
    assert classify(-0.0) is Verdict.MARGINAL
    assert classify(math.inf) is Verdict.HOLDS
    assert classify(-math.inf) is Verdict.FAILS


@pytest.mark.parametrize("sign, outside", [(1, Verdict.HOLDS), (-1, Verdict.FAILS)])
def test_classify_band_edge_is_marginal_and_the_next_float_out_is_not(sign, outside):
    edge = sign * BOUNDARY_TOL
    assert classify(edge) is Verdict.MARGINAL
    assert classify(math.nextafter(edge, sign * math.inf)) is outside


def test_classify_refuses_a_nan_margin():
    # nan fails every comparison, so it read as Fails
    with pytest.raises(DomainError) as exc:
        classify(math.nan)
    assert str(exc.value) == "margin must be a number, got nan"


@pytest.mark.parametrize("margin", [True, False, "1", None, 1j, 10 ** 400],
                         ids=["True", "False", "str", "None", "complex", "huge-int"])
def test_classify_refuses_a_margin_that_is_no_real_number(margin):
    # a str raised TypeError, and True read as Holds
    with pytest.raises(DomainError) as exc:
        classify(margin)
    assert str(exc.value) == f"margin must be a number, got {margin!r}"


def test_classify_reads_an_int_margin_as_its_value():
    assert classify(1) is Verdict.HOLDS
    assert classify(0) is Verdict.MARGINAL
    assert classify(-1) is Verdict.FAILS


# ---- the weighted sum ----

def _seq(coeffs):
    return CoefficientSeq(SignConvention.NEGATIVE_TAIL, tuple(coeffs), 0.0)


def _extremal_image(p, r, n_top):
    """I(m) on the extremal R^tau(A,B) member a_n = (A-B)|tau|/n, to n = n_top,
    written out: the weight recurrence over the int n, c_2 = m e^{-m} and
    c_{n+1} = c_n (m/n), each weight times complex(scale / n)."""
    out, c = [], p.m * math.exp(-p.m)
    for n in range(2, n_top + 1):
        out.append(c * complex(r.scale / n))
        c *= p.m / n
    return out


def _sum(f, c, condition):
    # Silverman's sum over a CoefficientSeq: the weighted sum of its magnitudes
    return _weighted_sum(map(abs, f.coefficients), c, condition)


def test_weighted_sum_identity_function_holds():
    c = ClassParams(k=0.5, lam=0.25)
    lhs = _sum(_seq([0.0]), c, S)
    assert lhs == 0.0
    assert classify(2 * c.k - lhs) is Verdict.HOLDS


def test_weighted_sum_sharpness_witness_is_marginal():
    # one-term tail with b_2 = 2k / w_S(2) sits exactly on the bound
    c = ClassParams(k=0.7, lam=0.3)
    b2 = 2 * c.k / (2 * c.P - c.Q)
    lhs = _sum(_seq([b2]), c, S)
    assert lhs == pytest.approx(2 * c.k, rel=1e-15)
    assert classify(2 * c.k - lhs) is Verdict.MARGINAL


def test_weighted_sum_poisson_m02_frozen_value():
    # k=1, lam=0: sum (n+... ) reduces to 2m + 2(1 - e^{-m})
    f = coeffs_F(PoissonParams(0.2), TruncationPolicy(eps=1e-13))
    c = ClassParams(k=1.0, lam=0.0)
    lhs = _sum(f, c, S)
    assert lhs == pytest.approx(0.7625384938440364, abs=1e-12)
    assert classify(2 * c.k - lhs) is Verdict.HOLDS
    assert _F.weighted_sum(PoissonParams(0.2), TruncationPolicy(eps=1e-13), None, c,
                           False) == (lhs, f.truncation_order)


@pytest.mark.parametrize("condition", [S, C])
@pytest.mark.parametrize("series", "FGI")
@given(m=st.floats(min_value=1e-3, max_value=300.0), k=ks, lam=lams)
@settings(max_examples=30, deadline=None)
def test_weighted_sum_matches_the_written_out_weights_bit_for_bit(series, condition,
                                                                  m, k, lam):
    # the one weight pass forms each w(n) a_n as it makes the weight c_n; the
    # written-out sum over the sequence the series builds has the same bits
    p, policy = PoissonParams(m), TruncationPolicy()
    r = RParams(A=1.0, B=-0.5, tau=0.3 + 0.4j)
    if series == "F":
        one_pass, coeffs = _F, coeffs_F(p, policy).coefficients
    elif series == "G":
        one_pass, coeffs = _G, coeffs_G(p, policy).coefficients
    else:
        one_pass, coeffs = _image, _extremal_image(p, r, choose_truncation(p, policy))
    c = ClassParams(k=k, lam=lam)
    total, n_top = one_pass.weighted_sum(p, policy, r, c, condition is C)
    assert (total.hex(), n_top) == (_weighted_sum(map(abs, coeffs), c, condition).hex(),
                                    len(coeffs) + 1)


def test_weighted_sum_sums_the_magnitude_of_a_general_tail():
    # the criterion on |a_n| is sufficient for a general tail: |0.3 + 0.4j| = 0.5
    c = ClassParams(k=0.5, lam=0.2)
    f = CoefficientSeq(SignConvention.GENERAL_TAIL, (0.3 + 0.4j,), 0.0)
    assert _sum(f, c, S) == 0.5 * (2 * c.P - c.Q)
    assert _sum(f, c, C) == 0.5 * (2 * (2 * c.P - c.Q))


@given(k=ks, lam=lams, b=st.floats(min_value=1e-6, max_value=0.5))
@settings(max_examples=100)
def test_weighted_sum_monotone_in_coefficients(k, lam, b):
    c = ClassParams(k=k, lam=lam)
    lo = _sum(_seq([b]), c, S)
    hi = _sum(_seq([b, b / 2]), c, S)
    assert hi > lo


@given(k=ks, lam=lams,
       bs=st.lists(st.floats(min_value=0.0, max_value=0.05), min_size=1, max_size=6))
@settings(max_examples=200)
def test_weighted_sum_C_holding_implies_S_holding(k, lam, bs):
    c = ClassParams(k=k, lam=lam)
    seq = _seq(bs)
    if classify(2 * c.k - _sum(seq, c, C)) is Verdict.HOLDS:
        s_verdict = classify(2 * c.k - _sum(seq, c, S))
        assert s_verdict in (Verdict.HOLDS, Verdict.MARGINAL)
