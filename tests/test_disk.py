import cmath
import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gftpoisson import (ClassParams, CoefficientSeq, ConditionId, DomainError,
                        GridSpec, PoissonParams, RParams, SignConvention,
                        TruncationPolicy, apply_operator_I, c_condition_value,
                        coeffs_F, coeffs_G, eval_deriv, eval_series,
                        grid_check, r_condition_value, s_condition_value,
                        worst_case_R_coeffs)
import gftpoisson.disk
from gftpoisson.theorems import SPECS, PredicateId

POLICY = TruncationPolicy(eps=1e-12)
IDENTITY = CoefficientSeq(SignConvention.NEGATIVE_TAIL, (0.0,), 0.0)

disk_points = st.complex_numbers(max_magnitude=0.95, allow_nan=False,
                                 allow_infinity=False)


# ---- series evaluation ----

def test_eval_identity_function():
    assert eval_series(IDENTITY, 0.5 + 0.25j) == 0.5 + 0.25j
    assert eval_deriv(IDENTITY, 0.5 + 0.25j) == 1.0


def test_eval_one_term_tail():
    f = CoefficientSeq(SignConvention.NEGATIVE_TAIL, (0.5,), 0.0)
    assert eval_series(f, 0.5) == pytest.approx(0.5 - 0.5 * 0.25, rel=1e-15)
    assert eval_deriv(f, 0.5) == pytest.approx(1 - 2 * 0.5 * 0.5, rel=1e-15)


def test_eval_matches_direct_summation():
    f = coeffs_F(PoissonParams(1.0), POLICY)
    z = 0.5
    direct = z - math.fsum(
        b * z ** n for n, b in enumerate(f.coefficients, start=2))
    assert eval_series(f, z) == pytest.approx(direct, rel=1e-14)
    direct_d = 1 - math.fsum(
        n * b * z ** (n - 1) for n, b in enumerate(f.coefficients, start=2))
    assert eval_deriv(f, z) == pytest.approx(direct_d, rel=1e-14)


def test_eval_general_tail_adds_terms():
    f = CoefficientSeq(SignConvention.GENERAL_TAIL, (0.5 + 0j,), 0.0)
    assert eval_series(f, 0.5) == pytest.approx(0.5 + 0.5 * 0.25, rel=1e-15)


@pytest.mark.parametrize("z", [1.0, -1.0, 1j, 0.8 + 0.7j])
def test_eval_rejects_points_outside_open_disk(z):
    with pytest.raises(DomainError):
        eval_series(IDENTITY, z)
    with pytest.raises(DomainError):
        eval_deriv(IDENTITY, z)


NO_DISK_POINTS = [math.nan, complex(math.nan, 0.1), complex(0.1, math.nan),
                  complex(math.nan, math.nan), False, True]


@pytest.mark.parametrize("z", NO_DISK_POINTS)
def test_every_evaluation_rejects_nan_and_bool_points(z):
    # |nan| >= 1 is False, so a NaN point once read as inside the disk, and
    # gave (nan, True) as a valid condition value; False is no spelling of 0
    f = coeffs_F(PoissonParams(0.7), POLICY)
    c = ClassParams(k=0.5, lam=0.3)
    r = RParams(A=1.0, B=-0.5, tau=1.0)
    for evaluate in (lambda: eval_series(f, z), lambda: eval_deriv(f, z),
                     lambda: s_condition_value(f, z, c),
                     lambda: c_condition_value(f, z, c),
                     lambda: r_condition_value(f, z, r)):
        with pytest.raises(DomainError, match=r"\|z\| < 1"):
            evaluate()


# ---- pointwise conditions ----

def test_s_condition_identity_function_near_zero():
    c = ClassParams(k=0.5, lam=0.3)
    for z in (0.0, 0.5, 0.9j, -0.7 + 0.2j):
        value, ok = s_condition_value(IDENTITY, z, c)
        assert ok
        assert value <= 1e-15   # w = 1 up to one rounding of the lam split


def test_s_condition_identity_function_lambda_zero_exact():
    c = ClassParams(k=0.5, lam=0.0)
    value, ok = s_condition_value(IDENTITY, 0.5 + 0.25j, c)
    assert ok
    assert value == 0.0


def test_s_condition_at_origin():
    f = coeffs_F(PoissonParams(2.0), POLICY)
    value, ok = s_condition_value(f, 0.0, ClassParams(k=0.5, lam=0.0))
    assert ok
    assert value == 0.0


def test_s_condition_small_m_inside_bound():
    f = coeffs_F(PoissonParams(0.3), POLICY)
    c = ClassParams(k=1.0, lam=0.0)
    value, ok = s_condition_value(f, 0.9, c)
    assert ok
    assert 0 < value < c.k


def _image_of(r, p):
    """I applied to the member with a_n = (A-B) tau / n: complex coefficients
    that carry tau's phase, their imaginary parts all zero when tau is real."""
    member = CoefficientSeq(SignConvention.GENERAL_TAIL,
                            tuple((r.A - r.B) * r.tau / n for n in range(2, 13)), 0.0)
    return apply_operator_I(member, p)


REAL_SERIES = {"F": coeffs_F(PoissonParams(0.7), POLICY),
               "G": coeffs_G(PoissonParams(0.7), POLICY),
               "I_real_tau": _image_of(RParams(A=1.0, B=-0.5, tau=-1.5),
                                       PoissonParams(1.5))}


@pytest.mark.parametrize("value_at", [s_condition_value, c_condition_value],
                         ids=["S", "C"])
@pytest.mark.parametrize("kind", sorted(REAL_SERIES))
@given(z=disk_points)
@settings(max_examples=100)
def test_condition_conjugation_symmetry(kind, value_at, z):
    # real coefficients commute with conjugation at every arithmetic step
    f = REAL_SERIES[kind]
    c = ClassParams(k=0.6, lam=0.4)
    v1, ok1 = value_at(f, z, c)
    v2, ok2 = value_at(f, z.conjugate(), c)
    assert ok1 == ok2
    assert v1 == v2


def test_c_condition_applies_derivative_coefficient_map():
    # z f' of z - b z^2 is z - 2b z^2, so the C-condition of f equals the
    # S-condition of the remapped sequence
    b = 0.2
    f = CoefficientSeq(SignConvention.NEGATIVE_TAIL, (b,), 0.0)
    g = CoefficientSeq(SignConvention.NEGATIVE_TAIL, (2 * b,), 0.0)
    c = ClassParams(k=0.8, lam=0.1)
    z = 0.4 + 0.3j
    vc, okc = c_condition_value(f, z, c)
    vs, oks = s_condition_value(g, z, c)
    assert okc == oks
    assert vc == pytest.approx(vs, rel=1e-14)


def test_c_condition_poisson_integral_small_m():
    g = coeffs_G(PoissonParams(0.3), POLICY)
    c = ClassParams(k=1.0, lam=0.0)
    value, ok = c_condition_value(g, 0.85, c)
    assert ok
    assert value < c.k


def test_r_condition_identity_function_is_zero():
    r = RParams(A=1.0, B=-0.5, tau=1 + 2j)
    value, ok = r_condition_value(IDENTITY, 0.3 + 0.3j, r)
    assert ok
    assert value == 0.0


def test_r_condition_B_zero_reference_point():
    # f' - 1 = (A-B) tau z for the extremal quadratic, so the ratio is |z|
    r = RParams(A=0.6, B=0.0, tau=2.0)
    a2 = (r.A - r.B) * r.tau / 2
    f = CoefficientSeq(SignConvention.GENERAL_TAIL, (a2,), 0.0)
    value, ok = r_condition_value(f, 0.5, r)
    assert ok
    assert value == pytest.approx(0.5, rel=1e-14)


# ---- grid sweeps ----

def test_grid_spec_defaults():
    spec = GridSpec()
    assert spec.radii == (0.25, 0.5, 0.75, 0.9)
    assert spec.points_per_circle == 256
    assert spec.denominator_floor == 1e-12


def test_grid_spec_validation():
    with pytest.raises(DomainError):
        GridSpec(radii=(0.5, 1.0))
    with pytest.raises(DomainError):
        GridSpec(radii=())
    with pytest.raises(DomainError):
        GridSpec(points_per_circle=4)
    with pytest.raises(DomainError):
        GridSpec(denominator_floor=-1.0)


@pytest.mark.parametrize("floor", [math.inf, math.nan, True, "1e-12"])
def test_grid_spec_rejects_non_finite_or_bool_floor(floor):
    # an infinite floor skips every point and reads like a pass; True is no 1.0
    with pytest.raises(DomainError):
        GridSpec(denominator_floor=floor)


@pytest.mark.parametrize("floor", [math.inf, math.nan, True, "1e-12", 0.0, -1.0, 0])
@pytest.mark.parametrize("value_at", [s_condition_value, c_condition_value,
                                      r_condition_value], ids=["S", "C", "R"])
def test_condition_values_refuse_the_floors_grid_spec_refuses(value_at, floor):
    # a floor of nan, 0 or -1 turned the guard off, and inf or True read every
    # point as skipped; the rule and the message are GridSpec's
    f = coeffs_F(PoissonParams(0.7), POLICY)
    params = (RParams(A=1.0, B=-0.5, tau=1.0) if value_at is r_condition_value
              else ClassParams(k=0.5, lam=0.3))
    with pytest.raises(DomainError) as refused:
        value_at(f, 0.5 + 0.25j, params, floor)
    with pytest.raises(DomainError) as spec_refused:
        GridSpec(denominator_floor=floor)
    assert str(refused.value) == str(spec_refused.value)


@pytest.mark.parametrize("floor", [5e-324, 1e-12, 1, 1.7976931348623157e308])
def test_condition_values_accept_the_floors_grid_spec_accepts(floor):
    f = coeffs_F(PoissonParams(0.7), POLICY)
    GridSpec(denominator_floor=floor)
    assert s_condition_value(f, 0.5, ClassParams(k=0.5, lam=0.3), floor)[1] is (floor < 0.1)


@pytest.mark.parametrize("radius", ["0.5", 0.5 + 0j, True, math.nan])
def test_grid_spec_rejects_a_radius_that_is_no_real_number(radius):
    # like the floor: a string or complex is no radius, whatever it spells
    with pytest.raises(DomainError):
        GridSpec(radii=(0.25, radius))


def test_grid_check_identity_function_s_condition():
    # off-axis z/z division leaves one rounding of noise, nothing more
    report = grid_check(IDENTITY, ConditionId.S_COND,
                        ClassParams(k=0.5, lam=0.0), GridSpec())
    assert report.max_value <= 1e-15
    assert report.violations == 0
    assert report.skipped == 0
    d = report.to_json_dict()
    assert set(d) == {"condition", "max", "argmax", "violations", "skipped"}
    assert d["condition"] == "S_cond"


def test_grid_check_identity_function_r_condition():
    # f' - 1 is exactly zero, so every grid value is 0.0 and the argmax
    # tie-break deterministically keeps the first point
    report = grid_check(IDENTITY, ConditionId.R_COND,
                        RParams(A=1.0, B=-0.5, tau=1.0), GridSpec())
    assert report.max_value == 0.0
    assert report.violations == 0
    d = report.to_json_dict()
    assert d["condition"] == "R_cond"
    assert d["argmax"] == [0.25, 0.0]


def test_grid_check_sufficiency_small_m():
    f = coeffs_F(PoissonParams(0.3), POLICY)
    report = grid_check(f, ConditionId.S_COND, ClassParams(k=1.0, lam=0.0),
                        GridSpec())
    assert report.violations == 0
    assert 0 < report.max_value < 1.0


def test_grid_check_max_grows_with_radius():
    f = coeffs_F(PoissonParams(0.3), POLICY)
    c = ClassParams(k=1.0, lam=0.0)
    small = grid_check(f, ConditionId.S_COND, c, GridSpec(radii=(0.25,)))
    big = grid_check(f, ConditionId.S_COND, c, GridSpec(radii=(0.9,)))
    assert big.max_value > small.max_value
    assert abs(big.argmax_z) == pytest.approx(0.9, rel=1e-12)


def test_grid_check_r_condition_worst_case():
    # |f'-1| <= 2 sum of the Poisson masses = 2(1-e^{-m}) keeps the operator
    # image inside the R bound at m=0.5
    r = RParams(A=1.0, B=-1.0, tau=1.0)
    f = apply_operator_I(worst_case_R_coeffs(r, 40), PoissonParams(0.5))
    report = grid_check(f, ConditionId.R_COND, r, GridSpec())
    assert report.violations == 0
    assert report.max_value < 1.0


def test_grid_check_huge_floor_skips_everything():
    report = grid_check(IDENTITY, ConditionId.S_COND,
                        ClassParams(k=0.5, lam=0.0),
                        GridSpec(denominator_floor=1e12))
    assert report.skipped == 4 * 256
    assert report.max_value == 0.0
    assert report.violations == 0


def test_grid_check_requires_matching_params():
    with pytest.raises(DomainError):
        grid_check(IDENTITY, ConditionId.R_COND, ClassParams(k=0.5, lam=0.0),
                   GridSpec())
    with pytest.raises(DomainError):
        grid_check(IDENTITY, ConditionId.S_COND, RParams(A=1.0, B=0.0, tau=1.0),
                   GridSpec())


def test_grid_check_counts_violations():
    # one fat tail term pushes the quotient past k on the outer ring
    f = CoefficientSeq(SignConvention.NEGATIVE_TAIL, (0.45,), 0.0)
    c = ClassParams(k=0.05, lam=0.0)
    report = grid_check(f, ConditionId.S_COND, c, GridSpec(radii=(0.9,)))
    assert report.violations > 0
    assert report.max_value > c.k


@pytest.mark.parametrize("points", [8.5, 10.0, True, "16"])
def test_grid_spec_rejects_non_integer_points(points):
    # range() in grid_check needs an int; a bool is no spelling of a count
    with pytest.raises(DomainError):
        GridSpec(points_per_circle=points)


# ---- grid reports against the reference pointwise values ----

def _circle(radius, points):
    """The grid's points on one circle: rect(radius, j * step) up to
    j = points // 2, then the conjugate of point points - j."""
    step = 2 * math.pi / points
    upper = [cmath.rect(radius, j * step) for j in range(points // 2 + 1)]
    return upper + [upper[points - j].conjugate()
                    for j in range(points // 2 + 1, points)]


# The reference arithmetic: one point at a time, as grid_check evaluated before
# it took a circle per call, so the grid is held to code it does not share.

def _reference_table(f, zfprime=False):
    """(negative tail?, pairs (a_n, n a_n) for n = N down to 2), a_n = coeff_n,
    or n coeff_n for z f'."""
    pairs = []
    for n, coeff in zip(range(f.truncation_order, 1, -1), reversed(f.coefficients)):
        a = n * coeff if zfprime else coeff
        pairs.append((a, n * a))
    return f.convention is SignConvention.NEGATIVE_TAIL, tuple(pairs)


def _horner_pair(table, z):
    negative, pairs = table
    acc = dacc = 0j
    for coeff, dcoeff in pairs:
        acc = acc * z + coeff
        dacc = dacc * z + dcoeff
    if negative:
        return z - acc * z * z, 1 - dacc * z
    return z + acc * z * z, 1 + dacc * z


def _s_value(table, z, lam, floor):
    if z == 0:
        return 0.0, True
    fz, dfz = _horner_pair(table, z)
    num = z * dfz
    den = (1 - lam) * fz + lam * num
    if abs(den) < floor:
        return 0.0, False
    w = num / den
    wp1 = w + 1
    if abs(wp1) < floor:
        return 0.0, False
    return abs(w - 1) / abs(wp1), True


def _r_value(table, z, r, floor):
    d = _horner_pair(table, z)[1] - 1
    den = (r.A - r.B) * r.tau - r.B * d
    if abs(den) < floor:
        return 0.0, False
    return abs(d) / abs(den), True


def _reference_value(f, condition, params, z, floor):
    if condition is ConditionId.R_COND:
        return _r_value(_reference_table(f), z, params, floor)
    return _s_value(_reference_table(f, zfprime=condition is ConditionId.C_COND),
                    z, params.lam, floor)


def _recomputed(f, condition, params, grid):
    """(max, argmax, violations, skipped) from the reference values at every
    one of the grid's points: the first point of the largest value wins ties."""
    threshold = 1.0 if condition is ConditionId.R_COND else params.k
    best, argmax, violations, skipped = -math.inf, 0j, 0, 0
    for radius in grid.radii:
        for z in _circle(radius, grid.points_per_circle):
            value, valid = _reference_value(f, condition, params, z,
                                            grid.denominator_floor)
            if not valid:
                skipped += 1
                continue
            if value > best:
                best, argmax = value, z
            if value >= threshold:
                violations += 1
    return (best if best > -math.inf else 0.0), argmax, violations, skipped


def _report_tuple(report):
    return report.max_value, report.argmax_z, report.violations, report.skipped


def _series(kind, m, scale, r):
    p = PoissonParams(m)
    if kind == "F":
        return coeffs_F(p, POLICY)
    if kind == "G":
        return coeffs_G(p, POLICY)
    if kind == "I":
        return apply_operator_I(worst_case_R_coeffs(r, 12), p)
    if kind == "I_tau":
        return _image_of(r, p)
    f = coeffs_F(p, POLICY)
    return CoefficientSeq(f.convention, tuple(b * scale for b in f.coefficients),
                          f.tail_bound * scale)


r_params = st.builds(
    lambda b, gap, rho, theta: RParams(A=min(1.0, b + gap), B=b,
                                       tau=cmath.rect(rho, theta)),
    st.floats(-1.0, 0.9), st.floats(0.05, 1.0), st.floats(0.05, 2.0),
    st.floats(0.0, 2 * math.pi))


@given(kind=st.sampled_from(["F", "G", "I", "I_tau", "scaled"]),
       condition=st.sampled_from(list(ConditionId)),
       m=st.floats(1e-3, 10.0), scale=st.floats(0.0, 4.0),
       k=st.floats(1e-3, 1.0), lam=st.floats(0.0, 0.999), r=r_params,
       radii=st.lists(st.floats(0.01, 0.999), min_size=1, max_size=3),
       points=st.sampled_from([8, 13, 33]),
       floor_exp=st.floats(-14.0, 0.5))
@settings(max_examples=150, deadline=None)
def test_grid_check_equals_public_condition_values(kind, condition, m, scale, k,
                                                   lam, r, radii, points, floor_exp):
    f = _series(kind, m, scale, r)
    params = r if condition is ConditionId.R_COND else ClassParams(k=k, lam=lam)
    grid = GridSpec(radii=tuple(radii), points_per_circle=points,
                    denominator_floor=10.0 ** floor_exp)
    report = grid_check(f, condition, params, grid)
    assert _report_tuple(report) == _recomputed(f, condition, params, grid)
    # the public values are the reference's at every point of the grid
    value_at = {ConditionId.S_COND: s_condition_value,
                ConditionId.C_COND: c_condition_value,
                ConditionId.R_COND: r_condition_value}[condition]
    for radius in grid.radii:
        for z in _circle(radius, points):
            assert (value_at(f, z, params, grid.denominator_floor)
                    == _reference_value(f, condition, params, z, grid.denominator_floor))


@given(kind=st.sampled_from(["F", "G", "I", "I_tau", "scaled"]), m=st.floats(1e-3, 10.0),
       scale=st.floats(0.0, 4.0), r=r_params, z=disk_points)
@settings(max_examples=100, deadline=None)
def test_eval_series_and_eval_deriv_are_the_reference_values(kind, m, scale, r, z):
    f = _series(kind, m, scale, r)
    fz, dfz = _horner_pair(_reference_table(f), complex(z))
    assert _bits(eval_series(f, z)) == _bits(fz)
    assert _bits(eval_deriv(f, z)) == _bits(dfz)


@pytest.mark.parametrize("pid", [PredicateId.T1_F_in_S, PredicateId.T4_G_in_S,
                                 PredicateId.T5_I_in_S], ids=["F", "G", "I"])
def test_c_grid_is_the_s_grid_of_z_fprime(pid):
    r = RParams(A=1.0, B=-0.5, tau=0.3 + 0.4j)
    f = SPECS[pid].series(PoissonParams(2.5), POLICY, r)
    zf = CoefficientSeq(f.convention,
                        tuple(n * a for n, a in enumerate(f.coefficients, 2)), 0.0)
    c = ClassParams(k=0.6, lam=0.3)
    grid = GridSpec(points_per_circle=64)
    assert (_report_tuple(grid_check(f, ConditionId.C_COND, c, grid))
            == _report_tuple(grid_check(zf, ConditionId.S_COND, c, grid)))
    z = 0.5 + 0.6j
    assert c_condition_value(f, z, c) == s_condition_value(zf, z, c)


@pytest.mark.parametrize("points", [64, 9])
@pytest.mark.parametrize("condition", list(ConditionId))
def test_grid_check_with_some_points_skipped_equals_public_values(condition, points):
    # a real table, so the S/C grids visit the upper half with multiplicities;
    # at P = 9 the point j = P//2 has a mirror, at P = 64 it has none
    f = apply_operator_I(worst_case_R_coeffs(RParams(A=1.0, B=-1.0, tau=0.3 + 0.4j), 12),
                         PoissonParams(4.0))
    params = (RParams(A=0.3, B=-0.5, tau=0.3 + 0.4j) if condition is ConditionId.R_COND
              else ClassParams(k=0.02, lam=0.3))
    grid = GridSpec(radii=(0.5, 0.9), points_per_circle=points, denominator_floor=0.5)
    report = grid_check(f, condition, params, grid)
    assert 0 < report.skipped < 2 * points
    assert report.violations > 0
    assert _report_tuple(report) == _recomputed(f, condition, params, grid)


@pytest.mark.parametrize("condition", list(ConditionId))
def test_grid_check_one_ulp_inside_the_unit_circle(condition):
    f = coeffs_F(PoissonParams(0.5), POLICY)
    params = (RParams(A=1.0, B=-0.5, tau=1.0) if condition is ConditionId.R_COND
              else ClassParams(k=0.7, lam=0.2))
    grid = GridSpec(radii=(math.nextafter(1.0, 0.0),), points_per_circle=64)
    report = grid_check(f, condition, params, grid)
    assert _report_tuple(report) == _recomputed(f, condition, params, grid)


@given(kind=st.sampled_from(["F", "G", "I", "scaled"]), m=st.floats(1e-3, 10.0),
       scale=st.floats(0.0, 4.0), lam=st.floats(0.0, 0.999), r=r_params,
       z=disk_points, floor_exp=st.floats(-14.0, 0.5))
@settings(max_examples=200, deadline=None)
def test_s_condition_is_the_quotient_of_eval_series_and_eval_deriv(
        kind, m, scale, lam, r, z, floor_exp):
    f = _series(kind, m, scale, r)
    floor = 10.0 ** floor_exp
    z = complex(z)
    if z == 0:
        expected = (0.0, True)
    else:
        num = z * eval_deriv(f, z)
        den = (1 - lam) * eval_series(f, z) + lam * num
        if abs(den) < floor:
            expected = (0.0, False)
        else:
            w = num / den
            expected = ((0.0, False) if abs(w + 1) < floor
                        else (abs(w - 1) / abs(w + 1), True))
    assert s_condition_value(f, z, ClassParams(k=0.5, lam=lam), floor) == expected


# ---- conjugate-symmetric circles ----

def _bits(z):
    return struct.pack("<dd", z.real, z.imag)


def _recorded_points(monkeypatch, name, f, condition, params, grid):
    """(the points at which the per-circle evaluator disk.<name> evaluated the
    condition, the report); the evaluator is called once per circle."""
    seen = []
    calls = []
    evaluate = getattr(gftpoisson.disk, name)

    def recording(table, zs, *args):
        calls.append(len(zs))
        seen.extend(zs)
        return evaluate(table, zs, *args)

    monkeypatch.setattr(gftpoisson.disk, name, recording)
    report = grid_check(f, condition, params, grid)
    assert len(calls) == len(grid.radii)
    return seen, report


@given(radii=st.lists(st.floats(1e-3, 0.999), min_size=1, max_size=3),
       points=st.sampled_from([8, 13, 33, 64, 256]))
@settings(max_examples=60, deadline=None)
def test_grid_circles_are_conjugate_symmetric(radii, points):
    # the R-condition evaluates every point, so it sees the whole point set
    with pytest.MonkeyPatch.context() as mp:
        seen, _ = _recorded_points(mp, "_r_values", IDENTITY, ConditionId.R_COND,
                                   RParams(A=1.0, B=0.0, tau=1.0),
                                   GridSpec(radii=tuple(radii), points_per_circle=points))
    assert len(seen) == len(radii) * points
    step = 2 * math.pi / points
    for i, radius in enumerate(radii):
        circle = seen[i * points:(i + 1) * points]
        for j, z in enumerate(circle):
            if j <= points // 2:
                assert _bits(z) == _bits(cmath.rect(radius, j * step))
            else:
                assert _bits(z) == _bits(circle[points - j].conjugate())


MIRROR_SERIES = dict(REAL_SERIES, I_complex_tau=_image_of(
    RParams(A=1.0, B=-0.5, tau=0.3 + 0.4j), PoissonParams(1.5)))


@pytest.mark.parametrize("points", [8, 13, 64])
@pytest.mark.parametrize("condition", list(ConditionId))
@pytest.mark.parametrize("kind", sorted(MIRROR_SERIES))
def test_only_real_s_and_c_tables_evaluate_half_of_each_circle(monkeypatch, kind,
                                                                condition, points):
    f = MIRROR_SERIES[kind]
    grid = GridSpec(radii=(0.5, 0.9), points_per_circle=points)
    if condition is ConditionId.R_COND:
        name, params = "_r_values", RParams(A=1.0, B=-0.5, tau=0.3 + 0.4j)
    else:
        name, params = "_s_values", ClassParams(k=0.3, lam=0.4)
    seen, report = _recorded_points(monkeypatch, name, f, condition, params, grid)
    if kind == "I_complex_tau" or condition is ConditionId.R_COND:
        assert len(seen) == 2 * points
    else:
        upper = [z for radius in grid.radii for z in _circle(radius, points)[:points // 2 + 1]]
        assert [_bits(z) for z in seen] == [_bits(z) for z in upper]
    assert _report_tuple(report) == _recomputed(f, condition, params, grid)
    # a real series' largest value is first reached in the upper half
    if kind != "I_complex_tau" and condition is not ConditionId.R_COND:
        assert report.argmax_z.imag >= 0
