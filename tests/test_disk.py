import cmath
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gftpoisson import (ClassParams, CoefficientSeq, ConditionId, DomainError,
                        GridSpec, PoissonParams, RParams, SignConvention,
                        TruncationPolicy, apply_operator_I, c_condition_value,
                        coeffs_F, coeffs_G, eval_deriv, eval_series,
                        grid_check, r_condition_value, s_condition_value,
                        worst_case_R_coeffs)
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


@given(z=disk_points)
@settings(max_examples=100)
def test_s_condition_conjugation_symmetry(z):
    # real coefficients commute with conjugation at every arithmetic step
    f = coeffs_F(PoissonParams(0.7), POLICY)
    c = ClassParams(k=0.6, lam=0.4)
    v1, ok1 = s_condition_value(f, z, c)
    v2, ok2 = s_condition_value(f, z.conjugate(), c)
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


# ---- grid reports against the public pointwise values ----

def _recomputed(f, condition, params, grid):
    """(max, argmax, violations, skipped) from the public condition values at
    the grid's points: the first point of the largest value wins ties."""
    value_at = {ConditionId.S_COND: s_condition_value,
                ConditionId.C_COND: c_condition_value,
                ConditionId.R_COND: r_condition_value}[condition]
    threshold = 1.0 if condition is ConditionId.R_COND else params.k
    best, argmax, violations, skipped = -math.inf, 0j, 0, 0
    step = 2 * math.pi / grid.points_per_circle
    for radius in grid.radii:
        for j in range(grid.points_per_circle):
            z = cmath.rect(radius, j * step)
            value, valid = value_at(f, z, params, grid.denominator_floor)
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
    return coeffs_F(p, POLICY).scaled(scale)


r_params = st.builds(
    lambda b, gap, rho, theta: RParams(A=min(1.0, b + gap), B=b,
                                       tau=cmath.rect(rho, theta)),
    st.floats(-1.0, 0.9), st.floats(0.05, 1.0), st.floats(0.05, 2.0),
    st.floats(0.0, 2 * math.pi))


@given(kind=st.sampled_from(["F", "G", "I", "scaled"]),
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


@pytest.mark.parametrize("condition", list(ConditionId))
def test_grid_check_with_some_points_skipped_equals_public_values(condition):
    r = RParams(A=1.0, B=-1.0, tau=0.3 + 0.4j)
    f = apply_operator_I(worst_case_R_coeffs(r, 12), PoissonParams(4.0))
    params = r if condition is ConditionId.R_COND else ClassParams(k=0.4, lam=0.6)
    grid = GridSpec(radii=(0.5, 0.9), points_per_circle=64, denominator_floor=0.8)
    report = grid_check(f, condition, params, grid)
    assert 0 < report.skipped < 128
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
