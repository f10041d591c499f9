import cmath
import hashlib
import math
import random
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gftpoisson import (ClassParams, CoefficientSeq, ConditionId, DomainError,
                        GridSpec, PoissonParams, RParams, SignConvention,
                        TruncationPolicy, coeffs_F, coeffs_G, dumps_canonical,
                        grid_check, run_suite)
import gftpoisson.disk
import gftpoisson.suite
from gftpoisson.disk import DEFAULT_RADII, MAX_POINTS
from gftpoisson.series import _F, _G, ClosedSeries, _image
from gftpoisson.theorems import SPECS, PredicateId

POLICY = TruncationPolicy(eps=1e-12)
IDENTITY = CoefficientSeq(SignConvention.NEGATIVE_TAIL, (0.0,), 0.0)

disk_points = st.complex_numbers(max_magnitude=0.95, allow_nan=False,
                                 allow_infinity=False)


# ---- series evaluation ----

def _num_den(f, z, lam=0.0):
    """(z f'(z), (1-lam) f(z) + lam z f'(z)) at one point, from the Horner
    source and the quotient the grid reads; den is f(z) at lam = 0."""
    disk = gftpoisson.disk
    (num, den), = disk._quotients(disk._horner_values(disk._pair_table(f), [complex(z)]),
                                  lam)
    return num, den


def test_eval_identity_function():
    z = 0.5 + 0.25j
    assert _num_den(IDENTITY, z) == (z, z)
    assert _num_den(IDENTITY, z, 0.3)[1] == pytest.approx(z, rel=1e-15)


def test_eval_one_term_tail():
    # f = z - 0.5 z^2, so z f' = z - z^2
    f = CoefficientSeq(SignConvention.NEGATIVE_TAIL, (0.5,), 0.0)
    num, den = _num_den(f, 0.5)
    assert den == pytest.approx(0.5 - 0.5 * 0.25, rel=1e-15)
    assert num == pytest.approx(0.5 * (1 - 2 * 0.5 * 0.5), rel=1e-15)
    assert _num_den(f, 0.5, 0.4)[1] == pytest.approx(0.6 * den + 0.4 * num, rel=1e-15)


def test_eval_matches_direct_summation():
    f = coeffs_F(PoissonParams(1.0), POLICY)
    z = 0.5
    num, den = _num_den(f, z)
    direct = z - math.fsum(
        b * z ** n for n, b in enumerate(f.coefficients, start=2))
    assert den == pytest.approx(direct, rel=1e-14)
    direct_d = 1 - math.fsum(
        n * b * z ** (n - 1) for n, b in enumerate(f.coefficients, start=2))
    assert num == pytest.approx(z * direct_d, rel=1e-14)
    assert _num_den(f, z, 0.3)[1] == pytest.approx(0.7 * direct + 0.3 * z * direct_d,
                                                   rel=1e-14)


def test_eval_general_tail_adds_terms():
    f = CoefficientSeq(SignConvention.GENERAL_TAIL, (0.5 + 0j,), 0.0)
    assert _num_den(f, 0.5)[1] == pytest.approx(0.5 + 0.5 * 0.25, rel=1e-15)


# ---- conditions on one circle ----

@pytest.mark.parametrize("lam", [0.0, 0.3])
def test_s_condition_of_the_identity_function_is_zero_to_rounding(lam):
    # w = 1 up to one rounding of the lam split or of an off-axis z/z division
    report = grid_check(IDENTITY, ConditionId.S_COND, ClassParams(k=0.5, lam=lam),
                        GridSpec(radii=(0.5, 0.9)))
    assert report.max_value <= 1e-15
    assert (report.violations, report.skipped) == (0, 0)


def test_c_condition_poisson_integral_small_m():
    g = coeffs_G(PoissonParams(0.3), POLICY)
    c = ClassParams(k=1.0, lam=0.0)
    report = grid_check(g, ConditionId.C_COND, c, GridSpec(radii=(0.85,)))
    assert (report.violations, report.skipped) == (0, 0)
    assert report.max_value < c.k


def _weighted(p, member):
    """I(m) on the polynomial z + sum member[n-2] z^n, written out: the
    Poisson weights c_2 = m e^{-m}, c_{n+1} = c_n (m/n) times its coefficients."""
    weights, c = [], p.m * math.exp(-p.m)
    for n in range(2, len(member) + 2):
        weights.append(c)
        c *= p.m / n
    return CoefficientSeq(SignConvention.GENERAL_TAIL,
                          tuple(w * a for w, a in zip(weights, member)), 0.0)


def _image_of(r, p):
    """I applied to the member with a_n = (A-B) tau / n: complex coefficients
    that carry tau's phase, their imaginary parts all zero when tau is real."""
    return _weighted(p, [(r.A - r.B) * r.tau / n for n in range(2, 13)])


def _extremal_image(r, p):
    """I applied to the member with a_n = (A-B)|tau| / n, to n = 12."""
    return _weighted(p, [r.scale / n for n in range(2, 13)])


REAL_SERIES = {"F": coeffs_F(PoissonParams(0.7), POLICY),
               "G": coeffs_G(PoissonParams(0.7), POLICY),
               "I_real_tau": _image_of(RParams(A=1.0, B=-0.5, tau=-1.5),
                                       PoissonParams(1.5))}


@pytest.mark.parametrize("condition", [ConditionId.S_COND, ConditionId.C_COND],
                         ids=["S", "C"])
@pytest.mark.parametrize("kind", sorted(REAL_SERIES))
@given(radius=st.floats(1e-3, 0.999), points=st.integers(8, 64))
@settings(max_examples=30, deadline=None)
def test_condition_conjugation_symmetry(kind, condition, radius, points):
    # real coefficients commute with conjugation at every arithmetic step, so
    # f and z f' at the conjugates of the upper-half points a grid visits are
    # their conjugates, and the report counts each point with its mirror
    evaluate = gftpoisson.disk._horner_values
    circles = []

    def with_conjugates(table, zs):
        values = list(evaluate(table, zs))
        circles.append(len(zs))
        assert list(evaluate(table, [z.conjugate() for z in zs])) == [
            (g.conjugate(), zg.conjugate()) for g, zg in values]
        return values

    f = REAL_SERIES[kind]
    params = ClassParams(k=0.6, lam=0.4)
    grid = GridSpec(radii=(radius,), points_per_circle=points)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gftpoisson.disk, "_horner_values", with_conjugates)
        report = grid_check(f, condition, params, grid)
    assert circles == [points // 2 + 1]
    assert _report_tuple(report) == _recomputed(f, condition, params, grid)


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


@pytest.mark.parametrize("floor", [math.inf, math.nan, True, "1e-12", 0.0, -1.0, 0, 10 ** 400],
                         ids=["inf", "nan", "True", "str", "0.0", "-1.0", "0", "10**400"])
def test_grid_spec_rejects_non_finite_or_bool_floor(floor):
    # an infinite floor skips every point and reads like a pass, and so did
    # 10**400, which compared below inf; True is no 1.0; a floor of nan, 0 or
    # -1 turns the guard off
    with pytest.raises(DomainError) as exc:
        GridSpec(denominator_floor=floor)
    assert str(exc.value) == f"denominator_floor must be a finite positive number, got {floor!r}"


@pytest.mark.parametrize("floor", [5e-324, 1e-12, 1, 1.7976931348623157e308])
def test_grids_accept_the_floors_grid_spec_accepts(floor):
    # |(1-lam) f + lam z f'| is about 0.5 on the circle of radius 0.5
    f = coeffs_F(PoissonParams(0.7), POLICY)
    grid = GridSpec(radii=(0.5,), points_per_circle=8, denominator_floor=floor)
    assert type(grid.denominator_floor) is float and grid.denominator_floor == floor
    report = grid_check(f, ConditionId.S_COND, ClassParams(k=0.5, lam=0.3), grid)
    assert report.skipped == (0 if floor < 0.1 else 8)


@pytest.mark.parametrize("radius", [-math.inf, -0.5, -0.0, 0.0, 1.0,
                                    math.nextafter(1.0, 2.0), math.inf])
def test_grid_spec_rejects_a_radius_outside_the_open_disk(radius):
    # a radius is the one way a point enters a grid, so the open disk's bounds
    # are checked there: 0 and 1 are out, and so is every signed or infinite edge
    with pytest.raises(DomainError) as exc:
        GridSpec(radii=(0.25, radius))
    assert str(exc.value) == f"radii must be real numbers in (0,1), got {(0.25, radius)!r}"


@pytest.mark.parametrize("radius", ["0.5", 0.5 + 0j, True, math.nan])
def test_grid_spec_rejects_a_radius_that_is_no_real_number(radius):
    # like the floor: a string or complex is no radius, whatever it spells
    with pytest.raises(DomainError):
        GridSpec(radii=(0.25, radius))


@pytest.mark.parametrize("radii", [None, 0.5, 1])
def test_grid_spec_refuses_radii_that_are_not_iterable(radii):
    # tuple() raised a TypeError that did not name the input
    with pytest.raises(DomainError) as exc:
        GridSpec(radii=radii)
    assert str(exc.value) == f"radii must be real numbers in (0,1), got {radii!r}"


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


def test_grid_check_huge_floor_skips_everything():
    report = grid_check(IDENTITY, ConditionId.S_COND,
                        ClassParams(k=0.5, lam=0.0),
                        GridSpec(denominator_floor=1e12))
    assert report.skipped == 4 * 256
    assert report.max_value == 0.0
    assert report.violations == 0


@pytest.mark.parametrize("params", [RParams(A=1.0, B=0.0, tau=1.0), None],
                         ids=["RParams", "None"])
@pytest.mark.parametrize("condition", [ConditionId.S_COND, ConditionId.C_COND])
def test_grid_check_refuses_a_record_other_than_class_params(condition, params):
    # a DomainError, so the CLI exits 3, not an AttributeError traceback
    with pytest.raises(DomainError) as exc:
        grid_check(IDENTITY, condition, params, GridSpec())
    assert str(exc.value) == f"params must be a ClassParams, got {params!r}"


@pytest.mark.parametrize("condition", ["C_cond", "S_cond", "R_cond", None,
                                       PredicateId.T1_F_in_S])
def test_grid_check_refuses_a_condition_that_is_not_a_condition_id(condition):
    # "C_cond" was gridded as the S-condition: max 0.397 where C's is 2.34
    f = coeffs_F(PoissonParams(0.5), POLICY)
    with pytest.raises(DomainError) as exc:
        grid_check(f, condition, ClassParams(k=0.5, lam=0.3))
    assert str(exc.value) == f"condition must be a ConditionId, got {condition!r}"


def test_grid_check_counts_violations():
    # one fat tail term pushes the quotient past k on the outer ring
    f = CoefficientSeq(SignConvention.NEGATIVE_TAIL, (0.45,), 0.0)
    c = ClassParams(k=0.05, lam=0.0)
    report = grid_check(f, ConditionId.S_COND, c, GridSpec(radii=(0.9,)))
    assert report.violations > 0
    assert report.max_value > c.k


def test_a_value_that_reaches_k_is_a_violation():
    # the S-condition value does not depend on k, so a k equal to the sampled
    # maximum puts that value exactly on the threshold
    f = coeffs_F(PoissonParams(0.3), POLICY)
    report = grid_check(f, ConditionId.S_COND, ClassParams(k=1.0, lam=0.25))
    assert report.max_value == 0.16197822279497812
    assert report.violations == 0
    at_max = grid_check(f, ConditionId.S_COND, ClassParams(k=report.max_value, lam=0.25))
    assert (at_max.max_value, at_max.argmax_z) == (report.max_value, 0.9)
    assert at_max.violations >= 1


def test_a_nan_value_is_a_violation():
    # the Horner loop overflows to nan at every point; each value compared
    # false with k and with the floors, so the grid read as a clean pass
    f = CoefficientSeq(SignConvention.GENERAL_TAIL, (1e308,) * 6, 0.0)
    grid = GridSpec(radii=(0.9,), points_per_circle=8)
    report = grid_check(f, ConditionId.S_COND, ClassParams(0.5, 0.5), grid)
    assert (report.violations, report.skipped) == (8, 0)
    # the first nan is the maximum, at the first point of the circle
    assert math.isnan(report.max_value)
    assert report.argmax_z == 0.9 + 0j


@pytest.mark.parametrize("f", [[0.1, 0.2], (0.1,), None, 0.5])
def test_grid_check_refuses_a_series_that_is_not_a_coefficient_seq(f):
    # a list raised "'list' object has no attribute 'truncation_order'"
    with pytest.raises(DomainError) as exc:
        grid_check(f, ConditionId.S_COND, ClassParams(k=0.5, lam=0.0))
    assert str(exc.value) == f"f must be a CoefficientSeq, got {f!r}"


@pytest.mark.parametrize("grid", [((0.5,), 64), None, {"radii": (0.5,)}])
def test_grid_check_refuses_a_grid_that_is_not_a_grid_spec(grid):
    with pytest.raises(DomainError) as exc:
        grid_check(IDENTITY, ConditionId.S_COND, ClassParams(k=0.5, lam=0.0), grid)
    assert str(exc.value) == f"grid must be a GridSpec, got {grid!r}"


@pytest.mark.parametrize("points", [8.5, 10.0, True, "16"])
def test_grid_spec_rejects_non_integer_points(points):
    # range() in grid_check needs an int; a bool is no spelling of a count
    with pytest.raises(DomainError):
        GridSpec(points_per_circle=points)


@pytest.mark.parametrize("points", [8, MAX_POINTS])
def test_grid_spec_accepts_both_ends_of_the_count_range(points):
    # construction builds no point, so the cap itself is cheap to accept here
    assert GridSpec(points_per_circle=points).points_per_circle == points


@pytest.mark.parametrize("points", [MAX_POINTS + 1, 10 ** 20])
def test_grid_spec_refuses_a_count_past_the_cap(points):
    # refused at construction, before grid_check builds a point; 10**20 once
    # reached range() there and failed as a numeric error
    with pytest.raises(DomainError) as exc:
        GridSpec(points_per_circle=points)
    assert str(exc.value) == f"need at most {MAX_POINTS} points per circle, got {points}"


def test_grid_check_refuses_a_point_that_rounds_out_of_the_disk():
    # GridSpec accepts a radius one ulp below 1, and cmath.rect rounds point 8
    # of 289 on that circle onto |z| = 1
    grid = GridSpec(radii=(math.nextafter(1.0, 0.0),), points_per_circle=289)
    with pytest.raises(DomainError) as exc:
        grid_check(IDENTITY, ConditionId.S_COND, ClassParams(k=0.5), grid)
    assert str(exc.value) == "evaluation point must satisfy |z| < 1, got |z|=1.0"


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
    """The signed pairs (a_n, n a_n) for n = N down to 2 of f = z + sum a_n z^n:
    a_n = coeff_n, negated for a negative tail, or n times that for z f'."""
    sign = -1 if f.convention is SignConvention.NEGATIVE_TAIL else 1
    pairs = []
    for n, coeff in zip(range(f.truncation_order, 1, -1), reversed(f.coefficients)):
        a = sign * (n * coeff if zfprime else coeff)
        pairs.append((a, n * a))
    return tuple(pairs)


def _horner_pair(pairs, z):
    acc = dacc = 0j
    for coeff, dcoeff in pairs:
        acc = acc * z + coeff
        dacc = dacc * z + dcoeff
    return z + acc * z * z, 1 + dacc * z


def _reference_quotient(table, z, lam):
    """(num, den) = (z f'(z), (1-lam) f(z) + lam num)."""
    fz, dfz = _horner_pair(table, z)
    num = z * dfz
    return num, (1 - lam) * fz + lam * num


def _s_value(table, z, lam, floor):
    if z == 0:
        return 0.0, True
    num, den = _reference_quotient(table, z, lam)
    if abs(den) < floor:
        return 0.0, False
    w = num / den
    wp1 = w + 1
    if abs(wp1) < floor:
        return 0.0, False
    return abs(w - 1) / abs(wp1), True


def _recomputed(f, condition, params, grid):
    """(max, argmax, violations, skipped) from the reference values at every
    one of the grid's points: the first point of the largest value wins ties."""
    table = _reference_table(f, zfprime=condition is ConditionId.C_COND)
    best, argmax, violations, skipped = -math.inf, 0j, 0, 0
    for radius in grid.radii:
        for z in _circle(radius, grid.points_per_circle):
            value, valid = _s_value(table, z, params.lam, grid.denominator_floor)
            if not valid:
                skipped += 1
                continue
            if value > best:
                best, argmax = value, z
            if not value < params.k:
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
        return _extremal_image(r, p)
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
def test_grid_check_equals_the_reference_values(kind, condition, m, scale, k,
                                                lam, r, radii, points, floor_exp):
    f = _series(kind, m, scale, r)
    params = ClassParams(k=k, lam=lam)
    grid = GridSpec(radii=tuple(radii), points_per_circle=points,
                    denominator_floor=10.0 ** floor_exp)
    report = grid_check(f, condition, params, grid)
    assert _report_tuple(report) == _recomputed(f, condition, params, grid)


@given(kind=st.sampled_from(["F", "G", "I", "I_tau", "scaled"]), m=st.floats(1e-3, 10.0),
       scale=st.floats(0.0, 4.0), r=r_params, zfprime=st.booleans(),
       lam=st.floats(0.0, 0.999), z=disk_points)
@settings(max_examples=100, deadline=None)
# at -0+0j den's real part is +0.0 from z + acc z^2 over signed pairs, and
# would be -0.0 from z - acc z^2 over unsigned ones
@example(kind="F", m=1.0, scale=1.0, r=RParams(A=1.0, B=-1.0), zfprime=False,
         lam=0.0, z=complex(-0.0, 0.0))
def test_one_point_horner_is_the_reference_value(kind, m, scale, r, zfprime, lam, z):
    # the bits of num and den at one point, zero signs included
    f = _series(kind, m, scale, r)
    num, den = _reference_quotient(_reference_table(f, zfprime), complex(z), lam)
    disk = gftpoisson.disk
    (got_num, got_den), = disk._quotients(
        disk._horner_values(disk._pair_table(f, zfprime), [complex(z)]), lam)
    assert _bits(got_num) == _bits(num)
    assert _bits(got_den) == _bits(den)


# z f' of z - b z^2 is z - 2b z^2; I_complex_tau's table is complex, so its
# grids evaluate every point
R_COMPLEX_TAU = RParams(A=1.0, B=-0.5, tau=0.3 + 0.4j)
ZFPRIME_SERIES = {
    "one_term": CoefficientSeq(SignConvention.NEGATIVE_TAIL, (0.2,), 0.0),
    "I_complex_tau": _image_of(R_COMPLEX_TAU, PoissonParams(1.5)),
    **{kind: SPECS[pid].series(PoissonParams(2.5), POLICY, R_COMPLEX_TAU)
       for kind, pid in (("F", PredicateId.T1_F_in_S), ("G", PredicateId.T4_G_in_S),
                         ("I", PredicateId.T5_I_in_S))}}


@pytest.mark.parametrize("kind", sorted(ZFPRIME_SERIES))
@given(k=st.floats(1e-3, 1.0), lam=st.floats(0.0, 0.999),
       radii=st.lists(st.floats(0.01, 0.999), min_size=1, max_size=3),
       points=st.sampled_from([8, 13, 64]), floor_exp=st.floats(-14.0, 0.5))
@settings(max_examples=40, deadline=None)
def test_c_grid_is_the_s_grid_of_z_fprime(kind, k, lam, radii, points, floor_exp):
    f = ZFPRIME_SERIES[kind]
    zf = CoefficientSeq(f.convention,
                        tuple(n * a for n, a in enumerate(f.coefficients, 2)), 0.0)
    c = ClassParams(k=k, lam=lam)
    grid = GridSpec(radii=tuple(radii), points_per_circle=points,
                    denominator_floor=10.0 ** floor_exp)
    assert (_report_tuple(grid_check(f, ConditionId.C_COND, c, grid))
            == _report_tuple(grid_check(zf, ConditionId.S_COND, c, grid)))


@pytest.mark.parametrize("points", [64, 9])
@pytest.mark.parametrize("condition", list(ConditionId))
def test_grid_check_with_some_points_skipped_equals_the_reference_values(condition, points):
    # a real table, so the grids visit the upper half with multiplicities;
    # at P = 9 the point j = P//2 has a mirror, at P = 64 it has none
    f = _extremal_image(RParams(A=1.0, B=-1.0, tau=0.3 + 0.4j), PoissonParams(4.0))
    params = ClassParams(k=0.02, lam=0.3)
    grid = GridSpec(radii=(0.5, 0.9), points_per_circle=points, denominator_floor=0.5)
    report = grid_check(f, condition, params, grid)
    assert 0 < report.skipped < 2 * points
    assert report.violations > 0
    assert _report_tuple(report) == _recomputed(f, condition, params, grid)


@pytest.mark.parametrize("condition", list(ConditionId))
def test_grid_check_one_ulp_inside_the_unit_circle(condition):
    f = coeffs_F(PoissonParams(0.5), POLICY)
    params = ClassParams(k=0.7, lam=0.2)
    grid = GridSpec(radii=(math.nextafter(1.0, 0.0),), points_per_circle=64)
    report = grid_check(f, condition, params, grid)
    assert _report_tuple(report) == _recomputed(f, condition, params, grid)


# ---- conjugate-symmetric circles ----

def _bits(z):
    return struct.pack("<dd", z.real, z.imag)


def _recorded_points(monkeypatch, f, condition, params, grid):
    """(the points at which disk._horner_values evaluated the series, the
    report); _horner_values is called once per circle."""
    seen = []
    calls = []
    evaluate = gftpoisson.disk._horner_values

    def recording(table, zs):
        calls.append(len(zs))
        seen.extend(zs)
        return evaluate(table, zs)

    monkeypatch.setattr(gftpoisson.disk, "_horner_values", recording)
    report = grid_check(f, condition, params, grid)
    assert len(calls) == len(grid.radii)
    return seen, report


COMPLEX_ONE_TERM = CoefficientSeq(SignConvention.GENERAL_TAIL, (0.1j,), 0.0)


@given(radii=st.lists(st.floats(1e-3, 0.999), min_size=1, max_size=3),
       points=st.sampled_from([8, 13, 33, 64, 256]))
@settings(max_examples=60, deadline=None)
def test_grid_circles_are_conjugate_symmetric(radii, points):
    # a complex table evaluates every point, so it sees the whole point set
    with pytest.MonkeyPatch.context() as mp:
        seen, _ = _recorded_points(mp, COMPLEX_ONE_TERM, ConditionId.S_COND,
                                   ClassParams(k=0.5, lam=0.0),
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


@pytest.mark.parametrize("f", [IDENTITY, COMPLEX_ONE_TERM], ids=["real", "complex"])
def test_equal_values_keep_the_first_point(monkeypatch, f):
    # the tie-break, first radius and then first angle, with every value equal,
    # on a mirrored grid and on one that evaluates every point; f = 1 and
    # z f' = 3 give w = 3 at lam = 0, and the value |3 - 1|/|3 + 1| = 0.5 exactly
    monkeypatch.setattr(gftpoisson.disk, "_horner_values",
                        lambda table, zs: [(1 + 0j, 3 + 0j)] * len(zs))
    report = grid_check(f, ConditionId.S_COND, ClassParams(k=0.75), GridSpec())
    assert (report.max_value, report.violations, report.skipped) == (0.5, 0, 0)
    assert report.to_json_dict()["argmax"] == [0.25, 0.0]


MIRROR_SERIES = dict(REAL_SERIES, I_complex_tau=_image_of(
    RParams(A=1.0, B=-0.5, tau=0.3 + 0.4j), PoissonParams(1.5)))


@pytest.mark.parametrize("points", [8, 13, 64])
@pytest.mark.parametrize("condition", list(ConditionId))
@pytest.mark.parametrize("kind", sorted(MIRROR_SERIES))
def test_only_real_s_and_c_tables_evaluate_half_of_each_circle(monkeypatch, kind,
                                                                condition, points):
    f = MIRROR_SERIES[kind]
    grid = GridSpec(radii=(0.5, 0.9), points_per_circle=points)
    params = ClassParams(k=0.3, lam=0.4)
    seen, report = _recorded_points(monkeypatch, f, condition, params, grid)
    if kind == "I_complex_tau":
        assert len(seen) == 2 * points
    else:
        upper = [z for radius in grid.radii for z in _circle(radius, points)[:points // 2 + 1]]
        assert [_bits(z) for z in seen] == [_bits(z) for z in upper]
    assert _report_tuple(report) == _recomputed(f, condition, params, grid)
    # a real series' largest value is first reached in the upper half
    if kind != "I_complex_tau":
        assert report.argmax_z.imag >= 0


# ---- closed forms on the disk ----

CLOSED_SERIES = {"F": (_F, coeffs_F), "G": (_G, coeffs_G)}
# the suite's grids: the default circles and the witness circle
AGREEMENT_RADII = DEFAULT_RADII + (0.999,)
# what rounding may add to the truncation's tail: 2^-40 is 4096 ulp of 1, and
# 3.6 times the largest difference seen over 400 such draws, 2.5e-13, in G
# at m = 1e-3, where E - e^{-m}(1 + mz) cancels before the division by m
ROUNDING_ALLOWANCE = 2.0 ** -40


@pytest.mark.parametrize("condition", list(ConditionId), ids=["S", "C"])
@pytest.mark.parametrize("kind", sorted(CLOSED_SERIES))
def test_closed_form_values_agree_with_the_truncated_series(kind, condition):
    # _weight_pass certifies sum_{n>N} n^2 c_n < eps.  Each value weights c_n
    # by at most n^2 (F, z F' and z (z F')' by 1, n and n^2, G, F and z F' by
    # 1/n, 1 and n), so on the disk the whole series and the truncated one
    # differ by less than eps; a C table that dropped the factor n of z f'
    # would differ by about m |z|^2
    series, build = CLOSED_SERIES[kind]
    zfprime = condition is ConditionId.C_COND
    zs = [z for radius in AGREEMENT_RADII for z in _circle(radius, 64)]
    disk = gftpoisson.disk
    rng = random.Random(19)
    for _ in range(40):
        p = PoissonParams(10 ** rng.uniform(-3, 1))
        closed = disk._closed_values(ClosedSeries(series, p), zfprime, zs)
        truncated = disk._horner_values(disk._pair_table(build(p, POLICY), zfprime), zs)
        for z, (g, zg), (tg, tzg) in zip(zs, closed, truncated):
            assert abs(g - tg) <= POLICY.eps + ROUNDING_ALLOWANCE, (p, z)
            assert abs(zg - tzg) <= POLICY.eps + ROUNDING_ALLOWANCE, (p, z)


@pytest.mark.parametrize("condition", list(ConditionId), ids=["S", "C"])
@pytest.mark.parametrize("kind", sorted(CLOSED_SERIES))
def test_closed_form_values_are_conjugate_symmetric(kind, condition):
    # the premise of the mirrored grid: the values at conj(z) are the
    # conjugates of those at z, bit for bit, zero signs included
    series, _ = CLOSED_SERIES[kind]
    zfprime = condition is ConditionId.C_COND
    upper = [z for radius in AGREEMENT_RADII for points in (13, 64)
             for z in _circle(radius, points)[:points // 2 + 1]]
    disk = gftpoisson.disk
    rng = random.Random(23)
    for _ in range(40):
        f = ClosedSeries(series, PoissonParams(10 ** rng.uniform(-3, 1)))
        mirrored = disk._closed_values(f, zfprime, [z.conjugate() for z in upper])
        for z, (g, zg), (mg, mzg) in zip(upper, disk._closed_values(f, zfprime, upper),
                                         mirrored):
            assert (_bits(mg), _bits(mzg)) == (_bits(g.conjugate()), _bits(zg.conjugate())), \
                (f, z)


@pytest.mark.parametrize("condition", list(ConditionId), ids=["S", "C"])
@pytest.mark.parametrize("kind", sorted(CLOSED_SERIES))
def test_closed_grid_matches_the_truncated_grid(kind, condition):
    # one grid through each route, on the two inner circles, where both the
    # maxima and the violation counts agree
    series, build = CLOSED_SERIES[kind]
    p, c = PoissonParams(2.5), ClassParams(k=0.4, lam=0.3)
    grid = GridSpec(radii=(0.25, 0.5))
    closed = grid_check(ClosedSeries(series, p), condition, c, grid)
    truncated = grid_check(build(p, POLICY), condition, c, grid)
    assert closed.max_value == pytest.approx(truncated.max_value, rel=1e-12)
    assert (closed.argmax_z, closed.violations, closed.skipped) == (
        truncated.argmax_z, truncated.violations, truncated.skipped)


@pytest.mark.parametrize("series", [_image, _F.closed, "F", None])
def test_closed_series_refuses_a_series_without_a_closed_form(series):
    with pytest.raises(DomainError) as exc:
        ClosedSeries(series, PoissonParams(1.0))
    assert str(exc.value).startswith("series must be _F or _G, got ")


def test_closed_series_refuses_a_p_that_is_not_poisson_params():
    with pytest.raises(DomainError) as exc:
        ClosedSeries(_F, 1.0)
    assert str(exc.value) == "p must be a PoissonParams, got 1.0"


# ---- the suite's disk grids ----

@pytest.mark.parametrize("holding, failing", [(2, 0), (0, 3), (2, 3)])
def test_suite_grids_failing_draws_on_one_circle(monkeypatch, holding, failing):
    # each holding draw grids F and G on the four default circles, each failing
    # draw the witness circle alone: 8h + f circles of 256 points, of which a
    # closed form, a real series, evaluates the 129 of the upper half. The
    # suite's pole check reads its own binding of _closed_values and is not
    # counted here
    calls = []
    evaluate = gftpoisson.disk._closed_values

    def recording(f, zfprime, zs):
        calls.append(len(zs))
        return evaluate(f, zfprime, zs)

    monkeypatch.setattr(gftpoisson.disk, "_closed_values", recording)
    name, ok, _ = gftpoisson.suite.check_disk_sampling(
        random.Random(0), holding_draws=holding, failing_draws=failing)
    assert (name, ok) == ("disk_sampling", True)
    assert calls == [129] * (8 * holding + failing)


def test_failing_draws_exceed_k_at_the_radial_witness():
    # the point z = 0.999 itself is above k on every draw, for the truncated
    # series and the closed form, and so is the witness circle's maximum; its
    # argmax may lie elsewhere on the circle
    assert gftpoisson.suite._WITNESS_GRID.radii == (0.999,)
    disk = gftpoisson.disk
    rng = random.Random(20)
    for _ in range(200):
        p, c = gftpoisson.suite.draw_t1_failing_radial(rng)
        closed = ClosedSeries(_F, p)
        (num, den), = disk._quotients(disk._closed_values(closed, False, [0.999 + 0j]), c.lam)
        for num, den in ((num, den), _num_den(coeffs_F(p, POLICY), 0.999, c.lam)):
            w = num / den
            assert abs(w - 1) / abs(w + 1) > c.k
        report = grid_check(closed, ConditionId.S_COND, c, gftpoisson.suite._WITNESS_GRID)
        assert report.max_value > c.k


def test_the_pole_check_agrees_with_the_truncated_denominator():
    # the suite reads the sign of D(r) = 1 - e^{-m}[(1-lam)(e^{mr} - 1) +
    # lam((1+mr)e^{mr} - 1)] from F's closed form; the reference is the
    # truncated series' 1 - sum b_n (1-lam+lam n) r^(n-1), whose sign it read before
    r = math.nextafter(0.999, 1.0)
    policy = TruncationPolicy(eps=1e-14)
    rng = random.Random(29)
    signs = []
    for _ in range(2000):
        p = PoissonParams(rng.uniform(1e-3, 10.0))
        lam = rng.uniform(0.0, 0.999)
        d = 1 - math.fsum(b * (1 - lam + lam * n) * r ** (n - 1)
                          for n, b in enumerate(coeffs_F(p, policy).coefficients, 2))
        assert gftpoisson.suite._no_interior_pole(p, lam) is (d > 0), (p, lam)
        signs.append(d > 0)
    assert 200 < sum(signs) < 1800


# (m, k, lam) of run_suite(0)'s ten failing draws, as the truncated pole
# check accepted them
SEED_0_FAILING_DRAWS = (
    "[(0.31848455581595336, 0.08372764289533073, 0.13664612037598953), "
    "(7.330998896554162, 0.19237219964595492, 0.0010034345931382307), "
    "(2.93500694954109, 0.294598867014897, 0.008370833337680655), "
    "(0.6684052649322176, 0.22174185993059256, 0.38755075119525356), "
    "(0.6932150274820884, 0.6056248311594559, 0.2615896102796054), "
    "(1.200373769416478, 0.42689950634411605, 0.13252129219497202), "
    "(0.17724752716753914, 0.0685517396144677, 0.2817496361387012), "
    "(0.7745635081069074, 0.6490786199040862, 0.3255079415341915), "
    "(2.167092976525126, 0.9562876116490702, 0.03784178022601613), "
    "(0.9714903474902553, 0.35321077974882364, 0.12651613506225926)]")


def test_the_suite_accepts_the_same_failing_draws(monkeypatch):
    seen = []
    draw = gftpoisson.suite.draw_t1_failing_radial

    def recording(rng):
        p, c = draw(rng)
        seen.append((p.m, c.k, c.lam))
        return p, c

    monkeypatch.setattr(gftpoisson.suite, "draw_t1_failing_radial", recording)
    run_suite(0)
    assert repr(seen) == SEED_0_FAILING_DRAWS


# sha256 of dumps_canonical(run_suite(seed)), as the truncated grids gave it
SUITE_DIGESTS = (
    "04d5739d58f2ef8504a84b7bd1cae22f937d7b1ad61063704d739f7e260469a7",
    "feba55f005b02bd2f54759083f089149581a2483fe3f7d537333913940326c79",
    "03878723cd569bdfd33e1bc0da87d3fd61b02a9dc7c1d62ccde832093df8c34c",
    "75969d75ecc93ede97091bc85373fc631d43efb15ea22baf11cf66f4a8eb0261",
    "1f4c52cbb68ce641670bedc88a350c772d89203c56c870b1911e811491dbfbbb",
    "69e0888e7497c5f4286b098aa8590b417f52f6f8928e4f92b6087c8bdf806d1c",
    "b3165e67231bd250d12d81c9299bae568652a95f24d100676f550b5d2f6b9161",
    "8d2ca1330a78fc145ba624ee66a49e9f6710dba07d2e72993616e66aa945e09b",
    "a8a7071fcb335041a9941f33b704509e836d95a93cf57e0efad202467d4979f3",
    "72fe097917e8b2fa03faf513dabe13b3f9dfd709637bae77d4563704463ce9d6",
)


@pytest.mark.parametrize("seed", range(10))
def test_run_suite_bytes_do_not_move(seed):
    text = dumps_canonical(run_suite(seed))
    assert hashlib.sha256(text.encode()).hexdigest() == SUITE_DIGESTS[seed]
