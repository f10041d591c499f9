"""Tests of the 50-digit reference the benchmark checks answers against."""

import mpmath
import pytest
from mpmath import mpf

import reference as ref
import workloads


def point(pid, k, lam=0.0, A=None, B=None, tau=1 + 0j, m=None):
    return {"pid": pid, "m": m, "k": k, "lam": lam, "A": A, "B": B,
            "tau_re": tau.real if A is not None else None,
            "tau_im": tau.imag if A is not None else None}


def test_omega_is_the_suite_threshold_fixture():
    # T1 at k = 1, lambda = 0: P = 2, so m* = W(1) = Omega
    x = point("T1_F_in_S", 1.0)
    assert float(ref.lambert_m_star(x)) == 0.5671432904097838
    assert abs(ref.margin(x, ref.m_star(x))) < mpf("1e-40")


def test_defect_3a_example_has_a_finite_threshold():
    # ROADMAP item 3a: the solver says always_holds here
    x = point("T5_I_in_S", 0.5, 0.0, A=1.0, B=0.0, tau=0.6677 + 0j)
    assert not ref.never_fails(x)
    assert ref.limit(x) > ref.rhs(x)
    m_star = ref.m_star(x)
    assert 50 < m_star < 300
    assert ref.margin(x, 300) < 0 < ref.margin(x, 50)
    assert abs(ref.margin(x, m_star)) < mpf("1e-40")


def test_limit_rule_at_k_one_for_the_g_series():
    # P - 2k = (1 - lambda)(1 - k), so T4 never fails exactly when k = 1
    assert ref.never_fails(point("T4_G_in_S", 1.0, 0.3))
    assert not ref.never_fails(point("T4_G_in_S", 0.999, 0.3))
    assert not ref.never_fails(point("T1_F_in_S", 1.0))   # unbounded


def _weighted_sum(pid, x, m):
    """Sum of w(n) |b_n| over the coefficients the predicate is about, to 60 digits."""
    k, lam = ref._class(x)
    series, cls = pid.split("_")[1], pid.split("_")[3]
    scale = ref._scale(x) if series == "I" else 1

    def term(n):
        b = mpmath.exp(-m) * m ** (n - 1) / mpmath.factorial(n - 1)   # F weights
        if series != "F":
            b /= n                                                     # G, and I(R)/scale
        w = n * ((1 - lam) + k * (1 + lam)) - (1 - lam) * (1 - k)
        return (n * w if cls.startswith("C") else w) * scale * b

    return mpmath.nsum(term, [2, mpmath.inf])


@pytest.mark.parametrize("pid", ref.PREDICATES)
@pytest.mark.parametrize("m", ["0.01", "0.7", "6.5"])
def test_closed_forms_match_the_weighted_coefficient_sums(pid, m):
    x = point(pid, 0.37, 0.21, A=0.6, B=-0.3, tau=0.4 + 0.9j)
    with mpmath.workdps(60):
        m = mpf(m)
        direct = _weighted_sum(pid, x, m)
        lhs = ref.lhs(x, m)
        if pid.split("_")[1] == "F" or pid in ("T3_G_in_C", "C5_G_in_Ck"):
            # the F closed forms sit on the e^m scale: lhs - 2k = e^m (sum - 2k)
            assert mpmath.almosteq(lhs - ref.rhs(x), mpmath.exp(m) * (direct - ref.rhs(x)),
                                   rel_eps=mpf("1e-40"))
        else:
            assert mpmath.almosteq(lhs, direct, rel_eps=mpf("1e-40"))


def test_threshold_check_flags_3a_and_wrong_answers():
    x = point("T5_I_in_S", 0.5, 0.0, A=1.0, B=0.0, tau=0.6677 + 0j)
    always = '{"predicate": "T5_I_in_S", "outcome": "always_holds", "m_star": null}'
    assert workloads.check_threshold(x, always)[0] == workloads.KNOWN_3A
    t1 = point("T1_F_in_S", 1.0)
    good = '{"outcome": "finite", "m_star": 0.56714329043030753}'
    off = '{"outcome": "finite", "m_star": 0.5671433}'
    assert workloads.check_threshold(t1, good)[0] == workloads.OK
    assert workloads.check_threshold(t1, off)[0] == workloads.WRONG
    assert workloads.check_threshold(t1, always.replace("T5_I_in_S", "T1_F_in_S"))[0] \
        == workloads.WRONG


def test_crosscheck_check_flags_a_wrong_verdict_and_residual():
    x = point("T1_F_in_S", 1.0, m=0.3)
    good = ('{"predicate": "T1_F_in_S", "verdict": "Holds", "lhs": 0.80991528454560191, '
            '"rhs": 2, "margin": 1.1900847154543981, "residual": 1e-16, "N": 14}')
    assert workloads.check_crosscheck(x, good)[0] == workloads.OK
    assert workloads.check_crosscheck(x, good.replace("Holds", "Fails"))[0] == workloads.WRONG
    assert workloads.check_crosscheck(x, good.replace("1e-16", "1e-6"))[0] == workloads.WRONG
    assert workloads.check_crosscheck(x, good.replace("0.80991528454560191", "0.81"))[0] \
        == workloads.WRONG


def test_suite_check_flags_a_failing_or_misnamed_check():
    x = workloads.suite_inputs(0)[0]
    good = '{"name": "%s", "status": "pass", "detail": "0 violations"}' % x["check"]
    assert workloads.check_suite(x, good)[0] == workloads.OK
    assert workloads.check_suite(x, good.replace("pass", "fail"))[0] == workloads.WRONG
    assert workloads.check_suite(x, good.replace(x["check"], "other"))[0] == workloads.WRONG


def test_suite_inputs_are_one_fixed_list_rotated_by_the_seed():
    first, second = workloads.suite_inputs(0), workloads.suite_inputs(3)
    assert second == first[3:] + first[:3]
    assert sorted(workloads.SUITE_CHECKS) == sorted({x["check"] for x in first})


def test_inputs_repeat_for_a_seed_and_differ_between_seeds():
    for make, _ in workloads.WORKLOADS.values():
        assert make(5) == make(5)
    assert workloads.crosscheck_inputs(5) != workloads.crosscheck_inputs(6)
