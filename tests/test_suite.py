"""The suite's failure branches: each check reports fail, with its detail, when
one of the routes it reads is made to disagree or gives nan; and run_suite's
refusal of a seed that is no int."""

import functools
import math
import types

import pytest

import gftpoisson.suite as suite
from gftpoisson import DomainError, GridReport, Verdict, run_suite
from gftpoisson.series import _F, SumKind
from gftpoisson.theorems import SPECS, PredicateId


def _run_alone(monkeypatch, check, **draws) -> dict:
    # run_suite over the one check, at a few draws, so the status and detail
    # are the ones run_suite reports
    monkeypatch.setattr(suite, "_CHECKS", (functools.partial(check, **draws),))
    result = run_suite(0)
    assert (result["passed"], result["failed"]) == (0, 1)
    (row,) = result["checks"]
    assert row["status"] == "fail"
    return row


def _margins(monkeypatch, holds):
    """Patch suite._margin to 1 (Holds) on the rows of the pids in holds, -1
    (Fails) on every other row."""
    rows = [SPECS[pid] for pid in holds]
    monkeypatch.setattr(suite, "_margin", lambda row, m, c, r: 1.0 if row in rows else -1.0)


def test_equivalences_fail_where_t3_and_t1_disagree(monkeypatch):
    # every corollary shares its theorem's row, so only T3 against T1 disagrees
    _margins(monkeypatch, [PredicateId.T1_F_in_S])
    row = _run_alone(monkeypatch, suite.check_equivalences, draws=3)
    assert row == {"name": "equivalences", "status": "fail", "detail": "3 verdict mismatches"}


def test_equivalences_fail_where_a_corollary_and_its_theorem_disagree(monkeypatch):
    # T3 and T1 are theorems and agree; each of the six corollaries disagrees
    monkeypatch.setattr(suite, "_verdict", lambda pid, m, c, r=None: (
        Verdict.FAILS if pid is SPECS[pid].corollary else Verdict.HOLDS))
    row = _run_alone(monkeypatch, suite.check_equivalences, draws=2)
    assert row == {"name": "equivalences", "status": "fail", "detail": "12 verdict mismatches"}


@pytest.mark.parametrize("holds", [PredicateId.T2_F_in_C, PredicateId.T6_I_in_C],
                         ids=["T2-T1", "T6-T5"])
def test_inclusions_fail_where_the_stronger_class_holds_alone(monkeypatch, holds):
    # T2 holding without T1, or T6 without T5, is one violation per draw
    _margins(monkeypatch, [holds])
    row = _run_alone(monkeypatch, suite.check_inclusions, draws=4)
    assert row == {"name": "inclusions", "status": "fail", "detail": "4 violations"}


def _grids(monkeypatch, failing: str) -> list:
    """Patch suite.grid_check so that each grid of route failing ("S" for F's
    holding grids, "G" for G's, "witness" for the failing draws') fails and
    every other grid passes; return the (route, m, c) of each grid asked for."""
    seen = []

    def grid_check(f, condition, params, grid=None):
        route = ("witness" if grid is suite._WITNESS_GRID
                 else "S" if f.series is _F else "G")
        seen.append((route, f.p.m, params))
        # a holding grid fails by a violation, a witness grid by a maximum below k
        if route == "witness":
            max_value, violations = (0.0 if route == failing else 2.0), 0
        else:
            max_value, violations = (2.0, 1) if route == failing else (0.0, 0)
        return GridReport(condition, max_value, 0j, violations, 0)

    monkeypatch.setattr(suite, "grid_check", grid_check)
    return seen


def _g(x: float) -> str:
    return "%.17g" % x


@pytest.mark.parametrize("route, label", [("S", "S violation"), ("G", "G violation")])
def test_disk_sampling_fails_on_a_holding_violation(monkeypatch, route, label):
    seen = _grids(monkeypatch, route)
    row = _run_alone(monkeypatch, suite.check_disk_sampling, holding_draws=2, failing_draws=1)
    assert [r for r, *_ in seen] == ["S", "G", "S", "G", "witness"]
    detail = "; ".join(f"{label} at m={_g(m)} k={_g(c.k)} lam={_g(c.lam)}"
                       for r, m, c in seen if r == route)
    assert row == {"name": "disk_sampling", "status": "fail", "detail": detail}
    assert detail.count(label) == 2


def test_disk_sampling_fails_on_a_missing_witness(monkeypatch):
    seen = _grids(monkeypatch, "witness")
    row = _run_alone(monkeypatch, suite.check_disk_sampling, holding_draws=1, failing_draws=2)
    assert [r for r, *_ in seen] == ["S", "G", "witness", "witness"]
    detail = "; ".join(f"missing witness at m={_g(m)} k={_g(c.k)} lam={_g(c.lam)}"
                       for r, m, c in seen if r == "witness")
    assert row == {"name": "disk_sampling", "status": "fail", "detail": detail}
    assert detail.count("missing witness") == 2


# ---- the sampled checks: a nan measure, and a finite disagreement ----

@pytest.mark.parametrize("name, check, patched, value, detail", [
    ("crosschecks", suite.check_crosschecks, "crosscheck",
     lambda pid, p, c, r: math.nan, "worst residual NaN"),
    ("bracket_identity", suite.check_bracket_identity, "t5_lhs",
     lambda p, c, r: math.nan, "worst rel diff NaN"),
    ("identities", suite.check_identities, "partial_shifted_sum",
     lambda p, kind, upto: math.nan, "worst err/allowed NaN"),
], ids=["crosschecks", "bracket_identity", "identities"])
def test_a_nan_measure_fails_its_check(monkeypatch, name, check, patched, value, detail):
    # max(0.0, nan) is 0.0: a fold by max reads a nan measure as a pass
    monkeypatch.setattr(suite, patched, value)
    row = _run_alone(monkeypatch, check, draws=3)
    assert row == {"name": name, "status": "fail", "detail": detail}


def test_identities_fail_where_a_partial_sum_is_off(monkeypatch):
    seen = []
    real = suite.partial_shifted_sum

    def partial_shifted_sum(p, kind, upto):
        partial = real(p, kind, upto) + 1e-6
        seen.append((suite.shifted_exp_sum(p, kind), partial))
        return partial

    monkeypatch.setattr(suite, "partial_shifted_sum", partial_shifted_sum)
    row = _run_alone(monkeypatch, suite.check_identities, draws=2)
    assert len(seen) == 2 * len(SumKind)
    worst = max(abs(closed - partial)
                / max(suite.IDENTITY_ABS_TOL, suite.IDENTITY_REL_TOL * abs(closed))
                for closed, partial in seen)
    assert worst > 1
    assert row == {"name": "identities", "status": "fail",
                   "detail": f"worst err/allowed {_g(worst)}"}


def test_crosschecks_fail_on_a_residual_past_the_tolerance(monkeypatch):
    monkeypatch.setattr(suite, "crosscheck", lambda pid, p, c, r: 2e-9)
    row = _run_alone(monkeypatch, suite.check_crosschecks, draws=2)
    assert row == {"name": "crosschecks", "status": "fail",
                   "detail": "worst residual 2.0000000000000001e-09"}


def test_threshold_fixture_fails_on_an_m_star_off_the_fixture(monkeypatch):
    m_star = suite.THRESHOLD_FIXTURE + 1e-8
    monkeypatch.setattr(suite, "solve_m_star",
                        lambda pid, c, tol: types.SimpleNamespace(m_star=m_star))
    row = _run_alone(monkeypatch, suite.check_threshold_fixture)
    err = m_star - suite.THRESHOLD_FIXTURE
    assert err > suite.THRESHOLD_FIXTURE_TOL
    assert row == {"name": "threshold_fixture", "status": "fail",
                   "detail": f"m_star {_g(m_star)} err {_g(err)}"}


def test_bracket_identity_fails_where_t5_and_scaled_t4_disagree(monkeypatch):
    # |0 - ref| / max(0, |ref|) is 1 for every nonzero ref
    monkeypatch.setattr(suite, "t5_lhs", lambda p, c, r: 0.0)
    row = _run_alone(monkeypatch, suite.check_bracket_identity, draws=3)
    assert row == {"name": "bracket_identity", "status": "fail", "detail": "worst rel diff 1"}


# ---- the seed ----

@pytest.mark.parametrize("seed", [None, [], 1.0, "0", True],
                         ids=["None", "list", "float", "str", "True"])
def test_a_seed_that_is_not_an_int_is_refused(seed):
    # a list raised random's TypeError, and None seeded from the OS
    with pytest.raises(DomainError) as exc:
        run_suite(seed)
    assert str(exc.value) == f"seed must be an int, got {seed!r}"
