"""The suite's failure branches: each check reports fail, with its detail, when
one of the routes it reads is made to disagree."""

import functools

import pytest

import gftpoisson.suite as suite
from gftpoisson import GridReport, Verdict, run_suite
from gftpoisson.series import _F
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
    detail = "; ".join(f"{label} at m={_g(m)}" for r, m, _ in seen if r == route)
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
