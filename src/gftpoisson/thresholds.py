"""Boundary Poisson parameter m* where a predicate flips from Holds to Fails.

A bounded left-hand side (the integral-companion S-conditions) tends to a
known limit as m grows and never exceeds it, in floats too; when that limit
is at most 2k the predicate holds for every m and no margin is evaluated.
Every other predicate has a crossing, found by doubling m from a
positive-margin start and then bisecting the bracket.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .criteria import ClassParams, RParams
from .errors import InvalidTolerance
from .series import PoissonParams
from .theorems import PredicateId, evaluate, resolve

_TINY_M = 1e-300


class Outcome(enum.Enum):
    FINITE = "finite"
    ALWAYS_HOLDS = "always_holds"


@dataclass(frozen=True)
class ThresholdResult:
    predicate: str
    outcome: Outcome
    m_star: float | None
    bracket_width: float | None
    evaluations: int

    def to_json_dict(self) -> dict:
        return {"predicate": self.predicate, "outcome": self.outcome.value,
                "m_star": self.m_star, "bracket": self.bracket_width,
                "evals": self.evaluations}


def solve_m_star(pid: PredicateId, c: ClassParams, r: RParams | None = None,
                 tol: float = 1e-10) -> ThresholdResult:
    """Locate the membership boundary in m for fixed class parameters."""
    if not (isinstance(tol, (int, float)) and math.isfinite(tol) and tol > 0):
        raise InvalidTolerance(f"tol must be finite and positive, got {tol!r}")
    row, c = resolve(pid, c, r)
    limit = row.limit(c, r)
    if limit is not None and 2 * c.k - limit >= 0:
        return ThresholdResult(predicate=pid.value, outcome=Outcome.ALWAYS_HOLDS,
                               m_star=None, bracket_width=None, evaluations=0)

    evals = 0

    def margin(m: float) -> float:
        nonlocal evals
        evals += 1
        return evaluate(pid, PoissonParams(m), c, r).margin

    # every LHS vanishes as m -> 0+, so a positive-margin start always exists
    lo = 1e-3
    lo_margin = margin(lo)
    while lo_margin <= 0:
        lo *= 0.5
        if lo < _TINY_M:
            raise InvalidTolerance("could not find a positive-margin start")
        lo_margin = margin(lo)

    # the margin ends below zero: an unbounded LHS overtakes 2k, and a bounded
    # one reaches its limit, past 2k here, once its vanishing term rounds away
    hi = lo * 2
    while margin(hi) > 0:
        lo = hi
        hi *= 2

    while (hi - lo) >= tol:
        mid = 0.5 * (lo + hi)
        if not (lo < mid < hi):
            break   # bracket at float resolution
        if margin(mid) > 0:
            lo = mid
        else:
            hi = mid
    return ThresholdResult(predicate=pid.value, outcome=Outcome.FINITE,
                           m_star=0.5 * (lo + hi), bracket_width=0.5 * (hi - lo),
                           evaluations=evals)
