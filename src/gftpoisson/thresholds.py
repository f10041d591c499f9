"""Boundary Poisson parameter m* where a predicate flips from Holds to Fails.

Predicates whose left-hand side grows without bound in m (the F-series and
operator C-conditions) have a unique crossing found by doubling scan plus
bisection.  The bounded ones (the integral-companion S-conditions, whose LHS
tends to a finite limit) are scanned geometrically up to scan_limit; with no
sign change the result is AlwaysHolds, otherwise the first crossing bracket
is bisected.
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
    scan_limit: float | None = None

    def to_json_dict(self) -> dict:
        return {"predicate": self.predicate, "outcome": self.outcome.value,
                "m_star": self.m_star, "bracket": self.bracket_width,
                "evals": self.evaluations}


def solve_m_star(pid: PredicateId, c: ClassParams, r: RParams | None = None,
                 tol: float = 1e-10, scan_limit: float = 50.0) -> ThresholdResult:
    """Locate the membership boundary in m for fixed class parameters."""
    if not (isinstance(tol, (int, float)) and math.isfinite(tol) and tol > 0):
        raise InvalidTolerance(f"tol must be finite and positive, got {tol!r}")
    row, _ = resolve(pid, c, r)

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

    hi = None
    if not row.bounded:
        step = lo * 2
        while margin(step) > 0:
            lo = step
            step *= 2
        hi = step
    else:
        step = lo
        while step < scan_limit:
            step = min(step * 2, scan_limit)
            # strict: a bounded LHS can approach 2k so closely that the float
            # margin rounds to exactly zero without ever crossing
            if margin(step) < 0:
                hi = step
                break
            lo = step
        if hi is None:
            return ThresholdResult(predicate=pid.value, outcome=Outcome.ALWAYS_HOLDS,
                                   m_star=None, bracket_width=None,
                                   evaluations=evals, scan_limit=scan_limit)

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
