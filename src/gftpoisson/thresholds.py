"""Boundary Poisson parameter m* where a predicate flips from Holds to Fails.

A bounded left-hand side (the integral-companion S-conditions) tends to a
known limit as m grows and never exceeds it, in floats too; when that limit
is at most 2k the predicate holds for every m and no margin is evaluated.

Every other predicate has a crossing.  Each margin comes from
theorems._margin, 2k minus the row's closed form: the float evaluate()
reports, so the solver and evaluate agree at every m.  Where the row gives
the crossing in closed form (P m e^m = 2k at
m* = W(2k/P), Corless et al., "On the Lambert W function", 1996), two margins
at m* -+ tol/4 confirm it.  Otherwise, or if they do not confirm it, m is
doubled from a positive-margin start until the margin is <= 0, and the
bracket is closed by ITP (Oliveira & Takahashi, "An Enhancement of the
Bisection Method Average Performance Preserving Minmax Optimality", ACM TOMS
47(1), 2020): a regula falsi step, truncated toward the midpoint and projected
into a shrinking ball around it, so its worst case stays within n0 = 1 step
of bisection's.  As in Brent's method, no probe lands closer than tol/4 to
either end: a step that closed the bracket far below tol would leave both
ends in the margin's rounding noise.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .criteria import ClassParams, RParams
from .errors import InvalidTolerance
from .series import PoissonParams, _is_real
# evaluate is not called here, but bench/test_tracer.py wraps it under this name
from .theorems import PredicateId, _margin, evaluate, resolve  # noqa: F401

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


def _finite(pid: PredicateId, m: float, lo: float, hi: float,
            evals: int) -> ThresholdResult:
    # m may round onto an end of a float-resolution bracket, so the reported
    # half-width reaches the far end and m +- bracket still holds [lo, hi]
    return ThresholdResult(predicate=pid.value, outcome=Outcome.FINITE, m_star=m,
                           bracket_width=max(m - lo, hi - m), evaluations=evals)


def solve_m_star(pid: PredicateId, c: ClassParams, r: RParams | None = None,
                 tol: float = 1e-10) -> ThresholdResult:
    """Locate the membership boundary in m for fixed class parameters."""
    if not (_is_real(tol) and math.isfinite(tol) and tol > 0):
        raise InvalidTolerance(f"tol must be finite and positive, got {tol!r}")
    row, c = resolve(pid, c, r)
    limit = row.limit(c, r)
    if limit is not None and 2 * c.k - limit >= 0:
        return ThresholdResult(predicate=pid.value, outcome=Outcome.ALWAYS_HOLDS,
                               m_star=None, bracket_width=None, evaluations=0)

    evals = 0
    min_step = tol / 4   # no probe comes closer than this to a known end

    def margin(m: float) -> float:
        nonlocal evals
        evals += 1
        return _margin(row, PoissonParams(m), c, r)

    root = row.root(c, r)
    if root is not None:
        lo, hi = root - min_step, root + min_step
        if 0 < lo and hi - lo < tol and margin(lo) > 0 and margin(hi) <= 0:
            return _finite(pid, root, lo, hi, evals)

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
    hi_margin = margin(hi)
    while hi_margin > 0:
        lo, lo_margin = hi, hi_margin
        hi *= 2
        hi_margin = margin(hi)

    # ITP with kappa1 = 0.2 / width, kappa2 = 2, n0 = 1
    width = hi - lo
    n_max = max(math.ceil(math.log2(width) - math.log2(tol)), 0) + 1
    j = 0
    while hi - lo >= tol:
        half = 0.5 * (lo + hi)
        falsi = lo + (hi - lo) * lo_margin / (lo_margin - hi_margin)
        sigma = 1.0 if half >= falsi else -1.0
        delta = 0.2 / width * (hi - lo) ** 2
        target = falsi + sigma * delta if delta <= abs(half - falsi) else half
        radius = math.ldexp(tol, n_max - j - 1) - (hi - lo) / 2
        m = target if abs(target - half) <= radius else half - sigma * radius
        m = min(max(m, lo + min_step, math.nextafter(lo, hi)),
                hi - min_step, math.nextafter(hi, lo))
        if not lo < m < hi:
            break   # bracket at float resolution
        y = margin(m)
        if y > 0:
            lo, lo_margin = m, y
        else:
            hi, hi_margin = m, y
        j += 1
    return _finite(pid, 0.5 * (lo + hi), lo, hi, evals)
