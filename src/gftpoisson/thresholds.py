"""Boundary Poisson parameter m* where a predicate flips from Holds to Fails.

A bounded left-hand side (T4, and T5 = scale * T4) rises to the limit
scale * P as m grows.  Its row's gap d = P - 2k/scale (below) decides it:
where d <= 0 the predicate holds for every m and no margin is evaluated.

Every other predicate has a crossing, and only one, since every left-hand
side increases strictly in m (in exact arithmetic); so the first sign change
the solver finds is m*.  For T1, T2, T3 and T6 the left-hand side is a sum of
products of positive increasing terms.  For T4 write t4 = P(1 - e^-m) - Q g(m)
with g(m) = (1 - e^-m - m e^-m)/m.  Then g'(m) = (e^-m (m^2 + m + 1) - 1)/m^2
<= e^-m, because 1 + m <= e^m.  Where g' >= 0, t4' = P e^-m - Q g' >=
(P - Q) e^-m = 2k e^-m > 0; where g' < 0, t4' > P e^-m > 0.

Each margin comes from theorems._margin, 2k minus the row's closed form over
the float m: the float evaluate() reports, so the solver and evaluate agree at
every m, except near a bounded row's limit (below).  The solver checks tol,
the class and (A, B, tau) once; every m it builds afterwards is positive and
finite by construction, and a cheap guard raises DomainError should one not be.

Closed-form crossings (a row's root), with W Lambert's principal branch
(Corless et al., "On the Lambert W function", Adv. Comput. Math. 5, 1996):
- T1, T3: P m e^m = 2k at m* = W(2k/P).
- T6: with a = 2k/scale, P m + 2k(1 - e^-m) = a.  Put x = m + (2k - a)/P;
  then P x = 2k e^-x e^{(2k-a)/P}, so x e^x = (2k/P) e^{(2k-a)/P} and
  m* = (a - 2k)/P + W((2k/P) e^{(2k-a)/P}).  P = 2k + Q >= 2k and a > 0, so
  with t = 2k/P <= 1 the argument is below t e^t <= e.
Two margins at m* -+ tol/4 confirm a root.

The bounded gap, where P = (1-lambda) + k(1+lambda) and Q = (1-lambda)(1-k),
so P - Q = 2k.  With b = 2k/scale the crossing is t4(m*) = b.  Expanding g,
t4(m) = P - Q/m + e^-m (Q/m - 2k), so h(m) = P - t4(m) = Q(1 - e^-m)/m +
2k e^-m decreases to 0, and h(m*) = d.  Near the limit P - b and P - t4(m)
cancel in floats, so neither is formed:
- T4: d = P - 2k = Q.
- T5: where P and b lie a factor 2 or more apart, P - b does not cancel.
  Otherwise, with s = (A - B)|tau| and S = s^2 = (A - B)^2 (re(tau)^2 +
  im(tau)^2), d (P + 2k/s) = P^2 - 4k^2/S =: X.  Every float is an integer
  over a power of two (float.as_integer_ratio), so X = num/den in integers:
  the sign of num decides d > 0, int/int division rounds X correctly, and no
  square root enters.  X < P^2 <= 4 cannot overflow.  P + 2k/s adds positive
  floats, so d = X/(P + 2k/s) is within a few ulp (3.3e-16 relative at worst
  over 3000 draws against 60 digits).
In the form h(m) = d the crossing's relative condition number is O(1): a few
ulp of h or d move m* by a few ulp of m*.  So where d <= b the probes read
h(m) - d (theorems._gap_margin), and two at m* -+ tol/4 show the sign change
while m* stays below about tol/(8 * 2^-53), near 1e5 at the default tol.
Where d > b the margin cancels no more than b - t4(m), and the probes read it.
Where |margin| > BOUNDARY_TOL its float sign is exact (its error is a few ulp
of 2k), so evaluate() reports Holds or Marginal at m* - bracket and Fails or
Marginal at m* + bracket.

Newton crossings (a row's root for T2, T4 and T5).  On an increasing concave
f, a Newton step m - f(m)/f'(m) lands at or below the zero of f from any m,
since the tangent lies above f; from below the zero each step is positive
and lands below it again.  So after one step, taken unconditionally, the
iterates climb monotonically to m*.
- T2: m e^m (P m + 2Q') = 2k is the zero of
  phi(m) = log(m (P m + 2Q')/2k) + m, with phi' = 1/m + 1 + P/(P m + 2Q')
  > 0 and phi'' = -1/m^2 - P^2/(P m + 2Q')^2 < 0.  The left-hand side is at
  least 2Q' m, so m* <= m0 = k/Q', a start that needs no W.  With k <= 1,
  Q' = (1-lambda) + k(2+lambda) >= 3k gives m0 <= 1/3, and Q' - P = k gives
  P <= Q', so phi(m0) = m0 + log(1 + P k/(2Q'^2)) <= 1/3 + log(7/6) < 1.  As
  phi' >= 1/m, the first iterate lies in [m0 (1 - phi(m0)), m*], above 0.
  The iteration forms m phi and m phi', never 1/m.
- T4, T5: t4(m*) = b.  (1 - e^-m)/m is the integral of e^-ms over s in
  [0, 1], so h is convex and decreasing and t4 is concave and increasing.
  d/dm (1 - e^-m)/m = -g(m)/m, so the slope t4' = -h' = Q g(m)/m + 2k e^-m
  reuses g.  The value is formed as the probes form it: b - t4(m) where
  d > b, h(m) - d otherwise.  The start: g >= 0 gives t4 <= P(1 - e^-m) < b
  below m = log(P/d) = log1p(b/d), and 1 - e^-m >= m/(1+m) gives
  h(m) > Q/(1+m) >= d for m <= Q/d - 1, so m* >= max(log1p(b/d), Q/d - 1).
  Where Q g(m*) is below rounding, as at k = 1, its float may lie an ulp
  above m*, which the first step absorbs.
In floats the value is noise near m*, so after the first step the climb stops
at a step of at most 4e-16 m, positive or not, and a root is None after 16
steps, at an m that is not a positive normal float or at a slope that is not
positive.  Where the start lies below the normal range (the stop rule
underflows there), m* is within a factor 2 of it and the crossing is linear.
For T2 the left-hand side is 2Q' m (1 + O(m)), so m* = (k/Q')(1 - O(m)) is
the start itself to within an ulp; for T4/T5 the float t4 is P m - Q m/2, as
g(m) = m/2 below 1e-8, so m* = b/(P - Q/2) = b/(2k + Q/2).

One outward search finds the bracket.  It probes m - step and then m + step,
from the row's root with step = min(max(tol/4, ulp(root)), root/2), and from
m = 1e-3 with step 5e-4 where the row has no root.  Where the two probes
confirm the root and lie less than tol apart, the root is the answer.
Otherwise the end whose margin has the wrong sign moves outward by a step that
doubles each time, and the probe it leaves becomes the other end, so no m is
probed twice.  Below m a probe is never less than half of the last one
rejected; where even the smallest positive double has a margin <= 0, the
crossing lies below every positive float and DomainError is raised.  Above m
no probe passes the largest double; where its margin is still > 0, the
crossing lies past every float and DomainError is raised.
Bisection closes the bracket left where the row has no root, where tol is
near float resolution, or where m* lies past about 1e5.  Its midpoint stays
tol/2 or more from either end, so both ends never sit in the margin's noise.

A tol near float resolution has one limit.  Near a subnormal crossing at
tol = 5e-324, each product in the closed form rounds to a multiple of
5e-324, so the float margin is not monotone in m there and m* -+ bracket may
show no sign change: T5 at k = 5e-324, lambda = 0.3, (A, B, tau) = (1, -1, 1)
has margin 0 at m = 5e-324, 1e-323 at 1e-323 and 0 at 1.5e-323.  The default
tol = 1e-10 is not affected.
"""

from __future__ import annotations

import enum
import math

from .criteria import ClassParams, RParams
from .errors import DomainError, InvalidTolerance
from .series import _is_real, _Record, _shown
# evaluate is not called here, but bench/test_tracer.py wraps it under this name
from .theorems import PredicateId, _gap_margin, _margin, evaluate, resolve  # noqa: F401

_TINY_M = 5e-324   # the smallest positive double
_HUGE_M = 1.7976931348623157e308   # the largest double


class Outcome(enum.Enum):
    FINITE = "finite"
    ALWAYS_HOLDS = "always_holds"


class ThresholdResult(_Record):
    def __init__(self, predicate: str, outcome: Outcome, m_star: float | None,
                 bracket_width: float | None, evaluations: int) -> None:
        self.__dict__.update(predicate=predicate, outcome=outcome, m_star=m_star,
                             bracket_width=bracket_width, evaluations=evaluations)

    def to_json_dict(self) -> dict:
        return {"predicate": self.predicate, "outcome": self.outcome.value,
                "m_star": self.m_star, "bracket": self.bracket_width,
                "evals": self.evaluations}


def _finite(pid: PredicateId, m: float, lo: float, hi: float,
            evals: int) -> ThresholdResult:
    # m may round onto an end of a float-resolution bracket, so the reported
    # half-width reaches the far end and m +- bracket still holds [lo, hi]
    below, above = m - lo, hi - m
    return ThresholdResult(predicate=pid.value, outcome=Outcome.FINITE, m_star=m,
                           bracket_width=below if below > above else above,
                           evaluations=evals)


def _midpoint(lo: float, hi: float) -> float:
    # lo + hi may pass the largest double; their halves, exact there, do not
    m = 0.5 * (lo + hi)
    return m if m < math.inf else 0.5 * lo + 0.5 * hi


def _expanded(margin, m: float, step: float) -> tuple[float, float]:
    """(lo, hi) with margin(lo) > 0 >= margin(hi), from probes at m - step and
    m + step, moving the end with the wrong sign outward by a step that
    doubles each time."""
    # every LHS vanishes as m -> 0+, so a positive margin exists above 0, but
    # for k near the smallest double it may lie below every positive float
    lo = m - step if m > step else _TINY_M
    lo_margin = margin(lo)
    hi = None
    while lo_margin <= 0:
        if lo == _TINY_M:
            raise DomainError(f"the crossing lies below the smallest positive double: "
                              f"the margin at m = {lo!r} is {lo_margin!r}")
        # the rejected m closes the bracket as it is, and no probe below it
        # is less than its half, so a root far above m* is left by halving
        hi = lo
        step *= 2
        lo = lo - step if lo - step > lo * 0.5 else lo * 0.5
        lo_margin = margin(lo)

    # the margin ends below zero: an unbounded LHS overtakes 2k, and a bounded
    # one nears its limit, past 2k here, but maybe past the largest double
    if hi is None:
        hi = m + step if m + step < _HUGE_M else _HUGE_M
        while (hi_margin := margin(hi)) > 0:
            if hi == _HUGE_M:
                raise DomainError(f"the crossing lies past the largest double: "
                                  f"the margin at m = {hi!r} is {hi_margin!r}")
            lo = hi
            step *= 2
            hi = hi + step if hi + step < _HUGE_M else _HUGE_M
    return lo, hi


def solve_m_star(pid: PredicateId, c: ClassParams, r: RParams | None = None,
                 tol: float = 1e-10) -> ThresholdResult:
    """Locate the membership boundary in m for fixed class parameters."""
    if not (_is_real(tol) and math.isfinite(tol) and tol > 0):
        raise InvalidTolerance(f"tol must be finite and positive, got {_shown(tol)}")
    row, c = resolve(pid, c, r)
    d = row.gap(c, r)
    if d is not None and not d > 0:
        return ThresholdResult(predicate=pid.value, outcome=Outcome.ALWAYS_HOLDS,
                               m_star=None, bracket_width=None, evaluations=0)

    evals = 0
    near = d is not None and 2 * d <= c.P   # d <= 2k/scale: the margin cancels

    def margin(m: float) -> float:
        nonlocal evals
        if not 0 < m < math.inf:
            raise DomainError(f"solver probe m = {m!r} is not finite and positive")
        evals += 1
        return _gap_margin(m, c, d) if near else _margin(row, m, c, r)

    start = row.root(c, r, d)
    if start is not None and 0 < start < math.inf:
        # min(max(tol/4, ulp), start/2), but an ulp at 5e-324, where start/2
        # is 0; conditionals, as min and max cost more than the rest here
        step = tol / 4 if tol / 4 < start / 2 else start / 2
        ulp = math.ulp(start)
        step = step if step > ulp else ulp
    else:
        start, step = 1e-3, 5e-4
    lo, hi = _expanded(margin, start, step)
    if lo < start < hi and hi - lo < tol:   # the first two probes confirm it
        return _finite(pid, start, lo, hi, evals)

    while hi - lo >= tol:   # bisection
        m = _midpoint(lo, hi)
        if not lo < m < hi:
            break   # bracket at float resolution
        if margin(m) > 0:
            lo = m
        else:
            hi = m
    return _finite(pid, _midpoint(lo, hi), lo, hi, evals)
