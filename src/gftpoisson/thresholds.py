"""Boundary Poisson parameter m* where a predicate flips from Holds to Fails.

A bounded left-hand side (the integral-companion S-conditions) tends to a
known limit as m grows and never exceeds it, in floats too; when that limit
is at most 2k the predicate holds for every m and no margin is evaluated.

Every other predicate has a crossing, and only one, since every left-hand
side increases strictly in m (in exact arithmetic); so the first sign change
the solver finds is m*.  For T1, T2, T3 and T6 the left-hand side is a sum of
products of positive increasing terms.  For T4 write t4 = P(1 - e^-m) - Q g(m)
with g(m) = (1 - e^-m - m e^-m)/m.  Then g'(m) = (e^-m (m^2 + m + 1) - 1)/m^2
<= e^-m, because 1 + m <= e^m.  Where g' >= 0, t4' = P e^-m - Q g' >=
(P - Q) e^-m = 2k e^-m > 0; where g' < 0, t4' > P e^-m > 0.  T5 is scale * t4.

Each margin comes from theorems._margin, 2k minus the row's closed form over
the float m: the float evaluate() reports, so the solver and evaluate agree at
every m.  The solver checks tol, the class and (A, B, tau) once; every m it
builds afterwards is positive and finite by construction, and a cheap guard
raises DomainError should one not be.

Closed-form crossings (a row's root), with W Lambert's principal branch
(Corless et al., "On the Lambert W function", Adv. Comput. Math. 5, 1996):
- T1, T3: P m e^m = 2k at m* = W(2k/P).
- T6: with a = 2k/scale, P m + 2k(1 - e^-m) = a.  Put x = m + (2k - a)/P;
  then P x = 2k e^-x e^{(2k-a)/P}, so x e^x = (2k/P) e^{(2k-a)/P} and
  m* = (a - 2k)/P + W((2k/P) e^{(2k-a)/P}).  P = 2k + Q >= 2k and a > 0, so
  with t = 2k/P <= 1 the argument is below t e^t <= e.
Two margins at m* -+ tol/4 confirm a root.

The T4/T5 Newton start, a proven lower bound on m*, where P = (1-lambda) +
k(1+lambda) and Q = (1-lambda)(1-k), so P - Q = 2k.  With b = 2k/scale
(scale = 1 for T4) the crossing is t4(m*) = b, which exists only below the
limit, b < P; let d = P - b.  Expanding g, t4(m) = P - Q/m + e^-m (Q/m - 2k),
so h(m) = P - t4(m) = Q(1 - e^-m)/m + 2k e^-m decreases, with h(m*) = d.
g >= 0 gives t4 <= P(1 - e^-m) < b below m = -log1p(-b/P).  And 1 - e^-m >=
m/(1+m) gives h(m) > Q/(1+m) >= d for m <= Q/d - 1.  So m* >= max(-log1p(-b/P),
Q/d - 1); the second is near m* when m* is large.  The float error of this
formula is a few ulp times P/d, so it is used only where d > 2^-30 P, and
lowered by 2^-18 of itself.

Newton crossings (a row's root for T2, T4 and T5).  On an increasing concave
f, a Newton step m - f(m)/f'(m) lands at or below the zero of f from any m,
since the tangent lies above f; from below the zero each step is positive
and lands below it again, so the iterates climb monotonically to it.
- T2: m e^m (P m + 2Q') = 2k is the zero of
  phi(m) = log(m (P m + 2Q')/2k) + m, with phi' = 1/m + 1 + P/(P m + 2Q')
  > 0 and phi'' = -1/m^2 - P^2/(P m + 2Q')^2 < 0.  The left-hand side is at
  least 2Q' m, so m* <= m0 = k/Q', a start that needs no W.  With k <= 1,
  Q' = (1-lambda) + k(2+lambda) >= 3k gives m0 <= 1/3, and Q' - P = k gives
  P <= Q', so phi(m0) = m0 + log(1 + P k/(2Q'^2)) <= 1/3 + log(7/6) < 1.  As
  phi' >= 1/m, the first iterate lies in [m0 (1 - phi(m0)), m*], above 0.
  The iteration forms m phi and m phi', never 1/m.
- T4, T5: t4(m*) = b, where t4 = P - h and h(m) = Q(1 - e^-m)/m +
  2k e^-m.  (1 - e^-m)/m is the integral of e^-ms over s in [0, 1], so h is
  convex and decreasing and t4 is concave and increasing: Newton from the
  lower bound above climbs to m*, and where that bound is None so is the
  root.  d/dm (1 - e^-m)/m = -g(m)/m, so the slope t4' = -h' = Q g(m)/m +
  2k e^-m reuses g and brings no new cancellation.  The value b - t4(m) =
  h(m) - d is formed on the smaller side: b - t4(m) where b < d, h(m) - d
  otherwise, so its rounding scales with b or d and not with P.
In floats the value is noise near m*, so the climb stops at the first step
of at most 4e-16 m, positive or not, and a root is None after 16 steps, at
an m that is not a positive normal float or at a slope that is not positive.
Where the start lies below the normal range (the stop rule underflows
there), m* is within a factor 2 of it and the crossing is linear.  For T2
the left-hand side is 2Q' m (1 + O(m)), so m* = (k/Q')(1 - O(m)) is the start
itself to within an ulp; for T4/T5 the float t4 is P m - Q m/2, as g(m) =
m/2 below 1e-8, so m* = b/(P - Q/2) = b/(2k + Q/2).

One outward search finds the bracket.  It probes m - step and then m + step,
from the row's root with step = min(max(tol/4, ulp(root)), root/2), and from
m = 1e-3 with step 5e-4 where the row has no root.  Where the two probes
confirm the root and lie less than tol apart, the root is the answer.
Otherwise the end whose margin has the wrong sign moves outward by a step
that doubles each time, and the probe it leaves becomes the other end, so no
m is probed twice.  A root whose probes cannot show the sign change, as
where the margin rounds to one value over more than tol/2 of m (T5 near its
limit, where m* is large: from about 80 up at the default tol), so costs a
few steps out from its probe.  Below m a probe is never less than half of
the last one rejected; where even the smallest positive double has a margin
<= 0, the crossing lies below every positive float and DomainError is
raised.  The bracket is then closed by ITP (Oliveira & Takahashi, "An
Enhancement of the Bisection Method Average Performance Preserving Minmax
Optimality", ACM TOMS 47(1), 2020): a regula falsi step, truncated toward the
midpoint and projected into a shrinking ball around it, so its worst case
stays within n0 = 1 step of bisection's.  As in Brent's method, no probe
lands closer than tol/4 to either end: a step that closed the bracket far
below tol would leave both ends in the margin's rounding noise.

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
from dataclasses import dataclass

from .criteria import ClassParams, RParams
from .errors import DomainError, InvalidTolerance
from .series import _is_real
# evaluate is not called here, but bench/test_tracer.py wraps it under this name
from .theorems import PredicateId, _margin, evaluate, resolve  # noqa: F401

_TINY_M = 5e-324   # the smallest positive double


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


def _expanded(margin, m: float, step: float) -> tuple:
    """(lo, hi, lo_margin, hi_margin) with lo_margin > 0 >= hi_margin, from
    probes at m - step and m + step, moving the end with the wrong sign outward
    by a step that doubles each time."""
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
        hi, hi_margin = lo, lo_margin
        step *= 2
        lo = max(lo - step, lo * 0.5)
        lo_margin = margin(lo)

    # the margin ends below zero: an unbounded LHS overtakes 2k, and a bounded
    # one reaches its limit, past 2k here, once its vanishing term rounds away
    if hi is None:
        hi = m + step
        hi_margin = margin(hi)
    while hi_margin > 0:
        lo, lo_margin = hi, hi_margin
        step *= 2
        hi += step
        hi_margin = margin(hi)
    return lo, hi, lo_margin, hi_margin


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
        if not 0 < m < math.inf:
            raise DomainError(f"solver probe m = {m!r} is not finite and positive")
        evals += 1
        return _margin(row, m, c, r)

    start = row.root(c, r)
    if start is not None and 0 < start < math.inf:
        # min(max(tol/4, ulp), start/2), but an ulp at 5e-324, where start/2
        # is 0; conditionals, as min and max cost more than the rest here
        step = min_step if min_step < start / 2 else start / 2
        ulp = math.ulp(start)
        step = step if step > ulp else ulp
    else:
        start, step = 1e-3, 5e-4
    lo, hi, lo_margin, hi_margin = _expanded(margin, start, step)
    if lo < start < hi and hi - lo < tol:   # the first two probes confirm it
        return _finite(pid, start, lo, hi, evals)

    # ITP with kappa1 = 0.2 / width, kappa2 = 2, n0 = 1
    width = hi - lo
    j_max = max(math.ceil(math.log2(width) - math.log2(tol)), 0) + 1
    j = 0
    while hi - lo >= tol:
        half = 0.5 * (lo + hi)
        falsi = lo + (hi - lo) * lo_margin / (lo_margin - hi_margin)
        sigma = 1.0 if half >= falsi else -1.0
        delta = 0.2 / width * (hi - lo) ** 2
        target = falsi + sigma * delta if delta <= abs(half - falsi) else half
        radius = math.ldexp(tol, j_max - j - 1) - (hi - lo) / 2
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
