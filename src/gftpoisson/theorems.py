"""Closed-form membership predicates and their independent series cross-checks.

Each predicate compares a closed-form left-hand side against 2k.  The
cross-check recomputes it as the weighted sum of |coeff_n| of the theorem's
own series under its own condition's weights (Silverman's criterion: necessary
and sufficient for F and G, sufficient for the general-tail image I) and
reports the absolute difference.  Its terms w(n) |coeff_n| are formed inside
one weight pass, by the row series' own coefficient rule, and it builds no
CoefficientSeq and no tail bound: the same floats, and so the same
residual bit for bit, as summing the |coeff_n| of the series the row builds.
To keep it stable for large m, both routes are compared on the scale of the
weighted sum itself (the closed form is mapped onto that scale by exact
algebra), never through a factor of e^m.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Callable

from .criteria import ClassParams, ConditionId, MembershipReport, RParams, classify
from .errors import DomainError, MissingRParams
# coeffs_F is not called here, but bench/test_tracer.py wraps it under this name
from .series import (PoissonParams, TruncationPolicy,  # noqa: F401
                     _F, _G, _image, _Record, _require, _Series, _shown, coeffs_F)

# math.exp overflows just past 709; beyond this every predicate fails anyway
_EXP_GUARD = 700.0


class PredicateId(enum.Enum):
    T1_F_in_S = "T1_F_in_S"
    T2_F_in_C = "T2_F_in_C"
    T3_G_in_C = "T3_G_in_C"
    T4_G_in_S = "T4_G_in_S"
    T5_I_in_S = "T5_I_in_S"
    T6_I_in_C = "T6_I_in_C"
    C1_F_in_Sk = "C1_F_in_Sk"
    C2_F_in_Ck = "C2_F_in_Ck"
    C3_I_in_Sk = "C3_I_in_Sk"
    C4_I_in_Ck = "C4_I_in_Ck"
    C5_G_in_Ck = "C5_G_in_Ck"
    C6_G_in_Sk = "C6_G_in_Sk"


def _q_factor(c: ClassParams) -> float:
    return 1 + 2 * c.k + c.k * c.lam - c.lam


def _g_tail_ratio(m: float) -> float:
    """(1 - e^{-m} - m e^{-m}) / m, with the removable singularity at m=0."""
    if m < 1e-8:
        return 0.5 * m
    return (-math.expm1(-m) - m * math.exp(-m)) / m


def _lambert_w0(x: float) -> float:
    """Principal branch of Lambert's W for x >= 0, by Halley's iteration.

    Corless et al., "On the Lambert W function", Adv. Comput. Math. 5 (1996).
    From log1p(x) it converges in two to four steps for x in [0, e].
    """
    w = math.log1p(x)
    for _ in range(8):
        ew = math.exp(w)
        f = w * ew - x
        step = f / (ew * (w + 1) - (w + 2) * f / (2 * w + 2))
        w -= step
        if abs(step) <= 4e-16 * w:
            break
    return w


# ---- closed-form left-hand sides, over the float m ----

def _t1(m: float, c: ClassParams, r: RParams | None) -> float:
    if m > _EXP_GUARD:
        return math.inf
    return c.P * m * math.exp(m)


def _t2(m: float, c: ClassParams, r: RParams | None) -> float:
    if m > _EXP_GUARD:
        return math.inf
    me = m * math.exp(m)
    return c.P * m * me + 2 * _q_factor(c) * me


def _t4(m: float, c: ClassParams, r: RParams | None) -> float:
    return c.P * (-math.expm1(-m)) - c.Q * _g_tail_ratio(m)


def _t5(m: float, c: ClassParams, r: RParams) -> float:
    # scale times _t4's float, so the scale identity is exact by construction
    return r.scale * _t4(m, c, r)


def _t6(m: float, c: ClassParams, r: RParams) -> float:
    lhs = _f_sum_scale_S(m, c, r)
    if lhs == math.inf:
        # P m overflows, from m = MAX/P on, where 2k(1 - e^-m) is below its
        # ulp; a scale below 1 can bring the product back under the largest double
        return 2.0 * (r.scale * (c.P * (0.5 * m)))
    return r.scale * lhs


def t1_lhs(p: PoissonParams, c: ClassParams) -> float:
    return _t1(_require(p, PoissonParams, "p").m, _require(c, ClassParams, "c"), None)


def t4_lhs(p: PoissonParams, c: ClassParams) -> float:
    return _t4(_require(p, PoissonParams, "p").m, _require(c, ClassParams, "c"), None)


def t5_lhs(p: PoissonParams, c: ClassParams, r: RParams) -> float:
    # t4_lhs refuses a p or c of the wrong kind before r is read
    lhs = t4_lhs(p, c)
    return _require(r, RParams, "r").scale * lhs


# ---- the six theorems ----

class PredicateSpec(_Record):
    """One theorem, and its corollary at lambda = 0.

    lhs(m, c, r) is the closed form compared against 2k, over the float m: the
    public t1_lhs, t4_lhs and t5_lhs pass it p.m, and the solver calls it on
    the m it builds without wrapping each in a PoissonParams.  series is the
    function the theorem is about (F, G or the image I of the extremal
    R^tau(A,B) member): series(p, policy, r) builds it, and
    series.weighted_sum(p, policy, r, c, c_weights) sums its weighted terms
    w(n) |coeff_n|, formed in the same weight pass, with no tail bound.
    condition names its disk inequality, S or C.  sum_scale(m, c, r) is lhs on
    the scale of the weighted coefficient sum, mapped there by exact algebra
    rather than through a factor of e^m; the cross-check recomputes it as that
    sum under the condition's weights.  needs_r, set at construction, marks
    the theorems that take (A, B, tau): those about the I image.
    gap(c, r) is d = P - 2k/scale, by which a bounded left-hand side's limit
    scale * P exceeds 2k, over scale (scale = 1 for T4), within a few ulp of
    its exact value and at most 0 where that is, and None for an unbounded
    row.  root(c, r, d) is the crossing of every row that has one, given its
    gap: in closed form through Lambert's W for T1, T3 and T6, by Newton's
    iteration for T2, T4 and T5; None where that iteration does not converge.
    The solver confirms a root with two margins before it relies on it.  The
    thresholds module derives them.
    """

    def __init__(self, theorem: PredicateId, corollary: PredicateId, series: _Series,
                 condition: ConditionId, gap: Callable[..., float | None],
                 root: Callable[..., float | None], lhs: Callable[..., float],
                 sum_scale: Callable[..., float]) -> None:
        self.__dict__.update(theorem=theorem, corollary=corollary, series=series,
                             condition=condition, gap=gap, root=root, lhs=lhs,
                             sum_scale=sum_scale, needs_r=series is _image)


def _f_sum_scale_S(m: float, c: ClassParams, r: RParams | None) -> float:
    return c.P * m + 2 * c.k * (-math.expm1(-m))


def _f_sum_scale_C(m: float, c: ClassParams, r: RParams | None) -> float:
    return c.P * m * m + 2 * _q_factor(c) * m + 2 * c.k * (-math.expm1(-m))


def _none(c: ClassParams, r: RParams | None) -> None:
    return None


# ---- closed-form crossings (derived in thresholds) ----

def _lambert_root(c: ClassParams, r: RParams | None, d: None) -> float:
    return _lambert_w0(2 * c.k / c.P)


def _t6_root(c: ClassParams, r: RParams, d: None) -> float:
    a, two_k, p = 2 * c.k / r.scale, 2 * c.k, c.P
    if a == math.inf:
        # 2k/scale overflows, as P m does in _t6; over b = 2k/P the crossing
        # b/scale - b + W(b e^{b - b/scale}) may still be a double
        b = two_k / p
        a = b / r.scale
        return (a - b) + _lambert_w0(b * math.exp(b - a))
    return (a - two_k) / p + _lambert_w0(two_k / p * math.exp((two_k - a) / p))


def _t5_gap(c: ClassParams, r: RParams) -> float:
    """P - 2k/s with s = (A - B)|tau|; where the two cancel, from P^2 - 4k^2/S,
    S = s^2, exact over the integer ratios of the inputs (see thresholds)."""
    p, b = c.P, 2 * c.k / r.scale
    if abs(2 * (p - b)) >= p:
        return p - b   # P and 2k/s a factor 2 or more apart: no cancellation
    kn, kd = c.k.as_integer_ratio()
    ln, ld = c.lam.as_integer_ratio()
    an, ad = r.A.as_integer_ratio()
    bn, bd = r.B.as_integer_ratio()
    xn, xd = r.tau.real.as_integer_ratio()
    yn, yd = r.tau.imag.as_integer_ratio()
    # P = pn/(ld kd), A - B = u/(ad bd), |tau|^2 = (v^2 + w^2)/(xd yd)^2
    pn, u, v, w = (ld - ln) * kd + kn * (ld + ln), an * bd - bn * ad, xn * yd, yn * xd
    t, pu, e = v * v + w * w, pn * u, 2 * kn * ld * ad * bd * xd * yd
    num = pu * pu * t - e * e   # P^2 S - 4k^2 times (ld kd ad bd xd yd)^2
    if num <= 0:
        return 0.0
    return num / ((ld * kd * u) ** 2 * t) / (p + b)


def _gap_margin(m: float, c: ClassParams, d: float) -> float:
    # h(m) - d = b - t4(m), h(m) = Q(1 - e^-m)/m + 2k e^-m: the sign of a
    # bounded margin near the limit, where P - h(m) would cancel
    return c.Q * -math.expm1(-m) / m + 2 * c.k * math.exp(-m) - d


# Newton's iterations for T2, T4 and T5 (derived in thresholds)
_NEWTON_STEPS = 16
_MIN_NORMAL = 2.2250738585072014e-308   # the smallest positive normal double


def _newton(m: float, value_slope: Callable[[float], tuple[float, float]]
            ) -> float | None:
    """Step by value/slope from any m to at most m*, then climb by such steps.

    Every exact step from below m* is positive and lands at or below m*, so the
    climb stops once a step is at most 4e-16 m, as _lambert_w0 does; a step at
    or below 0 is the rounding noise of value near m*.  None where it does not
    converge, or meets an m that is not a positive normal float or a slope
    that is not positive.
    """
    for i in range(_NEWTON_STEPS):
        if not _MIN_NORMAL <= m < math.inf:
            return None
        value, slope = value_slope(m)
        if not slope > 0:
            return None
        step = value / slope
        if i and step <= 4e-16 * m:
            return m
        m += step
    return None


def _t2_root(c: ClassParams, r: RParams | None, d: None) -> float | None:
    # value -m phi(m) and slope m phi'(m), so a tiny m never forms 1/m
    p, q, two_k = c.P, _q_factor(c), 2 * c.k

    def value_slope(m: float) -> tuple[float, float]:
        s = p * m + 2 * q
        return -m * (math.log(m / two_k * s) + m), 1 + m + p * m / s

    m = c.k / q   # >= m*
    if m < _MIN_NORMAL:
        return m   # m* = m (1 - O(m)): within an ulp this close to 0
    return _newton(m, value_slope)


def _bounded_root(c: ClassParams, b: float, d: float) -> float | None:
    # t4(m) = b, with t4' = -h' = Q g(m)/m + 2k e^-m; b - t4(m) = h(m) - d
    # is formed on the smaller side, b or d, which carries the smaller rounding
    p, q, two_k = c.P, c.Q, 2 * c.k
    start = max(math.log1p(b / d), q / d - 1)   # log1p(b/d) = log(P/d)
    if start < _MIN_NORMAL:
        return b / (two_k + 0.5 * q)   # t4(m) = (P - Q/2) m this close to 0
    near = 2 * d <= p

    def value_slope(m: float) -> tuple[float, float]:
        value = _gap_margin(m, c, d) if near else b - _t4(m, c, None)
        return value, q * _g_tail_ratio(m) / m + two_k * math.exp(-m)

    return _newton(start, value_slope)


def _t4_root(c: ClassParams, r: RParams | None, d: float) -> float | None:
    return _bounded_root(c, 2 * c.k, d)


def _t5_root(c: ClassParams, r: RParams, d: float) -> float | None:
    return _bounded_root(c, 2 * c.k / r.scale, d)


_ROWS = (
    PredicateSpec(PredicateId.T1_F_in_S, PredicateId.C1_F_in_Sk, _F,
                  ConditionId.S_COND, gap=_none,
                  root=_lambert_root, lhs=_t1, sum_scale=_f_sum_scale_S),
    PredicateSpec(PredicateId.T2_F_in_C, PredicateId.C2_F_in_Ck, _F,
                  ConditionId.C_COND, gap=_none,
                  root=_t2_root, lhs=_t2, sum_scale=_f_sum_scale_C),
    PredicateSpec(PredicateId.T3_G_in_C, PredicateId.C5_G_in_Ck, _G,
                  ConditionId.C_COND, gap=_none,
                  root=_lambert_root, lhs=_t1, sum_scale=_f_sum_scale_S),
    PredicateSpec(PredicateId.T4_G_in_S, PredicateId.C6_G_in_Sk, _G,
                  ConditionId.S_COND, gap=lambda c, r: c.Q,
                  root=_t4_root, lhs=_t4, sum_scale=_t4),
    PredicateSpec(PredicateId.T5_I_in_S, PredicateId.C3_I_in_Sk, _image,
                  ConditionId.S_COND, gap=_t5_gap,
                  root=_t5_root, lhs=_t5, sum_scale=_t5),
    PredicateSpec(PredicateId.T6_I_in_C, PredicateId.C4_I_in_Ck, _image,
                  ConditionId.C_COND, gap=_none,
                  root=_t6_root, lhs=_t6, sum_scale=_t6),
)

SPECS = {pid: row for row in _ROWS for pid in (row.theorem, row.corollary)}


def resolve(pid: PredicateId, c: ClassParams,
            r: RParams | None = None) -> tuple[PredicateSpec, ClassParams]:
    """The row stating pid and the class parameters it is evaluated at.

    A corollary is its theorem at lambda = 0.  Each entry that takes a
    predicate passes its records here first, so a pid, c or r of the wrong
    kind is refused by name with DomainError; the entries refuse a p or
    policy of the wrong kind next, by name too.
    """
    try:
        row = SPECS[pid]
    except (KeyError, TypeError):   # not a PredicateId, or not even hashable
        raise DomainError(f"predicate must be a PredicateId, got {_shown(pid)}") from None
    _require(c, ClassParams, "c")
    if not (r is None or isinstance(r, RParams)):
        raise DomainError(f"r must be an RParams or None, got {_shown(r)}")
    if row.needs_r and r is None:
        raise MissingRParams(f"{pid.value} requires (A, B, tau)")
    if pid is row.corollary:
        c = ClassParams(c.k, 0.0)
    return row, c


# ---- predicate evaluation ----

def _margin(row: PredicateSpec, m: float, c: ClassParams,
            r: RParams | None) -> float:
    """2k minus the row's closed form, at class parameters resolve() returned.

    The float evaluate() reports as its margin; the solver and the suite's
    verdict loops read it without building a report.
    """
    return 2 * c.k - row.lhs(m, c, r)


def _report(pid: PredicateId, row: PredicateSpec, m: float, c: ClassParams,
            r: RParams | None, residual: float | None = None,
            n_top: int | None = None) -> MembershipReport:
    lhs = row.lhs(m, c, r)
    rhs = 2 * c.k
    margin = rhs - lhs   # _margin's expression, so the two agree bit for bit
    return MembershipReport(predicate=pid.value, verdict=classify(margin),
                            lhs=lhs, rhs=rhs, margin=margin,
                            crosscheck_residual=residual, truncation_order=n_top)


def evaluate(pid: PredicateId, p: PoissonParams, c: ClassParams,
             r: RParams | None = None) -> MembershipReport:
    """Closed-form membership report for one predicate at one parameter point."""
    row, c = resolve(pid, c, r)
    return _report(pid, row, _require(p, PoissonParams, "p").m, c, r)


# ---- independent cross-check ----

def _crosscheck_detail(row: PredicateSpec, p: PoissonParams, c: ClassParams,
                       r: RParams | None,
                       policy: TruncationPolicy) -> tuple[float, int]:
    """The residual and truncation order, at class parameters resolve() returned."""
    closed = row.sum_scale(_require(p, PoissonParams, "p").m, c, r)
    total, n_top = row.series.weighted_sum(p, _require(policy, TruncationPolicy, "policy"),
                                           r, c, row.condition is ConditionId.C_COND)
    return abs(closed - total), n_top


def crosscheck(pid: PredicateId, p: PoissonParams, c: ClassParams,
               r: RParams | None = None,
               policy: TruncationPolicy = TruncationPolicy()) -> float:
    """|closed form - truncated weighted sum| on the weighted-sum scale."""
    row, c = resolve(pid, c, r)
    return _crosscheck_detail(row, p, c, r, policy)[0]


def evaluate_with_crosscheck(pid: PredicateId, p: PoissonParams, c: ClassParams,
                             r: RParams | None = None,
                             policy: TruncationPolicy = TruncationPolicy()
                             ) -> MembershipReport:
    """Membership report with the cross-check residual and order filled in."""
    row, c = resolve(pid, c, r)
    residual, n_top = _crosscheck_detail(row, p, c, r, policy)
    return _report(pid, row, p.m, c, r, residual, n_top)
