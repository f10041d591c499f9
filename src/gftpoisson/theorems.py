"""Closed-form membership predicates and their independent series cross-checks.

Each predicate compares a closed-form left-hand side against 2k.  The
cross-check recomputes the same quantity by truncated weighted summation of
the underlying coefficients and reports the absolute difference.  To keep the
comparison stable for large m, both routes are compared on the scale of the
weighted coefficient sum itself (the closed form is mapped onto that scale by
exact algebra), never through a factor of e^m.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable

from .criteria import (ClassParams, MembershipReport, RParams, SumWhich,
                       classify, lemma_sum)
from .disk import ConditionId
from .errors import MissingRParams
from .series import (CoefficientSeq, PoissonParams, SignConvention,
                     TruncationPolicy, _weights, coeffs_F, coeffs_G)

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


# ---- closed-form left-hand sides ----

def t1_lhs(p: PoissonParams, c: ClassParams) -> float:
    if p.m > _EXP_GUARD:
        return math.inf
    return c.P * p.m * math.exp(p.m)


def t2_lhs(p: PoissonParams, c: ClassParams) -> float:
    if p.m > _EXP_GUARD:
        return math.inf
    me = p.m * math.exp(p.m)
    return c.P * p.m * me + 2 * _q_factor(c) * me


def t4_lhs(p: PoissonParams, c: ClassParams) -> float:
    return (c.P * (-math.expm1(-p.m))
            + (1 - c.lam) * (c.k - 1) * _g_tail_ratio(p.m))


def t5_lhs(p: PoissonParams, c: ClassParams, r: RParams) -> float:
    # same bracket as t4_lhs, so the scale identity is exact by construction
    return r.scale * t4_lhs(p, c)


def t6_lhs(p: PoissonParams, c: ClassParams, r: RParams) -> float:
    return r.scale * (c.P * p.m + 2 * c.k * (-math.expm1(-p.m)))


# ---- the six theorems ----

@dataclass(frozen=True)
class PredicateSpec:
    """One theorem, and its corollary at lambda = 0.

    lhs(p, c, r) is the closed form compared against 2k.  sum_scale(p, c, r)
    is the same quantity on the scale of the weighted coefficient sum, mapped
    there by exact algebra rather than through a factor of e^m; the
    cross-check recomputes it as the `weights` sum of sum_coeffs(p, policy, r).
    series(p, policy, r) builds the function the theorem is about (F, G or the
    image I of the extremal R^tau(A,B) member), and condition names its disk
    inequality.  needs_r marks the theorems that take (A, B, tau).  limit(c, r)
    is the value a bounded left-hand side tends to as m grows, computed in the
    floats lhs reaches there, and None for an unbounded one.  root(c, r) is the
    crossing in closed form where there is one: lhs = P m e^m meets 2k at
    m* = W(2k/P), with W Lambert's function; None elsewhere.  It is a float estimate the solver verifies, not a proof.
    """

    theorem: PredicateId
    corollary: PredicateId
    series: Callable[..., CoefficientSeq]
    condition: ConditionId
    weights: SumWhich
    needs_r: bool
    limit: Callable[..., float | None]
    root: Callable[..., float | None]
    lhs: Callable[..., float]
    sum_scale: Callable[..., float]
    sum_coeffs: Callable[..., CoefficientSeq]


def _f_sum_scale_S(p: PoissonParams, c: ClassParams, r: RParams | None) -> float:
    return c.P * p.m + 2 * c.k * (-math.expm1(-p.m))


def _f_sum_scale_C(p: PoissonParams, c: ClassParams, r: RParams | None) -> float:
    m = p.m
    return c.P * m * m + 2 * _q_factor(c) * m + 2 * c.k * (-math.expm1(-m))


def _none(c: ClassParams, r: RParams | None) -> None:
    return None


def _lambert_root(c: ClassParams, r: RParams | None) -> float:
    return _lambert_w0(2 * c.k / c.P)


def _f(p: PoissonParams, policy: TruncationPolicy, r: RParams | None) -> CoefficientSeq:
    return coeffs_F(p, policy)


def _g(p: PoissonParams, policy: TruncationPolicy, r: RParams | None) -> CoefficientSeq:
    return coeffs_G(p, policy)


def _image(p: PoissonParams, policy: TruncationPolicy, r: RParams) -> CoefficientSeq:
    """I applied to the extremal R^tau(A,B) member from one weight pass: the
    products c_n (scale/n) of apply_operator_I on worst_case_R_coeffs, and
    scale times coeffs_G's tail, since |I_n| is scale times G's coefficient."""
    *w, omitted = _weights(p, policy)
    scale = r.scale
    return CoefficientSeq(SignConvention.GENERAL_TAIL,
                          tuple(c * (scale / n) for n, c in enumerate(w, 2)),
                          scale * (2.0 * omitted / (len(w) + 2)), p.m)


_ROWS = (
    PredicateSpec(PredicateId.T1_F_in_S, PredicateId.C1_F_in_Sk, _f,
                  ConditionId.S_COND, SumWhich.S, needs_r=False, limit=_none,
                  root=_lambert_root, lhs=lambda p, c, r: t1_lhs(p, c),
                  sum_scale=_f_sum_scale_S, sum_coeffs=_f),
    PredicateSpec(PredicateId.T2_F_in_C, PredicateId.C2_F_in_Ck, _f,
                  ConditionId.C_COND, SumWhich.C, needs_r=False, limit=_none,
                  root=_none, lhs=lambda p, c, r: t2_lhs(p, c),
                  sum_scale=_f_sum_scale_C, sum_coeffs=_f),
    # G in C has the same weighted sum as F in S (n b_n^G = b_n^F)
    PredicateSpec(PredicateId.T3_G_in_C, PredicateId.C5_G_in_Ck, _g,
                  ConditionId.C_COND, SumWhich.S, needs_r=False, limit=_none,
                  root=_lambert_root, lhs=lambda p, c, r: t1_lhs(p, c),
                  sum_scale=_f_sum_scale_S, sum_coeffs=_f),
    PredicateSpec(PredicateId.T4_G_in_S, PredicateId.C6_G_in_Sk, _g,
                  ConditionId.S_COND, SumWhich.S, needs_r=False,
                  limit=lambda c, r: c.P, root=_none,
                  lhs=lambda p, c, r: t4_lhs(p, c),
                  sum_scale=lambda p, c, r: t4_lhs(p, c), sum_coeffs=_g),
    PredicateSpec(PredicateId.T5_I_in_S, PredicateId.C3_I_in_Sk, _image,
                  ConditionId.S_COND, SumWhich.S, needs_r=True,
                  limit=lambda c, r: r.scale * c.P, root=_none,
                  lhs=t5_lhs, sum_scale=t5_lhs,
                  sum_coeffs=lambda p, policy, r: _image(p, policy, r).magnitudes()),
    # |I_n| = scale * e^{-m} m^{n-1}/n!, so the sum runs over scale * G
    PredicateSpec(PredicateId.T6_I_in_C, PredicateId.C4_I_in_Ck, _image,
                  ConditionId.C_COND, SumWhich.C, needs_r=True, limit=_none,
                  root=_none, lhs=t6_lhs, sum_scale=t6_lhs,
                  sum_coeffs=lambda p, policy, r: coeffs_G(p, policy).scaled(r.scale)),
)

SPECS = {pid: row for row in _ROWS for pid in (row.theorem, row.corollary)}


def resolve(pid: PredicateId, c: ClassParams,
            r: RParams | None = None) -> tuple[PredicateSpec, ClassParams]:
    """The row stating pid and the class parameters it is evaluated at.

    A corollary is its theorem at lambda = 0.
    """
    row = SPECS[pid]
    if row.needs_r and r is None:
        raise MissingRParams(f"{pid.value} requires (A, B, tau)")
    if pid is row.corollary:
        c = ClassParams(c.k, 0.0)
    return row, c


# ---- predicate evaluation ----

def _margin(row: PredicateSpec, p: PoissonParams, c: ClassParams,
            r: RParams | None) -> float:
    """2k minus the row's closed form, at class parameters resolve() returned.

    The float evaluate() reports as its margin; the solver and the suite's
    verdict loops read it without building a report.
    """
    return 2 * c.k - row.lhs(p, c, r)


def evaluate(pid: PredicateId, p: PoissonParams, c: ClassParams,
             r: RParams | None = None) -> MembershipReport:
    """Closed-form membership report for one predicate at one parameter point."""
    row, c = resolve(pid, c, r)
    lhs = row.lhs(p, c, r)
    rhs = 2 * c.k
    margin = rhs - lhs   # _margin's expression, so the two agree bit for bit
    return MembershipReport(predicate=pid.value, verdict=classify(margin),
                            lhs=lhs, rhs=rhs, margin=margin)


# ---- independent cross-check ----

def _crosscheck_detail(pid: PredicateId, p: PoissonParams, c: ClassParams,
                       r: RParams | None,
                       policy: TruncationPolicy) -> tuple[float, int]:
    row, c = resolve(pid, c, r)
    closed = row.sum_scale(p, c, r)
    seq = row.sum_coeffs(p, policy, r)
    return abs(closed - lemma_sum(seq, c, row.weights)), seq.truncation_order


def crosscheck(pid: PredicateId, p: PoissonParams, c: ClassParams,
               r: RParams | None = None,
               policy: TruncationPolicy = TruncationPolicy()) -> float:
    """|closed form - truncated weighted sum| on the weighted-sum scale."""
    return _crosscheck_detail(pid, p, c, r, policy)[0]


def evaluate_with_crosscheck(pid: PredicateId, p: PoissonParams, c: ClassParams,
                             r: RParams | None = None,
                             policy: TruncationPolicy = TruncationPolicy()
                             ) -> MembershipReport:
    """Membership report with the cross-check residual and order filled in."""
    base = evaluate(pid, p, c, r)
    residual, n_top = _crosscheck_detail(pid, p, c, r, policy)
    return MembershipReport(predicate=base.predicate, verdict=base.verdict,
                            lhs=base.lhs, rhs=base.rhs, margin=base.margin,
                            crosscheck_residual=residual, truncation_order=n_top)
