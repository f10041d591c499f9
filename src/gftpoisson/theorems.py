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
                       classify, lemma_sum, worst_case_R_coeffs)
from .disk import ConditionId
from .errors import MissingRParams
from .series import (CoefficientSeq, PoissonParams, TruncationPolicy,
                     apply_operator_I, choose_truncation, coeffs_F, coeffs_G)

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


def _p_factor(c: ClassParams) -> float:
    return (1 - c.lam) + c.k * (1 + c.lam)


def _q_factor(c: ClassParams) -> float:
    return 1 + 2 * c.k + c.k * c.lam - c.lam


def _g_tail_ratio(m: float) -> float:
    """(1 - e^{-m} - m e^{-m}) / m, with the removable singularity at m=0."""
    if m < 1e-8:
        return 0.5 * m
    return (-math.expm1(-m) - m * math.exp(-m)) / m


# ---- closed-form left-hand sides ----

def t1_lhs(p: PoissonParams, c: ClassParams) -> float:
    if p.m > _EXP_GUARD:
        return math.inf
    return _p_factor(c) * p.m * math.exp(p.m)


def t2_lhs(p: PoissonParams, c: ClassParams) -> float:
    if p.m > _EXP_GUARD:
        return math.inf
    me = p.m * math.exp(p.m)
    return _p_factor(c) * p.m * me + 2 * _q_factor(c) * me


def t4_lhs(p: PoissonParams, c: ClassParams) -> float:
    return (_p_factor(c) * (-math.expm1(-p.m))
            + (1 - c.lam) * (c.k - 1) * _g_tail_ratio(p.m))


def t5_lhs(p: PoissonParams, c: ClassParams, r: RParams) -> float:
    # same bracket as t4_lhs, so the scale identity is exact by construction
    return r.scale * t4_lhs(p, c)


def t6_lhs(p: PoissonParams, c: ClassParams, r: RParams) -> float:
    return r.scale * (_p_factor(c) * p.m + 2 * c.k * (-math.expm1(-p.m)))


# ---- the six theorems ----

@dataclass(frozen=True)
class PredicateSpec:
    """One theorem, and its corollary at lambda = 0.

    lhs(p, c, r) is the closed form compared against 2k.  sum_scale(p, c, r)
    is the same quantity on the scale of the weighted coefficient sum, mapped
    there by exact algebra rather than through a factor of e^m; the
    cross-check recomputes it as the `weights` sum of sum_coeffs(p, policy, r).
    series ("F", "G" or "I") and condition name the function and the disk
    inequality the theorem is about.  needs_r marks the theorems that take
    (A, B, tau).  limit(c, r) is the value a bounded left-hand side tends to
    as m grows, computed in the floats lhs reaches there, and None for an
    unbounded one.
    """

    theorem: PredicateId
    corollary: PredicateId
    series: str
    condition: ConditionId
    weights: SumWhich
    needs_r: bool
    limit: Callable[..., float | None]
    lhs: Callable[..., float]
    sum_scale: Callable[..., float]
    sum_coeffs: Callable[..., CoefficientSeq]


def _f_sum_scale_S(p: PoissonParams, c: ClassParams, r: RParams | None) -> float:
    return _p_factor(c) * p.m + 2 * c.k * (-math.expm1(-p.m))


def _f_sum_scale_C(p: PoissonParams, c: ClassParams, r: RParams | None) -> float:
    m = p.m
    return _p_factor(c) * m * m + 2 * _q_factor(c) * m + 2 * c.k * (-math.expm1(-m))


def _unbounded(c: ClassParams, r: RParams | None) -> None:
    return None


def _image_magnitudes(p: PoissonParams, policy: TruncationPolicy,
                      r: RParams) -> CoefficientSeq:
    """Coefficient magnitudes of I applied to the extremal R^tau(A,B) member."""
    worst = worst_case_R_coeffs(r, choose_truncation(p, policy))
    return apply_operator_I(worst, p).magnitudes()


_ROWS = (
    PredicateSpec(PredicateId.T1_F_in_S, PredicateId.C1_F_in_Sk, "F",
                  ConditionId.S_COND, SumWhich.S, needs_r=False, limit=_unbounded,
                  lhs=lambda p, c, r: t1_lhs(p, c), sum_scale=_f_sum_scale_S,
                  sum_coeffs=lambda p, policy, r: coeffs_F(p, policy)),
    PredicateSpec(PredicateId.T2_F_in_C, PredicateId.C2_F_in_Ck, "F",
                  ConditionId.C_COND, SumWhich.C, needs_r=False, limit=_unbounded,
                  lhs=lambda p, c, r: t2_lhs(p, c), sum_scale=_f_sum_scale_C,
                  sum_coeffs=lambda p, policy, r: coeffs_F(p, policy)),
    # G in C has the same weighted sum as F in S (n b_n^G = b_n^F)
    PredicateSpec(PredicateId.T3_G_in_C, PredicateId.C5_G_in_Ck, "G",
                  ConditionId.C_COND, SumWhich.S, needs_r=False, limit=_unbounded,
                  lhs=lambda p, c, r: t1_lhs(p, c), sum_scale=_f_sum_scale_S,
                  sum_coeffs=lambda p, policy, r: coeffs_F(p, policy)),
    PredicateSpec(PredicateId.T4_G_in_S, PredicateId.C6_G_in_Sk, "G",
                  ConditionId.S_COND, SumWhich.S, needs_r=False,
                  limit=lambda c, r: _p_factor(c), lhs=lambda p, c, r: t4_lhs(p, c),
                  sum_scale=lambda p, c, r: t4_lhs(p, c),
                  sum_coeffs=lambda p, policy, r: coeffs_G(p, policy)),
    PredicateSpec(PredicateId.T5_I_in_S, PredicateId.C3_I_in_Sk, "I",
                  ConditionId.S_COND, SumWhich.S, needs_r=True,
                  limit=lambda c, r: r.scale * _p_factor(c),
                  lhs=t5_lhs, sum_scale=t5_lhs, sum_coeffs=_image_magnitudes),
    # |I_n| = scale * e^{-m} m^{n-1}/n!, so the sum runs over scale * G
    PredicateSpec(PredicateId.T6_I_in_C, PredicateId.C4_I_in_Ck, "I",
                  ConditionId.C_COND, SumWhich.C, needs_r=True, limit=_unbounded,
                  lhs=t6_lhs, sum_scale=t6_lhs,
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

def evaluate(pid: PredicateId, p: PoissonParams, c: ClassParams,
             r: RParams | None = None) -> MembershipReport:
    """Closed-form membership report for one predicate at one parameter point."""
    row, c = resolve(pid, c, r)
    lhs = row.lhs(p, c, r)
    rhs = 2 * c.k
    margin = rhs - lhs
    return MembershipReport(predicate=pid.value, verdict=classify(margin),
                            lhs=lhs, rhs=rhs, margin=margin)


# ---- independent cross-check ----

def _crosscheck_detail(pid: PredicateId, p: PoissonParams, c: ClassParams,
                       r: RParams | None,
                       policy: TruncationPolicy) -> tuple[float, int]:
    row, c = resolve(pid, c, r)
    closed = row.sum_scale(p, c, r)
    seq = row.sum_coeffs(p, policy, r)
    return abs(closed - lemma_sum(seq, c, row.weights)[0]), seq.truncation_order


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
