"""Coefficient-sum membership criteria, one per disk condition.

z -/+ sum coeff_n z^n lies in S(k,lambda) when sum w_S(n) |coeff_n| <= 2k with
w_S(n) = n P - Q, P = (1-lambda)+k(1+lambda) and Q = (1-lambda)(1-k), and in
C(k,lambda) when the same holds for w_C(n) = n w_S(n): necessary and
sufficient for a negative tail, sufficient for a general one (Silverman, Proc.
AMS 51, 1975).  lemma_sum returns the truncated sum only: the weights grow
with n, so a bound on sum_{n>N} |coeff_n| is no bound on the weighted tail,
and no verdict is drawn from it.  lemma_sum is the public route over a
CoefficientSeq; theorems' cross-check passes the float magnitudes of one
weight pass to the same private _weighted_sum, the one place the weight
expressions are written.  ClassParams stores P and Q, and RParams the scale
(A-B)|tau|, once, at construction.  For the class R^tau(A,B) the n-th
coefficient of any member is bounded by (A-B)|tau|/n; the sequence
saturating that bound drives the operator theorems.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass, field

from .errors import DomainError
from .series import CoefficientSeq, SignConvention, _is_real

# Verdicts within this absolute band around lhs = 2k are Marginal: the sharp
# boundary cases sit exactly on the line and floats cannot adjudicate equality.
BOUNDARY_TOL = 1e-9


class Verdict(enum.Enum):
    HOLDS = "Holds"
    FAILS = "Fails"
    MARGINAL = "Marginal"


class ConditionId(enum.Enum):
    S_COND = "S_cond"
    C_COND = "C_cond"
    R_COND = "R_cond"


@dataclass(frozen=True, init=False)
class ClassParams:
    """The pair (k, lambda) with 0 < k <= 1 and 0 <= lambda < 1.

    P = (1 - lambda) + k (1 + lambda) and Q = (1 - lambda)(1 - k), the slope
    and offset of w_S(n) = n P - Q, are stored at construction; they take no
    part in repr, equality or hashing.
    """

    k: float
    lam: float = 0.0
    P: float = field(init=False, repr=False, compare=False)
    Q: float = field(init=False, repr=False, compare=False)

    def __init__(self, k: float, lam: float = 0.0) -> None:
        if not (_is_real(k) and 0 < k <= 1):
            raise DomainError(f"k must be in (0,1], got {k!r}")
        if not (_is_real(lam) and 0 <= lam < 1):
            raise DomainError(f"lambda must be in [0,1), got {lam!r}")
        k, lam = float(k), float(lam)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "P", (1 - lam) + k * (1 + lam))
        object.__setattr__(self, "Q", (1 - lam) * (1 - k))


@dataclass(frozen=True, init=False)
class RParams:
    """The triple (A, B, tau) with -1 <= B < A <= 1 and tau nonzero.

    scale = (A - B)|tau|, the factor multiplying every coefficient bound, is
    stored at construction; it takes no part in repr, equality or hashing.
    """

    A: float
    B: float
    tau: complex = 1.0 + 0.0j
    scale: float = field(init=False, repr=False, compare=False)

    def __init__(self, A: float, B: float, tau: complex = 1.0 + 0.0j) -> None:
        if not (_is_real(A) and _is_real(B) and -1 <= B < A <= 1):
            raise DomainError(f"need -1 <= B < A <= 1, got A={A!r}, B={B!r}")
        t = complex(tau)
        if t == 0:
            raise DomainError("tau must be nonzero")
        if isinstance(tau, bool) or not cmath.isfinite(t):
            raise DomainError(f"tau must be a finite complex number, got {tau!r}")
        A, B = float(A), float(B)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "tau", t)
        object.__setattr__(self, "scale", (A - B) * abs(t))


@dataclass(frozen=True)
class MembershipReport:
    predicate: str
    verdict: Verdict
    lhs: float
    rhs: float
    margin: float
    crosscheck_residual: float | None = None
    truncation_order: int | None = None

    def to_json_dict(self) -> dict:
        return {"predicate": self.predicate, "verdict": self.verdict.value,
                "lhs": self.lhs, "rhs": self.rhs, "margin": self.margin,
                "residual": self.crosscheck_residual, "N": self.truncation_order}


def classify(margin: float) -> Verdict:
    """Verdict from the margin 2k - lhs with the Marginal band BOUNDARY_TOL around zero."""
    if abs(margin) <= BOUNDARY_TOL:
        return Verdict.MARGINAL
    return Verdict.HOLDS if margin > 0 else Verdict.FAILS


# ---- lemma weights ----

def weight_S(n: int, c: ClassParams) -> float:
    if n < 2:
        raise DomainError(f"weights start at n=2, got {n}")
    return n * c.P - c.Q


def weight_C(n: int, c: ClassParams) -> float:
    return n * weight_S(n, c)


def _weighted_sum(magnitudes, c: ClassParams, condition: ConditionId) -> float:
    """sum_{n>=2} w(n) a_n over the magnitudes a_n = |coeff_n| from n = 2, with
    w = w_S for S_COND and w_C for C_COND, correctly rounded by math.fsum."""
    # weight_S(n) = n P - Q and weight_C(n) = n weight_S(n), in their operation order
    P, Q = c.P, c.Q
    if condition is ConditionId.S_COND:
        return math.fsum([(n * P - Q) * a for n, a in enumerate(magnitudes, 2)])
    if condition is ConditionId.C_COND:
        return math.fsum([(n * (n * P - Q)) * a for n, a in enumerate(magnitudes, 2)])
    raise DomainError(f"no coefficient criterion for the condition {condition!r}")


def lemma_sum(f: CoefficientSeq, c: ClassParams, condition: ConditionId) -> float:
    """sum_{n=2}^{N} w(n) |coeff_n| with w = w_S for S_COND and w_C for C_COND,
    to compare with 2k; any other condition has no criterion here.

    f.tail_bound bounds sum_{n>N} |coeff_n|, and w(N+1) times it is no bound
    on the omitted weighted tail when w grows.
    """
    return _weighted_sum(map(abs, f.coefficients), c, condition)


# ---- coefficient bound for R^tau(A,B) ----

def dixit_pal_bound(n: int, r: RParams) -> float:
    """The n-th coefficient bound (A-B)|tau|/n."""
    if n < 2:
        raise DomainError(f"bound defined for n >= 2, got {n}")
    return r.scale / n


def worst_case_R_coeffs(r: RParams, N: int) -> CoefficientSeq:
    """General-tail sequence saturating the coefficient bound up to order N.

    Its tail_bound of 0.0 is no bound: the omitted sum_{n>N} (A-B)|tau|/n
    diverges.
    """
    if N < 2:
        raise DomainError(f"need N >= 2, got {N}")
    return CoefficientSeq(SignConvention.GENERAL_TAIL,
                          tuple(dixit_pal_bound(n, r) for n in range(2, N + 1)), 0.0)
