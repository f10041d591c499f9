"""Coefficient-sum membership criteria for negative-tail series.

A normalized series z - sum b_n z^n lies in S(k,lambda) exactly when
sum w_S(n) b_n <= 2k with w_S(n) = n P - Q, P = (1-lambda)+k(1+lambda) and
Q = (1-lambda)(1-k), and in C(k,lambda) exactly when the same holds for
w_C(n) = n w_S(n).  lemma_sum returns the truncated sum only: the weights
grow with n, so a bound on sum_{n>N} b_n is no bound on the weighted tail,
and no verdict is drawn from it.  For the class R^tau(A,B) the n-th
coefficient of any member is bounded by (A-B)|tau|/n; the sequence
saturating that bound drives the operator theorems.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

from .errors import DomainError
from .series import CoefficientSeq, SignConvention, _is_real

# Verdicts within this absolute band around lhs = 2k are Marginal: the sharp
# boundary cases sit exactly on the line and floats cannot adjudicate equality.
BOUNDARY_TOL = 1e-9


class Verdict(enum.Enum):
    HOLDS = "Holds"
    FAILS = "Fails"
    MARGINAL = "Marginal"


class SumWhich(enum.Enum):
    S = "S"
    C = "C"


@dataclass(frozen=True)
class ClassParams:
    """The pair (k, lambda) with 0 < k <= 1 and 0 <= lambda < 1."""

    k: float
    lam: float = 0.0

    def __post_init__(self) -> None:
        if not (_is_real(self.k) and 0 < self.k <= 1):
            raise DomainError(f"k must be in (0,1], got {self.k!r}")
        if not (_is_real(self.lam) and 0 <= self.lam < 1):
            raise DomainError(f"lambda must be in [0,1), got {self.lam!r}")
        object.__setattr__(self, "k", float(self.k))
        object.__setattr__(self, "lam", float(self.lam))

    @property
    def P(self) -> float:
        """(1 - lambda) + k (1 + lambda), the slope of w_S(n) = n P - Q."""
        return (1 - self.lam) + self.k * (1 + self.lam)

    @property
    def Q(self) -> float:
        """(1 - lambda)(1 - k), the offset of w_S(n) = n P - Q."""
        return (1 - self.lam) * (1 - self.k)


@dataclass(frozen=True)
class RParams:
    """The triple (A, B, tau) with -1 <= B < A <= 1 and tau nonzero."""

    A: float
    B: float
    tau: complex = 1.0 + 0.0j

    def __post_init__(self) -> None:
        if not (_is_real(self.A) and _is_real(self.B) and -1 <= self.B < self.A <= 1):
            raise DomainError(f"need -1 <= B < A <= 1, got A={self.A!r}, B={self.B!r}")
        tau = complex(self.tau)
        if tau == 0:
            raise DomainError("tau must be nonzero")
        if isinstance(self.tau, bool) or not cmath.isfinite(tau):
            raise DomainError(f"tau must be a finite complex number, got {self.tau!r}")
        object.__setattr__(self, "A", float(self.A))
        object.__setattr__(self, "B", float(self.B))
        object.__setattr__(self, "tau", tau)

    @property
    def scale(self) -> float:
        """(A - B)|tau|, the factor multiplying every coefficient bound."""
        return (self.A - self.B) * abs(self.tau)


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


def classify(margin: float, band: float = BOUNDARY_TOL) -> Verdict:
    """Verdict from the margin 2k - lhs with a Marginal band around zero."""
    if abs(margin) <= band:
        return Verdict.MARGINAL
    return Verdict.HOLDS if margin > 0 else Verdict.FAILS


# ---- lemma weights ----

def weight_S(n: int, c: ClassParams) -> float:
    if n < 2:
        raise DomainError(f"weights start at n=2, got {n}")
    return n * c.P - c.Q


def weight_C(n: int, c: ClassParams) -> float:
    return n * weight_S(n, c)


def lemma_sum(f: CoefficientSeq, c: ClassParams, which: SumWhich = SumWhich.S) -> float:
    """The truncated weighted sum sum_{n=2}^{N} w(n) b_n, to compare with 2k.

    The sum omits sum_{n>N} w(n) b_n.  f.tail_bound bounds sum_{n>N} b_n, and
    w(N+1) times it is no bound on the weighted tail when w grows.
    """
    if f.convention is not SignConvention.NEGATIVE_TAIL:
        raise DomainError("the coefficient criteria apply to negative-tail series only")
    # weight_S(n) = n P - Q and weight_C(n) = n weight_S(n), in their operation order
    P, Q = c.P, c.Q
    if which is SumWhich.S:
        return math.fsum((n * P - Q) * b for n, b in enumerate(f.coefficients, 2))
    return math.fsum((n * (n * P - Q)) * b for n, b in enumerate(f.coefficients, 2))


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
                          tuple(dixit_pal_bound(n, r) for n in range(2, N + 1)),
                          0.0, None)
