"""Coefficient-sum membership criteria for negative-tail series.

A normalized series z - sum b_n z^n lies in S(k,lambda) exactly when
sum w_S(n) b_n <= 2k with w_S(n) = n((1-lambda)+k(1+lambda)) - (1-lambda)(1-k),
and in C(k,lambda) exactly when the same holds for w_C(n) = n w_S(n).
For the class R^tau(A,B) the n-th coefficient of any member is bounded by
(A-B)|tau|/n; the sequence saturating that bound drives the operator theorems.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

from .errors import DomainError
from .series import CoefficientSeq, SignConvention

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


def _is_real(x) -> bool:
    # bool is an int subclass, but True is no spelling of k = 1
    return isinstance(x, (int, float)) and not isinstance(x, bool)


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
    return n * ((1 - c.lam) + c.k * (1 + c.lam)) - (1 - c.lam) * (1 - c.k)


def weight_C(n: int, c: ClassParams) -> float:
    return n * weight_S(n, c)


_WEIGHTS = {SumWhich.S: weight_S, SumWhich.C: weight_C}


def lemma_sum(f: CoefficientSeq, c: ClassParams,
              which: SumWhich = SumWhich.S) -> tuple[float, MembershipReport]:
    """Weighted coefficient sum and its verdict against 2k.

    The truncated sum underestimates the infinite one; the omitted tail is
    estimated by weight(N+1) * tail_bound and widens the Marginal band so that
    Holds stays conservative.
    """
    if f.convention is not SignConvention.NEGATIVE_TAIL:
        raise DomainError("the coefficient criteria apply to negative-tail series only")
    w = _WEIGHTS[which]
    lhs = math.fsum(w(n, c) * f.coefficients[n - 2]
                    for n in range(2, f.truncation_order + 1))
    rhs = 2 * c.k
    band = BOUNDARY_TOL + w(f.truncation_order + 1, c) * f.tail_bound
    report = MembershipReport(predicate=f"lemma_{which.value}",
                              verdict=classify(rhs - lhs, band),
                              lhs=lhs, rhs=rhs, margin=rhs - lhs,
                              truncation_order=f.truncation_order)
    return lhs, report


# ---- coefficient bound for R^tau(A,B) ----

def dixit_pal_bound(n: int, r: RParams) -> float:
    """The n-th coefficient bound (A-B)|tau|/n."""
    if n < 2:
        raise DomainError(f"bound defined for n >= 2, got {n}")
    return r.scale / n


def worst_case_R_coeffs(r: RParams, N: int) -> CoefficientSeq:
    """General-tail sequence saturating the coefficient bound up to order N."""
    if N < 2:
        raise DomainError(f"need N >= 2, got {N}")
    return CoefficientSeq(SignConvention.GENERAL_TAIL,
                          tuple(dixit_pal_bound(n, r) for n in range(2, N + 1)),
                          0.0, None)
