"""Poisson-weighted coefficient sequences with certified truncation.

Builds the negative-tail series F(m,z) = z - sum_{n>=2} e^{-m} m^{n-1}/(n-1)! z^n,
its integral companion G(m,z) = z - sum e^{-m} m^{n-1}/n! z^n, and the termwise
(Hadamard) operator that multiplies a normalized series by the Poisson weights.
One pass of the weight recurrence chooses the order N with a provable tail bound
and yields the weights F and G are built from.  m e^{-m} is subnormal from
m = 715 on, so every builder refuses such an m with TruncationNotReached.  One
table gives each shifted exponential sum that the weighted coefficient sums
collapse to: its first index, closed form, first term and term ratio.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .errors import DomainError, TruncationNotReached


def _is_real(x) -> bool:
    # bool is an int subclass, but True is no spelling of 1
    return isinstance(x, (int, float)) and not isinstance(x, bool)


class SignConvention(enum.Enum):
    NEGATIVE_TAIL = "negative"   # f(z) = z - sum b_n z^n, b_n >= 0
    GENERAL_TAIL = "general"     # f(z) = z + sum a_n z^n, a_n complex


class SumKind(enum.Enum):
    SHIFT1 = "Shift1"                      # sum_{n>=2} m^{n-1}/(n-1)! = e^m - 1
    SHIFT2 = "Shift2"                      # sum_{n>=2} m^{n-1}/(n-2)! = m e^m
    SHIFT3 = "Shift3"                      # sum_{n>=3} m^{n-1}/(n-3)! = m^2 e^m
    OVER_N_FACT = "OverNFact"              # sum_{n>=2} m^{n-1}/n! = (e^m-1-m)/m
    POW_N_OVER_N_FACT = "PowNOverNFact"    # sum_{n>=2} m^n/n! = e^m - 1 - m


@dataclass(frozen=True)
class PoissonParams:
    """Poisson parameter m > 0."""

    m: float

    def __post_init__(self) -> None:
        if not (_is_real(self.m) and math.isfinite(self.m) and self.m > 0):
            raise DomainError(f"m must be a finite positive real, got {self.m!r}")
        object.__setattr__(self, "m", float(self.m))


@dataclass(frozen=True)
class TruncationPolicy:
    """Target absolute tail error eps and a cap n_max on the order N."""

    eps: float = 1e-12
    n_max: int = 10_000

    def __post_init__(self) -> None:
        if not (_is_real(self.eps) and self.eps > 0 and math.isfinite(self.eps)):
            raise DomainError(f"eps must be finite and positive, got {self.eps!r}")
        if not (_is_real(self.n_max) and self.n_max >= 2):
            raise DomainError(f"need n_max >= 2, got {self.n_max!r}")


@dataclass(frozen=True)
class CoefficientSeq:
    """Truncated normalized series z -/+ sum_{n=2}^{N} coeff_n z^n.

    coefficients[i] is the coefficient of z^(i+2); tail_bound bounds
    sum_{n>N} |coeff_n| of the underlying infinite series.  The leading
    coefficient of z is implicitly 1.  m records the Poisson parameter the
    sequence was built from, if any.
    """

    convention: SignConvention
    coefficients: tuple
    tail_bound: float
    m: float | None = None

    def __post_init__(self) -> None:
        coeffs = tuple(self.coefficients)
        if len(coeffs) < 1:
            raise DomainError("coefficient list must reach at least n=2")
        if self.convention is SignConvention.NEGATIVE_TAIL:
            vals = []
            for b in coeffs:
                b = float(b)
                if not (b >= 0 and math.isfinite(b)):
                    raise DomainError(f"negative-tail coefficients must be >= 0, got {b!r}")
                vals.append(b)
            coeffs = tuple(vals)
        else:
            coeffs = tuple(complex(a) for a in coeffs)
        object.__setattr__(self, "coefficients", coeffs)
        if not (isinstance(self.tail_bound, (int, float)) and self.tail_bound >= 0
                and math.isfinite(self.tail_bound)):
            raise DomainError(f"tail_bound must be finite and >= 0, got {self.tail_bound!r}")
        object.__setattr__(self, "tail_bound", float(self.tail_bound))

    @property
    def truncation_order(self) -> int:
        return len(self.coefficients) + 1

    def scaled(self, factor: float) -> "CoefficientSeq":
        """Multiply every tail coefficient (and the tail bound) by factor >= 0."""
        if factor < 0:
            raise DomainError("scale factor must be >= 0")
        return CoefficientSeq(self.convention,
                              tuple(c * factor for c in self.coefficients),
                              self.tail_bound * factor, self.m)

    def magnitudes(self) -> "CoefficientSeq":
        """Negative-tail sequence of coefficient magnitudes |coeff_n|."""
        return CoefficientSeq(SignConvention.NEGATIVE_TAIL,
                              tuple(abs(c) for c in self.coefficients),
                              self.tail_bound, self.m)

    def to_json_dict(self) -> dict:
        if self.convention is SignConvention.NEGATIVE_TAIL:
            coeffs = list(self.coefficients)
        else:
            coeffs = [[c.real, c.imag] for c in self.coefficients]
        return {"convention": self.convention.value, "m": self.m,
                "N": self.truncation_order, "coefficients": coeffs,
                "tail_bound": self.tail_bound}


# ---- Poisson coefficients ----

def _first_weight(m: float) -> float:
    """c_2 = m e^{-m}, refused from m = 715 on, where it is subnormal and every
    weight and tail bound built on it would round towards 0."""
    c = m * math.exp(-m)
    if c < sys.float_info.min:
        raise TruncationNotReached(f"first Poisson weight m e^-m = {c!r} is subnormal at m={m!r}")
    return c


def _weights(p: PoissonParams, policy: TruncationPolicy) -> list:
    """[c_2, ..., c_N, c_{N+1}]: c_n = e^{-m} m^{n-1}/(n-1)! to the certified N, and one more.

    The weights of both membership criteria grow at most like n^2.  N is at
    least 2 ceil(m) + 10; past that floor the weighted term ratio of n^2 c_n
    stays below 0.59, so the true tail is under 2 * N^2 * c_N once that
    quantity is below eps (safeguard factor 2).
    """
    m = p.m
    floor = 2 * math.ceil(m) + 10
    if floor > policy.n_max:
        raise TruncationNotReached(f"order floor {floor} exceeds cap n_max={policy.n_max}")
    c = _first_weight(m)
    out = [c]
    for n in range(2, floor):
        c *= m / n
        out.append(c)
    n = floor
    while not 2.0 * (n ** 2) * c < policy.eps:
        if n >= policy.n_max:
            raise TruncationNotReached(
                f"tail bound {policy.eps} not reached by n_max={policy.n_max}")
        c *= m / n
        n += 1
        out.append(c)
    out.append(c * (m / n))
    return out


def choose_truncation(p: PoissonParams, policy: TruncationPolicy) -> int:
    """Smallest order N with a certified weighted tail below eps."""
    return len(_weights(p, policy))


def coeffs_F(p: PoissonParams, policy: TruncationPolicy = TruncationPolicy()) -> CoefficientSeq:
    """Negative-tail coefficients b_n = e^{-m} m^{n-1}/(n-1)! of F(m,z)."""
    *out, omitted = _weights(p, policy)
    # the term ratio past the floor is below 1/2
    return CoefficientSeq(SignConvention.NEGATIVE_TAIL, tuple(out), 2.0 * omitted, p.m)


def coeffs_G(p: PoissonParams, policy: TruncationPolicy = TruncationPolicy()) -> CoefficientSeq:
    """Negative-tail coefficients b_n = e^{-m} m^{n-1}/n! of the integral companion G."""
    *w, omitted = _weights(p, policy)
    out = tuple(c / n for n, c in enumerate(w, 2))
    return CoefficientSeq(SignConvention.NEGATIVE_TAIL, out, 2.0 * omitted / (len(w) + 2), p.m)


def _pmf_max_beyond(p: PoissonParams, j0: int) -> float:
    """max over j >= j0 of the Poisson pmf e^{-m} m^j / j!."""
    j = j0 if j0 >= p.m else math.floor(p.m)
    return math.exp(-p.m + j * math.log(p.m) - math.lgamma(j + 1))


def apply_operator_I(f: CoefficientSeq, p: PoissonParams) -> CoefficientSeq:
    """Termwise product with the Poisson weights: coeff_n -> e^{-m} m^{n-1}/(n-1)! coeff_n."""
    out = []
    c = _first_weight(p.m)
    for n in range(2, f.truncation_order + 1):
        out.append(c * f.coefficients[n - 2])
        c *= p.m / n
    # every weight is a probability mass, so the tail shrinks by at least the
    # largest mass beyond the truncation order
    tail = f.tail_bound * _pmf_max_beyond(p, f.truncation_order)
    return CoefficientSeq(f.convention, tuple(out), tail, p.m)


# ---- shifted exponential sums ----

class _ShiftedSum(NamedTuple):
    first: int          # first index n of the sum
    closed: Callable    # m -> closed form of the whole sum
    term: Callable      # m -> the term at n = first
    shift: int          # term ratio t_n / t_{n-1} = m / (n - shift)


# the float expressions of the series SumKind names
_SUMS = {
    SumKind.SHIFT1: _ShiftedSum(2, math.expm1, lambda m: m, 1),
    SumKind.SHIFT2: _ShiftedSum(2, lambda m: m * math.exp(m), lambda m: m, 2),
    SumKind.SHIFT3: _ShiftedSum(3, lambda m: m * m * math.exp(m), lambda m: m * m, 3),
    SumKind.OVER_N_FACT: _ShiftedSum(2, lambda m: (math.expm1(m) - m) / m, lambda m: m / 2.0, 0),
    SumKind.POW_N_OVER_N_FACT: _ShiftedSum(2, lambda m: math.expm1(m) - m,
                                           lambda m: m * m / 2.0, 0),
}


def _sum_row(kind) -> _ShiftedSum:
    if not isinstance(kind, SumKind):
        raise DomainError(f"unknown sum kind {kind!r}")
    return _SUMS[kind]


def shifted_exp_sum(p: PoissonParams, kind: SumKind) -> float:
    """Closed form of the given shifted exponential series."""
    return _sum_row(kind).closed(p.m)


def partial_shifted_sum(p: PoissonParams, kind: SumKind, upto: int) -> float:
    """Direct term-by-term summation to index n=upto (independent of the closed form)."""
    row, m = _sum_row(kind), p.m
    if upto < row.first:
        return 0.0
    t = row.term(m)
    terms = [t]
    for n in range(row.first + 1, upto + 1):
        t *= m / (n - row.shift)
        terms.append(t)
    return math.fsum(terms)
