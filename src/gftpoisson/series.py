"""Poisson-weighted coefficient sequences with certified truncation.

Builds the negative-tail series F(m,z) = z - sum_{n>=2} e^{-m} m^{n-1}/(n-1)! z^n,
its integral companion G(m,z) = z - sum e^{-m} m^{n-1}/n! z^n, and the termwise
(Hadamard) operator that multiplies a normalized series by the Poisson weights.
One pass of the weight recurrence chooses the order N with a provable tail bound
and yields the weights F and G are built from.  Each such series is a _Series:
its coefficient rule and tail bound, written once, give both the
CoefficientSeq its builder returns and the float magnitudes |coeff_n| that
theorems' cross-check sums straight from the weight pass, with no sequence
built.  m e^{-m} is subnormal from m = 715 on, so every builder refuses such an
m with TruncationNotReached.  One table gives each shifted exponential sum that
the weighted coefficient sums collapse to: its first index, closed form, first
term and term ratio.
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


@dataclass(frozen=True, init=False)
class PoissonParams:
    """Poisson parameter m > 0."""

    m: float

    def __init__(self, m: float) -> None:
        if not (_is_real(m) and math.isfinite(m) and m > 0):
            raise DomainError(f"m must be a finite positive real, got {m!r}")
        object.__setattr__(self, "m", float(m))


@dataclass(frozen=True)
class TruncationPolicy:
    """Target absolute tail error eps; N < 2518 however small it is (see _weights)."""

    eps: float = 1e-12

    def __post_init__(self) -> None:
        if not (_is_real(self.eps) and self.eps > 0 and math.isfinite(self.eps)):
            raise DomainError(f"eps must be finite and positive, got {self.eps!r}")


def _check_tail(tail_bound) -> float:
    if not (_is_real(tail_bound) and tail_bound >= 0 and math.isfinite(tail_bound)):
        raise DomainError(f"tail_bound must be finite and >= 0, got {tail_bound!r}")
    return float(tail_bound)


@dataclass(frozen=True)
class CoefficientSeq:
    """Truncated normalized series z -/+ sum_{n=2}^{N} coeff_n z^n.

    coefficients[i] is the coefficient of z^(i+2); tail_bound bounds
    sum_{n>N} |coeff_n| of the underlying infinite series.  The leading
    coefficient of z is implicitly 1.

    A sequence a caller builds is validated term by term: negative-tail
    coefficients become floats >= 0, general-tail ones complex.  A _Series
    (coeffs_F, coeffs_G and theorems' I image) is trusted: its coefficients
    have those types and signs by construction, so only its tail_bound is
    checked, which rejects a non-finite or negative bound on every path.
    """

    convention: SignConvention
    coefficients: tuple
    tail_bound: float

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
        object.__setattr__(self, "tail_bound", _check_tail(self.tail_bound))

    @property
    def truncation_order(self) -> int:
        return len(self.coefficients) + 1


# ---- Poisson coefficients ----

def _first_weight(m: float) -> float:
    """c_2 = m e^{-m}, refused from m = 715 on, where it is subnormal and every
    weight and tail bound built on it would round towards 0."""
    e = math.exp(-m)
    # e^{-m} is subnormal from m = 708.4 on and has lost bits; its halves have not
    c = m * e if e >= sys.float_info.min else (m * math.exp(-m / 2)) * math.exp(-m / 2)
    if c < sys.float_info.min:
        raise TruncationNotReached(f"first Poisson weight m e^-m = {c!r} is subnormal at m={m!r}")
    return c


def _weights(p: PoissonParams, policy: TruncationPolicy) -> list:
    """[c_2, ..., c_N, c_{N+1}]: c_n = e^{-m} m^{n-1}/(n-1)! to the certified N, and one more.

    The weights of both membership criteria grow at most like n^2.  N is at
    least 2 ceil(m) + 10; past that floor the weighted term ratio of n^2 c_n
    stays below 0.59, so the true tail is under 2 * N^2 * c_N once that
    quantity is below eps (safeguard factor 2).

    N is bounded for every eps > 0: _first_weight accepts only m < 715, so the
    floor is at most 1440, and past it each step multiplies c <= 1 by m/n < 1/2
    (by a margin no rounding closes), so c underflows to 0, where the loop
    stops, within 1077 steps.  So N < 2 ceil(m) + 10 + 1078 <= 2518.
    """
    m = p.m
    floor = 2 * math.ceil(m) + 10
    c = _first_weight(m)
    out = [c]
    for n in range(2, floor):
        c *= m / n
        out.append(c)
    n = floor
    while not 2.0 * (n ** 2) * c < policy.eps:
        c *= m / n
        n += 1
        out.append(c)
    out.append(c * (m / n))
    return out


def choose_truncation(p: PoissonParams, policy: TruncationPolicy) -> int:
    """Smallest order N with a certified weighted tail below eps."""
    return len(_weights(p, policy))


class _Series(NamedTuple):
    """A series built from one pass of the weight recurrence.

    terms(w, omitted, r) maps the weights w = [c_2, ..., c_N] and the next one,
    c_{N+1}, to the magnitudes |coeff_n|, n = 2 .. N, as nonnegative floats,
    and a bound on sum_{n>N} |coeff_n|; r is the (A, B, tau) a series of the
    class R^tau(A,B) reads.  Called with (p, policy, r) it builds the
    CoefficientSeq, its coefficients complex for a general tail; magnitudes
    gives the same floats without building one.
    """

    convention: SignConvention
    terms: Callable[[list, float, object], tuple[list, float]]

    def magnitudes(self, p: PoissonParams, policy: TruncationPolicy,
                   r) -> tuple[list, float]:
        """(|coeff_n| for n = 2 .. N, the tail bound), the bound checked."""
        w = _weights(p, policy)
        omitted = w.pop()
        mags, tail = self.terms(w, omitted, r)
        return mags, _check_tail(tail)

    def __call__(self, p: PoissonParams, policy: TruncationPolicy,
                 r=None) -> CoefficientSeq:
        mags, tail = self.magnitudes(p, policy, r)
        if self.convention is SignConvention.GENERAL_TAIL:
            mags = [complex(a) for a in mags]
        # the types and signs CoefficientSeq's validation would give, by construction
        seq = object.__new__(CoefficientSeq)
        object.__setattr__(seq, "convention", self.convention)
        object.__setattr__(seq, "coefficients", tuple(mags))
        object.__setattr__(seq, "tail_bound", tail)
        return seq


def _f_terms(w: list, omitted: float, r) -> tuple[list, float]:
    # b_n = c_n; the term ratio past the floor is below 1/2
    return w, 2.0 * omitted


def _g_terms(w: list, omitted: float, r) -> tuple[list, float]:
    # b_n = c_n / n, and F's tail over N + 1
    return [c / n for n, c in enumerate(w, 2)], 2.0 * omitted / (len(w) + 2)


_F = _Series(SignConvention.NEGATIVE_TAIL, _f_terms)
_G = _Series(SignConvention.NEGATIVE_TAIL, _g_terms)


def coeffs_F(p: PoissonParams, policy: TruncationPolicy = TruncationPolicy()) -> CoefficientSeq:
    """Negative-tail coefficients b_n = e^{-m} m^{n-1}/(n-1)! of F(m,z)."""
    return _F(p, policy)


def coeffs_G(p: PoissonParams, policy: TruncationPolicy = TruncationPolicy()) -> CoefficientSeq:
    """Negative-tail coefficients b_n = e^{-m} m^{n-1}/n! of the integral companion G."""
    return _G(p, policy)


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
    return CoefficientSeq(f.convention, tuple(out), tail)


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
