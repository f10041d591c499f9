"""Poisson-weighted coefficient sequences with certified truncation.

Builds the negative-tail series F(m,z) = z - sum_{n>=2} e^{-m} m^{n-1}/(n-1)! z^n,
its integral companion G(m,z) = z - sum e^{-m} m^{n-1}/n! z^n, and the image
under I(m) of the extremal R^tau(A,B) member: the Poisson weights times its
coefficients (A-B)|tau|/n.  One loop, _weight_pass, runs the weight
recurrence, holds the stopping rule that chooses the order N with a provable
tail bound, and forms each series' coefficient from its weight as it goes.
Each such series is a _Series: its coefficient rule and tail bound give the
CoefficientSeq its builder returns, through the one constructor that also
validates a caller's, and the same pass, given P and Q, forms Silverman's
weighted terms w(n) |coeff_n| instead: theorems' cross-check sums them and
builds no sequence, no tail bound and no list but theirs.  m e^{-m} is
subnormal from m = 715 on, so every builder refuses such an m with
TruncationNotReached.  F and G also hold their closed forms on the disk,
F = z - z e^{-m}(e^{mz} - 1) and G = z - e^{-m}(e^{mz} - 1 - mz)/m, with the
z f' and z (z f')' that the disk conditions read; a ClosedSeries binds one
of them to an m, and grid_check evaluates it whole, where a CoefficientSeq
is truncated.  One table gives each shifted exponential sum that the
weighted coefficient sums collapse to: its first index, closed form, first
term and term ratio.  _Record, the base of every frozen record in the
package, lives here beside _is_real, which each record module imports,
_require, which each public entry calls on the records it takes, and
_shown, which every refusal formats its input with.
"""

from __future__ import annotations

import cmath
import enum
import math
import sys
from collections import namedtuple

from .errors import DomainError, TruncationNotReached


# the least int that float() rounds past the largest double, to 2**1024
_INT_OVERFLOW = 2 ** 1024 - 2 ** 970


def _is_real(x) -> bool:
    # bool is an int subclass, but True is no spelling of 1; an int of size
    # _INT_OVERFLOW or more has no float, and float() raises OverflowError
    if isinstance(x, float):
        return True
    return isinstance(x, int) and not isinstance(x, bool) and abs(x) < _INT_OVERFLOW


def _shown(value) -> str:
    """repr(value), as every refusal prints a rejected input.  repr raises
    ValueError for an int past Python's int-to-str limit (4300 digits by
    default), so such an int is shown by its bit length, alone or in a tuple
    or list; any other value whose repr raises is shown by its type alone."""
    try:
        return repr(value)
    except Exception:
        if isinstance(value, int):
            return f"<int of {value.bit_length()} bits>"
        if isinstance(value, list):
            return f"[{', '.join(map(_shown, value))}]"
        if isinstance(value, tuple):
            items = ", ".join(map(_shown, value))
            return f"({items},)" if len(value) == 1 else f"({items})"
        return f"<unprintable {type(value).__name__}>"


def _require(value, kind: type, name: str):
    """value, refused by name with DomainError unless it is a kind."""
    if not isinstance(value, kind):
        raise DomainError(f"{name} must be a {kind.__name__}, got {_shown(value)}")
    return value


class _Record:
    """Base of the package's frozen records.

    _fields names a record's constructor arguments, in order; repr, equality
    and hashing read those attributes alone, so a constant stored beside
    them takes no part.  __init_subclass__ reads _fields from the positional
    parameters of the subclass' __init__ after self, so a subclass names its
    fields once, in its signature; one that inherits object's __init__ has
    no parameters to read and is refused when it is defined.  A record's
    __init__ validates its arguments and sets its attributes through
    self.__dict__, past the __setattr__ that refuses every assignment.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        # __code__, not inspect.signature: importing inspect takes about 5 ms,
        # beside about 20 ms for all of gftpoisson.cli (Python 3.11)
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1:code.co_argcount]

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __repr__(self) -> str:
        args = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__qualname__}({args})"

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class SignConvention(enum.Enum):
    NEGATIVE_TAIL = "negative"   # f(z) = z - sum b_n z^n, b_n >= 0
    GENERAL_TAIL = "general"     # f(z) = z + sum a_n z^n, a_n complex


class SumKind(enum.Enum):
    SHIFT1 = "Shift1"                      # sum_{n>=2} m^{n-1}/(n-1)! = e^m - 1
    SHIFT2 = "Shift2"                      # sum_{n>=2} m^{n-1}/(n-2)! = m e^m
    SHIFT3 = "Shift3"                      # sum_{n>=3} m^{n-1}/(n-3)! = m^2 e^m
    OVER_N_FACT = "OverNFact"              # sum_{n>=2} m^{n-1}/n! = (e^m-1-m)/m
    POW_N_OVER_N_FACT = "PowNOverNFact"    # sum_{n>=2} m^n/n! = e^m - 1 - m


class PoissonParams(_Record):
    """Poisson parameter m > 0."""

    def __init__(self, m: float) -> None:
        if not ((type(m) is float or _is_real(m)) and math.isfinite(m) and m > 0):
            raise DomainError(f"m must be a finite positive real, got {_shown(m)}")
        self.__dict__.update(m=float(m))


class TruncationPolicy(_Record):
    """Target absolute tail error eps; N < 2518 however small it is (see _weight_pass)."""

    def __init__(self, eps: float = 1e-12) -> None:
        if not (_is_real(eps) and eps > 0 and math.isfinite(eps)):
            raise DomainError(f"eps must be finite and positive, got {_shown(eps)}")
        self.__dict__.update(eps=eps)


def _check_tail(tail_bound) -> float:
    if not (_is_real(tail_bound) and tail_bound >= 0 and math.isfinite(tail_bound)):
        raise DomainError(f"tail_bound must be finite and >= 0, got {_shown(tail_bound)}")
    return float(tail_bound)


def _exact_sum(terms: list) -> float:
    """math.fsum(terms) for nonnegative terms, added largest first when they rise.

    fsum is correctly rounded, so over nonnegative finite terms its result does
    not depend on their order, but its cost does: it keeps a partial for every
    rounding error that a much larger later term strands, so a list rising
    across hundreds of binades, as the Poisson weights do before their mode at
    n ~ m, costs O(N^2), and the same list largest first O(N).  A list whose
    last term exceeds its first is sorted in place, largest first, unless its
    naive sum is inf, nan or near overflow: there order matters, since
    fsum([1e308, inf, 1.5e308]) is inf but the sorted list overflows.  Falling
    lists, such as the weighted terms at m below about 35, are summed as
    given, without the cost of a sort.
    """
    # below 2^1000 a naive sum of nonnegative floats is finite, and so is
    # every partial of fsum over them, in any order
    if terms[0] < terms[-1] and sum(terms) < 2.0 ** 1000:
        terms.sort(reverse=True)
    return math.fsum(terms)


class CoefficientSeq(_Record):
    """Truncated normalized series z -/+ sum_{n=2}^{N} coeff_n z^n.

    coefficients[i] is the coefficient of z^(i+2); tail_bound bounds
    sum_{n>N} |coeff_n| of the underlying infinite series.  The leading
    coefficient of z is implicitly 1.

    Every sequence, a caller's or a _Series' (coeffs_F, coeffs_G and
    theorems' I image), is validated term by term: negative-tail
    coefficients must be finite reals >= 0 and become floats, general-tail
    ones finite reals or complex numbers and become complex; a non-finite or
    negative tail_bound is refused.
    """

    def __init__(self, convention: SignConvention, coefficients: tuple,
                 tail_bound: float) -> None:
        _require(convention, SignConvention, "convention")
        try:
            coeffs = tuple(coefficients)
        except TypeError:
            raise DomainError("coefficients must be an iterable of numbers, "
                              f"got {_shown(coefficients)}") from None
        if len(coeffs) < 1:
            raise DomainError("coefficient list must reach at least n=2")
        negative = convention is SignConvention.NEGATIVE_TAIL
        for a in coeffs:
            if negative:
                ok = _is_real(a) and a >= 0 and math.isfinite(a)
            else:
                ok = (_is_real(a) or isinstance(a, complex)) and cmath.isfinite(a)
            if not ok:
                need = "finite reals >= 0" if negative else "finite complex numbers"
                raise DomainError(f"{convention.value}-tail coefficients must be {need}, "
                                  f"got {_shown(a)}")
        self.__dict__.update(convention=convention,
                             coefficients=tuple(map(float if negative else complex, coeffs)),
                             tail_bound=_check_tail(tail_bound))

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


def _weight_pass(m: float, eps: float, rule: str, scale: float = 1.0, P: float | None = None,
                 Q: float = 0.0, c_weights: bool = False) -> tuple[list, int, float]:
    """([t_2, ..., t_N], N, c_{N+1}): one pass of the weight recurrence.

    c_2 = m e^{-m} and c_{n+1} = c_n (m/n) give c_n = e^{-m} m^{n-1}/(n-1)!.
    As each c_n is made, the pass forms the series' coefficient a_n by its
    rule, c_n for "F", c_n/n for "G" and c_n (scale/n) for "I", and appends
    t_n = a_n or, given P and Q, Silverman's weighted term w(n) a_n with
    w_S(n) = n P - Q, or w_C(n) = n w_S(n) for c_weights: the one place these
    weights are written.

    The weights of both membership criteria grow at most like n^2.  N is at
    least 2 ceil(m) + 10; past that floor the weighted term ratio of n^2 c_n
    stays below 0.59, so the true tail is under 2 * N^2 * c_N once that
    quantity is below eps (safeguard factor 2).

    N is bounded for every eps > 0: _first_weight accepts only m < 715, so the
    floor is at most 1440, and past it each step multiplies c <= 1 by m/n < 1/2
    (by a margin no rounding closes), so c underflows to 0, where the loop
    stops, within 1077 steps.  So N < 2 ceil(m) + 10 + 1078 <= 2518.

    The tail bound is 2 c_{N+1} (see _Series): past the floor each ratio is
    at most m/(2m + 11), so the true sum of c_n over n > N is at most
    (2 - 11/(m + 11)) c_{N+1} < 1.985 c_{N+1}, a slack that covers the pass's
    relative rounding, under 2518 * 2^-52 < 2^-40.  A subnormal product
    c * (m/x) is instead off by up to 2^-1075 absolute.  c is normal up to
    n = 2m + 1 (the Poisson mass at 2m exceeds e^{-0.39m - 5}), so each such
    error arises where m/n < 1/2 and later steps halve it: the computed c_{N+1}
    is low by at most 2^-1075 (1 + 1/2 + ...) = 2^-1074 beyond its relative
    error, and the tail is below 2 c_{N+1} + 2^-1073.  Where 2 c_{N+1} is
    normal, 2^-1073 is under 2^-50 of it, inside the slack; below, _Series adds
    it, exactly, and rounds the /(N+1) and *scale steps up.  It does so too
    where the bound itself is subnormal, as at a tiny scale: rounding it there
    is off by an absolute 2^-1075, which no relative slack covers.

    n is carried as the float x.  Every n here is below 2518, so x is exact,
    and so is each conversion of the int n to a float that n * P, m / n,
    c / n, scale / n and 2.0 * (n ** 2) * c would make: x * P, m / x, c / x,
    scale / x and 2.0 * (x * x) * c are the same float operations on the same
    operands and give the same bits, without a conversion per operation.
    """
    floor = 2.0 * math.ceil(m) + 10.0
    divide, scaled = rule != "F", rule == "I"
    c = _first_weight(m)
    terms, x = [], 2.0
    append = terms.append
    while True:
        a = (c * (scale / x) if scaled else c / x) if divide else c
        if P is None:
            append(a)
        elif c_weights:
            append((x * (x * P - Q)) * a)
        else:
            append((x * P - Q) * a)
        if x >= floor and 2.0 * (x * x) * c < eps:
            return terms, int(x), c * (m / x)
        c *= m / x
        x += 1.0


def choose_truncation(p: PoissonParams, policy: TruncationPolicy) -> int:
    """Smallest order N with a certified weighted tail below eps."""
    _require(p, PoissonParams, "p")
    return _weight_pass(p.m, _require(policy, TruncationPolicy, "policy").eps, "F")[1]


class _Series(namedtuple("_Series", "convention rule closed")):
    """A series built from one pass of the weight recurrence.

    rule names its coefficient a_n, formed from the weight c_n inside the
    pass (see _weight_pass); the pass's next weight, c_{N+1}, bounds
    sum_{n>N} |a_n|.  Called with (p, policy, r) it builds the
    CoefficientSeq through its constructor, which validates each coefficient
    and the tail bound; weighted_sum sums Silverman's terms w(n) a_n from the
    same pass instead, and builds no sequence and no tail bound.  An "I"
    series reads the scale (A - B)|tau| of r.

    closed is the series' closed form on the disk, the chain (f, θf, θ²f)
    with θ = z d/dz, so the S-condition reads (f, z f') and the C-condition
    (z f', z (z f')').  Each entry is a function of (z, mz, E, em, m) with
    mz = m z, E = e^{m(z-1)}, computed as e^{mz - m}, and em = e^{-m}: E's
    exponent has real part m(Re z - 1) < 0 on the disk, so no entry
    overflows, and e^{-m} enters only as the constant em.  The I image has
    none, so its chain is empty.
    """

    __slots__ = ()

    def weighted_sum(self, p: PoissonParams, policy: TruncationPolicy, r, c,
                     c_weights: bool) -> tuple[float, int]:
        """(sum_{n=2}^{N} w(n) |a_n|, N), w = w_C for c_weights and w_S
        otherwise, with P and Q read from the class parameters c."""
        scale = r.scale if self.rule == "I" else 1.0
        terms, n_top, _ = _weight_pass(p.m, policy.eps, self.rule, scale, c.P, c.Q, c_weights)
        return _exact_sum(terms), n_top

    def __call__(self, p: PoissonParams, policy: TruncationPolicy,
                 r=None) -> CoefficientSeq:
        _require(p, PoissonParams, "p")
        eps = _require(policy, TruncationPolicy, "policy").eps
        scale = r.scale if self.rule == "I" else 1.0
        mags, n_top, omitted = _weight_pass(p.m, eps, self.rule, scale)
        # F's term ratio past the floor is below 1/2; G's b_n = c_n / n has F's
        # tail over N + 1, and |I_n| is scale times G's (scale 1.0 is exact)
        tail, over = 2.0 * omitted, (1 if self.rule == "F" else n_top + 1)
        bound = scale * (tail / over)
        if tail < sys.float_info.min or bound < sys.float_info.min:
            # c_{N+1} may be low by 2^-1074, or the bound rounded by an absolute
            # 2^-1075: add twice the first, and round the steps up (see _weight_pass)
            tail = math.nextafter((tail + 2.0 ** -1073) / over, math.inf)
            bound = math.nextafter(scale * tail, math.inf)
        return CoefficientSeq(self.convention, mags, bound)


# F = z - z e^{-m}(e^{mz} - 1) = z - z(E - em); θ maps each z - z(P E - em)
# to z - z(Q E - em) with Q = (1 + mz) P + mz P', P' the derivative of P in mz
_F = _Series(SignConvention.NEGATIVE_TAIL, "F", (
    lambda z, mz, E, em, m: z - z * (E - em),
    lambda z, mz, E, em, m: z - z * ((1 + mz) * E - em),
    lambda z, mz, E, em, m: z - z * ((1 + mz * (3 + mz)) * E - em)))
# G = z - e^{-m}(e^{mz} - 1 - mz)/m, and θG = F.  Written as
# z - (E - e^{-m}(1 + mz))/m it cancels at small |mz|: at m = 1e-3 and
# (k, lambda) = (0.5, 0.3) its grid maximum is 7.3e-11 relative off the truncated
# series', where F's are within 1.7e-14; ROADMAP item 19's Taylor branch would mend it
_G = _Series(SignConvention.NEGATIVE_TAIL, "G", (
    lambda z, mz, E, em, m: z - (E - em * (1 + mz)) / m, *_F.closed[:2]))
# theorems' I image of the Dixit-Pal extremal R^tau(A,B) member, a_n = scale/n
# with scale = (A-B)|tau|: each Poisson weight c_n times that a_n
_image = _Series(SignConvention.GENERAL_TAIL, "I", ())


class ClosedSeries(_Record):
    """A series with a closed form, _F or _G, at the Poisson parameter p.

    grid_check takes it where it takes a CoefficientSeq, and evaluates the
    whole series from its closed form, one cmath.exp per point, instead of
    a truncated one by Horner's rule.
    """

    def __init__(self, series: _Series, p: PoissonParams) -> None:
        if not (isinstance(series, _Series) and series.closed):
            raise DomainError(f"series must be _F or _G, got {_shown(series)}")
        self.__dict__.update(series=series, p=_require(p, PoissonParams, "p"))


def coeffs_F(p: PoissonParams, policy: TruncationPolicy = TruncationPolicy()) -> CoefficientSeq:
    """Negative-tail coefficients b_n = e^{-m} m^{n-1}/(n-1)! of F(m,z)."""
    return _F(p, policy)


def coeffs_G(p: PoissonParams, policy: TruncationPolicy = TruncationPolicy()) -> CoefficientSeq:
    """Negative-tail coefficients b_n = e^{-m} m^{n-1}/n! of the integral companion G."""
    return _G(p, policy)


# ---- shifted exponential sums ----

# first: the first index n of the sum; closed: m -> the closed form of the
# whole sum; term: m -> the term at n = first; shift: the term ratio
# t_n / t_{n-1} is m / (n - shift)
_ShiftedSum = namedtuple("_ShiftedSum", "first closed term shift")


# the float expressions of the series SumKind names
_SUMS = {
    SumKind.SHIFT1: _ShiftedSum(2, math.expm1, lambda m: m, 1),
    SumKind.SHIFT2: _ShiftedSum(2, lambda m: m * math.exp(m), lambda m: m, 2),
    SumKind.SHIFT3: _ShiftedSum(3, lambda m: m * m * math.exp(m), lambda m: m * m, 3),
    SumKind.OVER_N_FACT: _ShiftedSum(2, lambda m: (math.expm1(m) - m) / m, lambda m: m / 2.0, 0),
    SumKind.POW_N_OVER_N_FACT: _ShiftedSum(2, lambda m: math.expm1(m) - m,
                                           lambda m: m * m / 2.0, 0),
}


# the largest float m at which Shift3's closed form m^2 e^m is finite, so the
# largest at which the identities command can compare every closed form
_SHIFT3_M_MAX = 696.6900317052614


def _sum_row(kind) -> _ShiftedSum:
    if not isinstance(kind, SumKind):
        raise DomainError(f"unknown sum kind {_shown(kind)}")
    return _SUMS[kind]


def shifted_exp_sum(p: PoissonParams, kind: SumKind) -> float:
    """Closed form of the given shifted exponential series."""
    return _sum_row(kind).closed(_require(p, PoissonParams, "p").m)


def partial_shifted_sum(p: PoissonParams, kind: SumKind, upto: int) -> float:
    """Direct term-by-term summation to index n=upto (independent of the closed form).

    The terms rise until n ~ m; where the last one exceeds the first, as at
    large m, _exact_sum adds them largest first.  fsum rounds correctly, so
    the sum is the same in any order; an inf or overflowing one keeps its order.
    """
    row, m = _sum_row(kind), _require(p, PoissonParams, "p").m
    # range() needs an int, and a bool is no index
    if not isinstance(upto, int) or isinstance(upto, bool):
        raise DomainError(f"upto must be an int, got {_shown(upto)}")
    if upto < row.first:
        return 0.0
    t = row.term(m)
    terms = [t]
    for n in range(row.first + 1, upto + 1):
        t *= m / (n - row.shift)
        terms.append(t)
    return _exact_sum(terms)
