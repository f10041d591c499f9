"""Evaluation of series on the unit disk and sampling of the defining
inequalities.

The S-condition value at z is |w-1|/|w+1| with w = z f'(z) / ((1-lam) f(z)
+ lam z f'(z)); membership in S(k,lambda) requires it to stay below k on the
open disk.  The C-condition applies the same quotient to z f'(z).  Grid
sampling reports the maximum, its location, and the count of violations.

A grid reads each circle's values (g, z g'), g = f for the S-condition and
z f' for the C-condition, from one of two sources, called once per circle:

- _horner_values, for a truncated CoefficientSeq.  The grid builds the
  series' table once, straight from the coefficients: the pairs (a_n, n a_n)
  from n = N down to 2 of f = z + sum a_n z^n, so a_n = -b_n for a negative
  tail, or (n a_n, n (n a_n)) for the z f' of the C-condition.  At each point
  one Horner loop carries g and g' together (Knuth, TAOCP vol. 2, sec.
  4.6.4) and yields z + acc z^2 and z (1 + dacc z).
- _closed_values, for a series.ClosedSeries, the whole F or G at one m: its
  closed form, one cmath.exp per point, whatever the m.

The quotient has one definition, the generator _quotients: from each
(g, z g') it yields the numerator num = z g' and the denominator
den = (1-lam) g + lam num.  grid_check forms each value from num and den;
the suite's pole check reads den at one real point of F's closed form.
Each grid point is tested once for |z| < 1, since a radius one ulp below 1
is accepted by GridSpec and cmath.rect may round it out.

Each circle of P points is conjugate-symmetric: point j is
cmath.rect(radius, j * 2pi/P) for j <= P//2 and the conjugate of point P - j
above that.  When every pair of the table has imaginary part 0 (the float F
and G, and I images of real coefficients), the value at a lower-half point is
the value at its mirror, since IEEE +, -, *, / and abs commute with
conjugation and conj(f(z)) = f(conj(z)) holds for a real series: the value is
the same float at z and at conj(z).  The closed forms of F and G are real
too: their constants are real and cmath.exp commutes with conjugation, so
their values at conj(z) are the conjugates of those at z, bit for bit, and
their grids are mirrored as well.  Such a grid evaluates and visits only
the P//2 + 1 upper-half points of each circle, each with a multiplicity, the
number of grid points that share its value: 1 for j = 0 and, when P is even,
for j = P/2, which are their own mirrors, and 2 for every other point.  A
point adds its multiplicity to violations or skipped, so every grid point
still counts once.  The argmax, the first point of the largest value, lies in
the upper half, since a lower-half point comes after its mirror.  A complex
table, as a caller's general-tail CoefficientSeq may give, evaluates all P
points, the lower half as conjugates.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Iterable, Iterator
from functools import partial

from .criteria import ClassParams, ConditionId
from .errors import DomainError
from .series import (ClosedSeries, CoefficientSeq, SignConvention, _is_real, _Record,
                     _require, _shown)

DEFAULT_RADII = (0.25, 0.5, 0.75, 0.9)
DEFAULT_POINTS = 256
DEFAULT_FLOOR = 1e-12
# A circle's points are built as one list, and each is evaluated in pure
# Python by a Horner loop over the N terms: about 50 bytes, and 3 to 10
# microseconds at N = 15 to 121 (CPython 3.11), per point, or about 1 by a
# closed form.  2**20 points keep one circle near 50 MB and a four-circle grid
# at N = 121 near 40 s, and space the samples 6e-6 radians apart, 4096 times
# finer than the default.  A larger count would only exhaust memory or time,
# or fail as a numeric error once it no longer fits an index.
MAX_POINTS = 2 ** 20


class GridSpec(_Record):
    def __init__(self, radii: tuple = DEFAULT_RADII, points_per_circle: int = DEFAULT_POINTS,
                 denominator_floor: float = DEFAULT_FLOOR) -> None:
        try:
            given = tuple(radii)
        except TypeError:
            given = ()   # refused below, with the radii named
        if not given or any(not (_is_real(r) and 0 < r < 1) for r in given):
            raise DomainError(f"radii must be real numbers in (0,1), got {_shown(radii)}")
        # range() in grid_check needs an int, and a bool is no count
        if not isinstance(points_per_circle, int) or isinstance(points_per_circle, bool):
            raise DomainError(f"points_per_circle must be an int, got {_shown(points_per_circle)}")
        if points_per_circle < 8:
            raise DomainError(f"need at least 8 points per circle, got {_shown(points_per_circle)}")
        if points_per_circle > MAX_POINTS:
            raise DomainError(f"need at most {MAX_POINTS} points per circle, "
                              f"got {_shown(points_per_circle)}")
        # an infinite floor skips every point, and a grid that sampled nothing reads as a pass
        if not (_is_real(denominator_floor) and 0 < denominator_floor < math.inf):
            raise DomainError("denominator_floor must be a finite positive number, "
                              f"got {_shown(denominator_floor)}")
        self.__dict__.update(radii=tuple(float(r) for r in given),
                             points_per_circle=points_per_circle,
                             denominator_floor=float(denominator_floor))


class GridReport(_Record):
    def __init__(self, condition: ConditionId, max_value: float, argmax_z: complex,
                 violations: int, skipped: int) -> None:
        self.__dict__.update(condition=condition, max_value=max_value, argmax_z=argmax_z,
                             violations=violations, skipped=skipped)

    def to_json_dict(self) -> dict:
        return {"condition": self.condition.value, "max": self.max_value,
                "argmax": [self.argmax_z.real, self.argmax_z.imag],
                "violations": self.violations, "skipped": self.skipped}


# ---- series evaluation ----

def _pair_table(f: CoefficientSeq, zfprime: bool = False) -> tuple:
    """The pairs (a_n, n * a_n) for n = N down to 2, with f = z + sum a_n z^n:
    a_n is coeff_n, or -coeff_n for a negative tail, and n times that for the
    series z f' of the C-condition."""
    negative = f.convention is SignConvention.NEGATIVE_TAIL
    pairs = []
    for n, coeff in zip(range(f.truncation_order, 1, -1), reversed(f.coefficients)):
        a = n * coeff if zfprime else coeff
        if negative:
            a = -a
        pairs.append((a, n * a))
    return tuple(pairs)


def _horner_values(pairs: tuple, zs: Iterable[complex]) -> Iterator[tuple[complex, complex]]:
    """Yield (g(z), z g'(z)) at each point of zs, for g = z + sum a_n z^n with
    the pairs (a_n, n a_n) of _pair_table, from one Horner loop per point."""
    for z in zs:
        acc = dacc = 0j
        for coeff, dcoeff in pairs:
            acc = acc * z + coeff
            dacc = dacc * z + dcoeff
        yield z + acc * z * z, z * (1 + dacc * z)


def _closed_values(f: ClosedSeries, zfprime: bool,
                   zs: Iterable[complex]) -> Iterator[tuple[complex, complex]]:
    """Yield (g(z), z g'(z)) at each point of zs, for g = f, or z f' for
    zfprime, from the series' closed form: one cmath.exp per point."""
    g, zg = f.series.closed[zfprime:zfprime + 2]
    m = f.p.m
    em = math.exp(-m)
    exp = cmath.exp
    for z in zs:
        mz = m * z
        E = exp(mz - m)
        yield g(z, mz, E, em, m), zg(z, mz, E, em, m)


def _quotients(values: Iterable[tuple[complex, complex]],
               lam: float) -> Iterator[tuple[complex, complex]]:
    """Yield (num, den) = (z g', (1-lam) g + lam num) for each (g, z g') of
    values: the one place the quotient's denominator is formed."""
    one_minus_lam = 1 - lam
    for g, num in values:
        yield num, one_minus_lam * g + lam * num


# ---- grid sampling ----

def grid_check(f: CoefficientSeq | ClosedSeries, condition: ConditionId, params: ClassParams,
               grid: GridSpec = GridSpec()) -> GridReport:
    """Evaluate the S- or C-condition over all grid points.

    f is a truncated CoefficientSeq, evaluated by Horner's rule, or a
    ClosedSeries, evaluated whole by its closed form.  The maximum is taken
    over valid points with a deterministic tie-break (first radius, then
    first angle); a point counts as a violation when its value is not below
    k, so a nan value, which compares false with every number, is a
    violation and not a pass, and the first nan is the maximum and its point
    the argmax.  A real table or a closed form visits the upper half of each
    circle only, each point with the count of grid points that share its
    value (see the module docstring); every grid point is counted once
    either way.
    """
    closed = isinstance(f, ClosedSeries)
    if not closed:
        _require(f, CoefficientSeq, "f")
    _require(grid, GridSpec, "grid")
    # any other value would be gridded as the S-condition under its own label
    _require(condition, ConditionId, "condition")
    _require(params, ClassParams, "params")
    # the C-condition is the S-condition of z f'
    zfprime = condition is ConditionId.C_COND
    if closed:
        values = partial(_closed_values, f, zfprime)
        # F's and G's closed forms give conjugate values at conj(z), bit for bit
        mirrored = True
    else:
        table = _pair_table(f, zfprime)
        values = partial(_horner_values, table)
        # a real table gives the same value at conj(z) as at z, bit for bit
        mirrored = all(a.imag == 0 and da.imag == 0 for a, da in table)

    max_value = -math.inf
    argmax = 0j
    violations = 0
    skipped = 0
    k, lam = params.k, params.lam
    floor = grid.denominator_floor
    points = grid.points_per_circle
    half = points // 2
    step = 2 * math.pi / points
    # the grid points that share each visited point's value: j = 0 and, for
    # even P, j = P/2 are their own mirrors
    multiplicity = ((1,) + (2,) * (half - 1) + (1 + points % 2,) if mirrored
                    else (1,) * points)
    for radius in grid.radii:
        zs = [cmath.rect(radius, j * step) for j in range(half + 1)]
        if max(map(abs, zs)) >= 1:
            # names the first point that rounded out of the disk
            z = next(z for z in zs if abs(z) >= 1)
            raise DomainError(f"evaluation point must satisfy |z| < 1, got |z|={abs(z)!r}")
        if not mirrored:
            # the conjugate of point points - j, whose |z| is already checked
            zs += [zs[points - j].conjugate() for j in range(half + 1, points)]
        for z, (num, den), count in zip(zs, _quotients(values(zs), lam), multiplicity):
            if abs(den) < floor:
                skipped += count
                continue
            w = num / den
            abs_wp1 = abs(w + 1)
            if abs_wp1 < floor:
                skipped += count
                continue
            value = abs(w - 1) / abs_wp1
            if value > max_value:
                max_value = value
                argmax = z
            # an overflowing Horner loop gives nan, which must not pass: the
            # first nan is the maximum, and no later value compares above it
            if not value < k:
                violations += count
                if value != value and max_value == max_value:
                    max_value = value
                    argmax = z
    if max_value == -math.inf:
        max_value = 0.0   # every point skipped
    return GridReport(condition=condition, max_value=max_value, argmax_z=argmax,
                      violations=violations, skipped=skipped)
