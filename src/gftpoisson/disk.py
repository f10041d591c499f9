"""Evaluation of truncated series on the unit disk and sampling of the
defining inequalities.

The S-condition value at z is |w-1|/|w+1| with w = z f'(z) / ((1-lam) f(z)
+ lam z f'(z)); membership in S(k,lambda) requires it to stay below k on the
open disk.  The C-condition applies the same quotient to z f'(z), and the
R-condition is |f'-1| / |(A-B) tau - B (f'-1)| against threshold 1.  Grid
sampling reports the maximum, its location, and the count of violations.

A grid builds its series' table once, straight from the coefficients: the
pairs (b_n, n b_n) from n = N down to 2, or (n b_n, n (n b_n)) for the z f'
of the C-condition.  Each point then runs one Horner loop that carries f and f'
together (Knuth, TAOCP vol. 2, sec. 4.6.4), each accumulator in the operation
order of eval_series and eval_deriv, so every value matches theirs bit for
bit; the R-condition uses only the n b_n half.  The public condition values
go through the same helpers.  Each grid point is tested once for |z| < 1,
since a radius one ulp below 1 is accepted by GridSpec and cmath.rect may
round it out.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

from .criteria import ClassParams, RParams
from .errors import DomainError
from .series import CoefficientSeq, SignConvention, _is_real

DEFAULT_RADII = (0.25, 0.5, 0.75, 0.9)
DEFAULT_POINTS = 256
DEFAULT_FLOOR = 1e-12


class ConditionId(enum.Enum):
    S_COND = "S_cond"
    C_COND = "C_cond"
    R_COND = "R_cond"


@dataclass(frozen=True)
class GridSpec:
    radii: tuple = DEFAULT_RADII
    points_per_circle: int = DEFAULT_POINTS
    denominator_floor: float = DEFAULT_FLOOR

    def __post_init__(self) -> None:
        radii = tuple(self.radii)
        if not radii or any(not (_is_real(r) and 0 < r < 1) for r in radii):
            raise DomainError(f"radii must be real numbers in (0,1), got {self.radii!r}")
        # range() in grid_check needs an int, and a bool is no count
        if not isinstance(self.points_per_circle, int) or isinstance(self.points_per_circle, bool):
            raise DomainError(f"points_per_circle must be an int, got {self.points_per_circle!r}")
        if self.points_per_circle < 8:
            raise DomainError(f"need at least 8 points per circle, got {self.points_per_circle}")
        # an infinite floor skips every point, and a grid that sampled nothing reads as a pass
        if not (_is_real(self.denominator_floor) and 0 < self.denominator_floor < math.inf):
            raise DomainError("denominator_floor must be a finite positive number, "
                              f"got {self.denominator_floor!r}")
        object.__setattr__(self, "radii", tuple(float(r) for r in radii))


@dataclass(frozen=True)
class GridReport:
    condition: ConditionId
    max_value: float
    argmax_z: complex
    violations: int
    skipped: int

    def to_json_dict(self) -> dict:
        return {"condition": self.condition.value, "max": self.max_value,
                "argmax": [self.argmax_z.real, self.argmax_z.imag],
                "violations": self.violations, "skipped": self.skipped}


# ---- series evaluation ----

def _require_in_disk(z: complex) -> complex:
    z = complex(z)
    if abs(z) >= 1:
        raise DomainError(f"evaluation point must satisfy |z| < 1, got |z|={abs(z)!r}")
    return z


def _pair_table(f: CoefficientSeq, zfprime: bool = False) -> tuple[bool, tuple]:
    """(negative tail?, pairs (a_n, n * a_n) for n = N down to 2), where a_n is
    coeff_n, or n * coeff_n for the series z f' of the C-condition."""
    pairs = []
    for n, coeff in zip(range(f.truncation_order, 1, -1), reversed(f.coefficients)):
        a = n * coeff if zfprime else coeff
        pairs.append((a, n * a))
    return f.convention is SignConvention.NEGATIVE_TAIL, tuple(pairs)


def _horner_pair(table: tuple[bool, tuple], z: complex) -> tuple[complex, complex]:
    """(f(z), f'(z)) in one pass, each in eval_series's and eval_deriv's order."""
    negative, pairs = table
    acc = dacc = 0j
    for coeff, dcoeff in pairs:
        acc = acc * z + coeff
        dacc = dacc * z + dcoeff
    if negative:
        return z - acc * z * z, 1 - dacc * z
    return z + acc * z * z, 1 + dacc * z


def _horner_deriv(table: tuple[bool, tuple], z: complex) -> complex:
    """f'(z) from the n * coeff_n half of the table."""
    negative, pairs = table
    acc = 0j
    for _, dcoeff in pairs:
        acc = acc * z + dcoeff
    return 1 - acc * z if negative else 1 + acc * z


def eval_series(f: CoefficientSeq, z: complex) -> complex:
    """f(z) by Horner evaluation of the truncated tail."""
    z = _require_in_disk(z)
    acc = 0j
    for coeff in reversed(f.coefficients):
        acc = acc * z + coeff
    tail = acc * z * z
    return z - tail if f.convention is SignConvention.NEGATIVE_TAIL else z + tail


def eval_deriv(f: CoefficientSeq, z: complex) -> complex:
    """f'(z) by Horner evaluation."""
    return _horner_deriv(_pair_table(f), _require_in_disk(z))


# ---- condition values ----

def _s_value(table: tuple[bool, tuple], z: complex, lam: float,
             denominator_floor: float) -> tuple[float, bool]:
    if z == 0:
        return 0.0, True   # w -> 1 by normalization
    fz, dfz = _horner_pair(table, z)
    num = z * dfz
    den = (1 - lam) * fz + lam * num
    if abs(den) < denominator_floor:
        return 0.0, False
    w = num / den
    wp1 = w + 1
    if abs(wp1) < denominator_floor:
        return 0.0, False
    return abs(w - 1) / abs(wp1), True


def _r_value(table: tuple[bool, tuple], z: complex, r: RParams,
             denominator_floor: float) -> tuple[float, bool]:
    d = _horner_deriv(table, z) - 1
    den = (r.A - r.B) * r.tau - r.B * d
    if abs(den) < denominator_floor:
        return 0.0, False
    return abs(d) / abs(den), True


def s_condition_value(f: CoefficientSeq, z: complex, c: ClassParams,
                      denominator_floor: float = DEFAULT_FLOOR) -> tuple[float, bool]:
    """(|w-1|/|w+1|, valid) at z; valid=False marks a near-singular denominator."""
    return _s_value(_pair_table(f), _require_in_disk(z), c.lam, denominator_floor)


def c_condition_value(f: CoefficientSeq, z: complex, c: ClassParams,
                      denominator_floor: float = DEFAULT_FLOOR) -> tuple[float, bool]:
    """S-condition value of z f'(z)."""
    return _s_value(_pair_table(f, zfprime=True), _require_in_disk(z), c.lam,
                    denominator_floor)


def r_condition_value(f: CoefficientSeq, z: complex, r: RParams,
                      denominator_floor: float = DEFAULT_FLOOR) -> tuple[float, bool]:
    """|f'-1| / |(A-B) tau - B (f'-1)| at z, against threshold 1."""
    return _r_value(_pair_table(f), _require_in_disk(z), r, denominator_floor)


# ---- grid sampling ----

def grid_check(f: CoefficientSeq, condition: ConditionId, params,
               grid: GridSpec = GridSpec()) -> GridReport:
    """Evaluate the condition over all grid points.

    The maximum is taken over valid points with a deterministic tie-break
    (first radius, then first angle); a point counts as a violation when its
    value reaches the class threshold (k for S/C, 1 for R).
    """
    if condition is ConditionId.R_COND:
        if not isinstance(params, RParams):
            raise DomainError("R condition requires RParams")
        threshold = 1.0
        table = _pair_table(f)
        value_at = lambda z: _r_value(table, z, params, grid.denominator_floor)
    else:
        if not isinstance(params, ClassParams):
            raise DomainError("S/C conditions require ClassParams")
        threshold = params.k
        # the C-condition is the S-condition of z f', built once per grid
        table = _pair_table(f, zfprime=condition is ConditionId.C_COND)
        value_at = lambda z: _s_value(table, z, params.lam, grid.denominator_floor)

    max_value = -math.inf
    argmax = 0j
    violations = 0
    skipped = 0
    step = 2 * math.pi / grid.points_per_circle
    for radius in grid.radii:
        for j in range(grid.points_per_circle):
            z = cmath.rect(radius, j * step)
            if abs(z) >= 1:
                _require_in_disk(z)   # raises; GridSpec radii below 1 may still round out
            value, valid = value_at(z)
            if not valid:
                skipped += 1
                continue
            if value > max_value:
                max_value = value
                argmax = z
            if value >= threshold:
                violations += 1
    if max_value == -math.inf:
        max_value = 0.0   # every point skipped
    return GridReport(condition=condition, max_value=max_value, argmax_z=argmax,
                      violations=violations, skipped=skipped)
