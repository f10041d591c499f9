"""Class parameters, membership reports and the verdict drawn from a margin.

ClassParams holds (k, lambda) and RParams (A, B, tau); MembershipReport is the
result of one predicate; ConditionId names the two disk conditions, S and C;
classify turns a margin 2k - lhs into a Verdict.

The margins come from coefficient-sum criteria (Silverman, Proc. AMS 51,
1975): z -/+ sum coeff_n z^n lies in S(k,lambda) when sum w_S(n) |coeff_n|
<= 2k with w_S(n) = n P - Q, P = (1-lambda)+k(1+lambda) and
Q = (1-lambda)(1-k), and in C(k,lambda) when the same holds for
w_C(n) = n w_S(n): necessary and sufficient for a negative tail, sufficient
for a general one.  These weights are written once, in series' weight pass,
which forms each term w(n) |coeff_n| as it makes the Poisson weight c_n;
theorems' cross-check compares the sum of those terms with the closed form.
It draws no verdict from the sum, since the weights grow with n, so a bound
on sum_{n>N} |coeff_n| is no bound on the weighted tail.  ClassParams stores
P and Q, and RParams the scale (A-B)|tau|, once, at construction; they and
the result records set every field in one step.  All are series._Record
records: repr, equality and hashing read the constructor fields alone, and
every assignment is refused.  For the class R^tau(A,B)
the n-th coefficient of any member is bounded by (A-B)|tau|/n (Dixit and
Pal, 1995); the operator theorems are about the member that attains it.
"""

from __future__ import annotations

import cmath
import enum
import math

from .errors import DomainError
from .series import _is_real, _Record, _shown

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


class ClassParams(_Record):
    """The pair (k, lambda) with 0 < k <= 1 and 0 <= lambda < 1.

    P = (1 - lambda) + k (1 + lambda) and Q = (1 - lambda)(1 - k), the slope
    and offset of w_S(n) = n P - Q, are stored at construction; they take no
    part in repr, equality or hashing.
    """

    def __init__(self, k: float, lam: float = 0.0) -> None:
        # an exact float needs no type check; nan fails the comparisons
        if not ((type(k) is float or _is_real(k)) and 0 < k <= 1):
            raise DomainError(f"k must be in (0,1], got {_shown(k)}")
        if not ((type(lam) is float or _is_real(lam)) and 0 <= lam < 1):
            raise DomainError(f"lambda must be in [0,1), got {_shown(lam)}")
        k, lam = float(k), float(lam)
        self.__dict__.update(k=k, lam=lam, P=(1 - lam) + k * (1 + lam),
                             Q=(1 - lam) * (1 - k))


class RParams(_Record):
    """The triple (A, B, tau) with -1 <= B < A <= 1 and tau nonzero.

    scale = (A - B)|tau|, the factor multiplying every coefficient bound, is
    stored at construction and must be finite and nonzero: finite A, B and tau
    can still overflow it, and a closed form times inf is no verdict, or
    underflow it to 0, which T5's gap 2k/scale cannot divide by.  It takes no
    part in repr, equality or hashing.
    """

    def __init__(self, A: float, B: float, tau: complex = 1.0 + 0.0j) -> None:
        if not ((type(A) is float or _is_real(A)) and (type(B) is float or _is_real(B))
                and -1 <= B < A <= 1):
            raise DomainError(f"need -1 <= B < A <= 1, got A={_shown(A)}, B={_shown(B)}")
        # an exact complex or float needs no type check, as k and m need none
        if not (type(tau) is complex or type(tau) is float or _is_real(tau)
                or isinstance(tau, complex)):
            raise DomainError(f"tau must be a finite complex number, got {_shown(tau)}")
        t = complex(tau)
        if t == 0:
            raise DomainError("tau must be nonzero")
        if not cmath.isfinite(t):
            raise DomainError(f"tau must be a finite complex number, got {_shown(tau)}")
        A, B = float(A), float(B)
        try:
            scale = (A - B) * abs(t)
        except OverflowError:   # |tau| itself is past the largest double
            scale = math.inf
        if scale == math.inf or scale == 0:
            need = "nonzero" if scale == 0 else "finite"
            raise DomainError(f"the scale (A-B)|tau| must be {need}, "
                              f"got A={A!r}, B={B!r}, tau={_shown(tau)}")
        self.__dict__.update(A=A, B=B, tau=t, scale=scale)


class MembershipReport(_Record):
    def __init__(self, predicate: str, verdict: Verdict, lhs: float, rhs: float,
                 margin: float, crosscheck_residual: float | None = None,
                 truncation_order: int | None = None) -> None:
        self.__dict__.update(predicate=predicate, verdict=verdict, lhs=lhs, rhs=rhs,
                             margin=margin, crosscheck_residual=crosscheck_residual,
                             truncation_order=truncation_order)

    def to_json_dict(self) -> dict:
        return {"predicate": self.predicate, "verdict": self.verdict.value,
                "lhs": self.lhs, "rhs": self.rhs, "margin": self.margin,
                "residual": self.crosscheck_residual, "N": self.truncation_order}


def classify(margin: float) -> Verdict:
    """Verdict from the margin 2k - lhs with the Marginal band BOUNDARY_TOL
    around zero; a nan margin, which no comparison places, is refused."""
    if margin > BOUNDARY_TOL:
        return Verdict.HOLDS
    if margin < -BOUNDARY_TOL:
        return Verdict.FAILS
    if margin == margin:
        return Verdict.MARGINAL
    raise DomainError(f"margin must be a number, got {_shown(margin)}")

