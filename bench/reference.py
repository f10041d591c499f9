"""High-precision reference answers for the benchmark's known-answer checks.

The twelve closed-form membership predicates are re-evaluated with mpmath at
50 significant digits.  Bounded predicates (T4, T5, C3, C6) tend to the limit
scale*P as m grows, so they fail for some m exactly when scale*P > 2k.  For
the predicates whose left-hand side is P m e^m (T1, C1, T3, C5) the threshold
is m* = W(2k/P) with W the principal Lambert W branch (Corless et al., "On the
Lambert W function", 1996).

Only the benchmark imports mpmath; the package under test never does.
"""

from __future__ import annotations

import mpmath
from mpmath import mpf

DIGITS = 50

PREDICATES = ("T1_F_in_S", "T2_F_in_C", "T3_G_in_C", "T4_G_in_S", "T5_I_in_S",
              "T6_I_in_C", "C1_F_in_Sk", "C2_F_in_Ck", "C3_I_in_Sk",
              "C4_I_in_Ck", "C5_G_in_Ck", "C6_G_in_Sk")
NEEDS_R = frozenset({"T5_I_in_S", "T6_I_in_C", "C3_I_in_Sk", "C4_I_in_Ck"})
BOUNDED = frozenset({"T4_G_in_S", "T5_I_in_S", "C3_I_in_Sk", "C6_G_in_Sk"})
LAMBERT = frozenset({"T1_F_in_S", "C1_F_in_Sk", "T3_G_in_C", "C5_G_in_Ck"})

# which closed form each predicate uses: P m e^m, the C-weighted F sum, the
# G bracket, the operator image of the G bracket, and the operator C sum
_FORM = {"T1_F_in_S": "PmE", "C1_F_in_Sk": "PmE", "T3_G_in_C": "PmE",
         "C5_G_in_Ck": "PmE", "T2_F_in_C": "FC", "C2_F_in_Ck": "FC",
         "T4_G_in_S": "G", "C6_G_in_Sk": "G", "T5_I_in_S": "IS",
         "C3_I_in_Sk": "IS", "T6_I_in_C": "IC", "C4_I_in_Ck": "IC"}


def _class(x: dict) -> tuple:
    """(k, lambda) as mpf, with the corollaries evaluated at lambda = 0."""
    lam = 0 if x["pid"].startswith("C") else x["lam"]
    return mpf(x["k"]), mpf(lam)


def _scale(x: dict):
    return (mpf(x["A"]) - mpf(x["B"])) * mpmath.hypot(x["tau_re"], x["tau_im"])


def _p_factor(k, lam):
    return (1 - lam) + k * (1 + lam)


def lhs(x: dict, m) -> mpf:
    """Closed-form left-hand side of predicate x["pid"] at Poisson parameter m."""
    with mpmath.workdps(DIGITS):
        m = mpf(m)
        k, lam = _class(x)
        p = _p_factor(k, lam)
        form = _FORM[x["pid"]]
        if form == "PmE":
            return p * m * mpmath.exp(m)
        if form == "FC":
            q = 1 + 2 * k + k * lam - lam
            return (p * m + 2 * q) * m * mpmath.exp(m)
        if form == "IC":
            return _scale(x) * (p * m - 2 * k * mpmath.expm1(-m))
        bracket = (-p * mpmath.expm1(-m)
                   + (1 - lam) * (k - 1) * (-mpmath.expm1(-m) - m * mpmath.exp(-m)) / m)
        return bracket if form == "G" else _scale(x) * bracket


def rhs(x: dict) -> mpf:
    return 2 * mpf(x["k"])


def margin(x: dict, m) -> mpf:
    """2k - lhs: positive where the predicate holds."""
    with mpmath.workdps(DIGITS):
        return rhs(x) - lhs(x, m)


def limit(x: dict) -> mpf:
    """Limit of the left-hand side as m -> infinity, for a bounded predicate."""
    with mpmath.workdps(DIGITS):
        k, lam = _class(x)
        p = _p_factor(k, lam)
        return p if _FORM[x["pid"]] == "G" else _scale(x) * p


def never_fails(x: dict) -> bool:
    """True when a bounded predicate holds at every m > 0: scale*P <= 2k."""
    return x["pid"] in BOUNDED and limit(x) <= rhs(x)


def lambert_m_star(x: dict) -> mpf:
    """m* = W(2k/P) for the predicates whose left-hand side is P m e^m."""
    with mpmath.workdps(DIGITS):
        k, lam = _class(x)
        return mpmath.lambertw(2 * k / _p_factor(k, lam)).real


def m_star(x: dict) -> mpf | None:
    """First crossing of the margin from positive to negative; None if none."""
    if never_fails(x):
        return None
    if x["pid"] in LAMBERT:
        return lambert_m_star(x)
    with mpmath.workdps(DIGITS):
        lo = mpf("1e-3")
        while margin(x, lo) <= 0:
            lo /= 2
        hi = 2 * lo
        while margin(x, hi) > 0:
            lo, hi = hi, 2 * hi
        return mpmath.findroot(lambda m: margin(x, m), (lo, hi),
                               solver="anderson", maxsteps=400)
