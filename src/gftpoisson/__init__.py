"""Verification toolkit for Poisson-weighted power series membership in
starlike and convex function classes on the unit disk.

Closed-form membership predicates are paired with independent truncated
series summation and with direct sampling of the defining inequalities, so
every claim can be checked by three routes.
"""

from .criteria import (BOUNDARY_TOL, ClassParams, ConditionId, MembershipReport,
                       RParams, Verdict, classify)
from .disk import GridReport, GridSpec, grid_check
from .errors import (DomainError, InvalidTolerance, MissingRParams,
                     TruncationNotReached)
from .serialize import dumps_canonical
from .series import (CoefficientSeq, PoissonParams, SignConvention, SumKind,
                     TruncationPolicy, choose_truncation, coeffs_F, coeffs_G,
                     partial_shifted_sum, shifted_exp_sum)
from .suite import run_suite
from .theorems import (PredicateId, crosscheck, evaluate,
                       evaluate_with_crosscheck, t1_lhs, t4_lhs, t5_lhs)
from .thresholds import Outcome, ThresholdResult, solve_m_star

__version__ = "0.1.0"

__all__ = [
    "BOUNDARY_TOL", "ClassParams", "CoefficientSeq", "ConditionId",
    "DomainError", "GridReport", "GridSpec", "InvalidTolerance",
    "MembershipReport", "MissingRParams", "Outcome", "PoissonParams",
    "PredicateId", "RParams", "SignConvention", "SumKind",
    "ThresholdResult", "TruncationNotReached", "TruncationPolicy", "Verdict",
    "choose_truncation", "classify", "coeffs_F", "coeffs_G", "crosscheck",
    "dumps_canonical", "evaluate", "evaluate_with_crosscheck", "grid_check",
    "partial_shifted_sum", "run_suite", "shifted_exp_sum", "solve_m_star",
    "t1_lhs", "t4_lhs", "t5_lhs",
]
