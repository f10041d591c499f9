"""The package's public surface, pinned: a name joins or leaves `__all__` only
by an edit to this list."""

import gftpoisson
from gftpoisson import ConditionId

PUBLIC = [
    "BOUNDARY_TOL", "ClassParams", "CoefficientSeq", "ConditionId",
    "DomainError", "GridReport", "GridSpec", "InvalidTolerance",
    "MembershipReport", "MissingRParams", "Outcome", "PoissonParams",
    "PredicateId", "RParams", "SignConvention", "SumKind", "ThresholdResult",
    "TruncationNotReached", "TruncationPolicy", "Verdict",
    "choose_truncation", "classify", "coeffs_F", "coeffs_G", "crosscheck",
    "dumps_canonical", "evaluate", "evaluate_with_crosscheck", "grid_check",
    "partial_shifted_sum", "run_suite", "shifted_exp_sum", "solve_m_star",
    "t1_lhs", "t4_lhs", "t5_lhs",
]


def test_all_is_the_pinned_public_surface():
    assert sorted(gftpoisson.__all__) == PUBLIC


def test_every_public_name_resolves():
    for name in PUBLIC:
        getattr(gftpoisson, name)


def test_the_grid_samples_two_conditions():
    # R^tau(A,B) is only the domain of the operator I, never a disk inequality
    assert [c.value for c in ConditionId] == ["S_cond", "C_cond"]
