"""Exception types shared across the package."""

from __future__ import annotations


class DomainError(ValueError):
    """A parameter or evaluation point is outside its valid domain."""


class TruncationNotReached(RuntimeError):
    """A series cannot be built: its first Poisson weight m e^-m is subnormal."""


class MissingRParams(ValueError):
    """A predicate that needs (A, B, tau) was invoked without them."""


class InvalidTolerance(ValueError):
    """A solver tolerance is zero, negative, or not finite."""
