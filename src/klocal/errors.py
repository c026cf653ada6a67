"""Exception types shared across the package, and its one site-count check.

Every error raised by the library derives from :class:`KLocalError`, so
callers can catch one base class.  The CLI maps these onto exit codes:
validation/domain/infeasibility problems exit with 2, resource limits
with 3.
"""

from __future__ import annotations

__all__ = [
    "KLocalError",
    "ValidationError",
    "DimensionMismatchError",
    "DomainError",
    "InfeasibleScheduleError",
    "ResourceLimitError",
    "check_same_sites",
]


class KLocalError(Exception):
    """Base class for all library errors."""


class ValidationError(KLocalError, ValueError):
    """Malformed input: bad spec entries, non-Hermitian Hamiltonians, ..."""


class DimensionMismatchError(ValidationError):
    """Operands live on different numbers of sites."""


class DomainError(KLocalError, ValueError):
    """A numeric argument lies outside the validity window of a formula."""


class InfeasibleScheduleError(KLocalError, ValueError):
    """Requested locality targets cannot be met (e.g. q below 2^n * q0)."""


class ResourceLimitError(KLocalError, RuntimeError):
    """Dense computation would exceed the configured size limit."""


def check_same_sites(n_a: int, n_b: int) -> None:
    """Raise ``DimensionMismatchError`` unless two operands share a site count."""
    if n_a != n_b:
        raise DimensionMismatchError(f"operators on {n_a} and {n_b} sites")
