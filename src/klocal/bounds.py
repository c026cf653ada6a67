"""Closed-form locality-spreading bounds for g-extensive k-local Hamiltonians.

Everything here is driven by two numbers extracted from the Hamiltonian:
the interaction degree k and the extensiveness constant g.  From them we
form the commutator growth rate lam = 6*g*k**2, the clock rate
kappa = 4*lam, and the decay length xi = k/ln 2.  For an evolution time t
the chain is cut into n = ceil(kappa*|t|) intervals (n = 1 when the
ceiling would be zero) and the reachable weight radius is
r_t = 2**n - 1.

The evaluators return plain floats, computed in the log domain where
exponents could overflow; values beyond the float range saturate at
``math.inf`` / ``0.0`` instead of raising.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, InfeasibleScheduleError, ValidationError

__all__ = [
    "BoundParams",
    "QSchedule",
    "theorem1_rhs",
    "small_time_rhs",
    "main_rhs",
    "delta_value",
    "q_schedule",
    "topo_error_rhs",
    "band_rhs",
]

_LN2 = math.log(2.0)
_EXP_MAX = 700.0


def _exp_guarded(log_value: float) -> float:
    """exp() that saturates instead of overflowing."""
    if log_value > _EXP_MAX:
        return math.inf
    if log_value < -_EXP_MAX:
        return 0.0
    return math.exp(log_value)


@dataclass(frozen=True)
class BoundParams:
    """Structural constants (g, k) and the derived bound parameters.

    Attributes:
        g: extensiveness constant, nonnegative.
        k: interaction degree, positive integer.
    """

    g: float
    k: int

    def __post_init__(self):
        if not isinstance(self.k, int) or self.k < 1:
            raise ValidationError(f"k must be a positive integer, got {self.k!r}")
        if self.g < 0 or not math.isfinite(self.g):
            raise ValidationError(f"g must be finite and nonnegative, got {self.g!r}")

    @classmethod
    def from_constants(cls, const) -> "BoundParams":
        """Parameters from a Hamiltonian's ``StructuralConstants``; k is
        clamped to >= 1 so the zero operator still yields well-defined
        (degenerate) bounds."""
        return cls(g=const.g, k=max(const.k, 1))

    @classmethod
    def from_operator(cls, op) -> "BoundParams":
        """Derive parameters from a Hamiltonian (see :meth:`from_constants`)."""
        from .models import structural_constants

        return cls.from_constants(structural_constants(op))

    @property
    def lam(self) -> float:
        """Commutator growth rate 6*g*k**2."""
        return 6.0 * self.g * self.k * self.k

    @property
    def kappa(self) -> float:
        """Clock rate 4*lam = 24*g*k**2."""
        return 4.0 * self.lam

    @property
    def xi(self) -> float:
        """Decay length k/ln 2."""
        return self.k / _LN2

    def intervals(self, t: float) -> int:
        """n = ceil(kappa*|t|), remapped to 1 at t = 0."""
        return max(math.ceil(self.kappa * abs(t)), 1)

    def delta_t(self, t: float) -> float:
        """Per-interval duration t/n; always <= 1/kappa in magnitude."""
        return t / self.intervals(t)

    def r_t(self, t: float) -> int:
        """Reachable weight radius 2**n - 1."""
        return 2 ** self.intervals(t) - 1


def theorem1_rhs(params: BoundParams, q: int, gamma_norm: float) -> float:
    """Commutator bound 6*g*k*q*gamma_norm for a q-local operator."""
    if q < 0:
        raise DomainError(f"q must be nonnegative, got {q}")
    if gamma_norm < 0:
        raise DomainError(f"gamma_norm must be nonnegative, got {gamma_norm}")
    return 6.0 * params.g * params.k * q * gamma_norm


def small_time_rhs(params: BoundParams, q0: int, q: int, t: float, gamma_norm: float) -> float:
    """Series-tail bound 2**(q0/k) * x**((q-q0)/k) / (1-x) * gamma_norm, x = kappa*t/2.

    Valid for 0 <= t < 2/kappa; q >= q0.  The exponents are real (not
    floored), so the value decays smoothly as q grows.
    """
    if t < 0:
        raise DomainError(f"t must be nonnegative, got {t}")
    if q < q0:
        raise DomainError(f"q must be >= q0, got q={q}, q0={q0}")
    if gamma_norm < 0:
        raise DomainError(f"gamma_norm must be nonnegative, got {gamma_norm}")
    x = params.kappa * t / 2.0
    if x >= 1.0:
        raise DomainError(f"t={t} outside the validity window t < 2/kappa = {2.0 / params.kappa}")
    if gamma_norm == 0.0:
        return 0.0
    lead = (q0 / params.k) * _LN2 - math.log1p(-x) + math.log(gamma_norm)
    if q == q0:
        return _exp_guarded(lead)
    if x == 0.0:
        return 0.0
    return _exp_guarded(lead + ((q - q0) / params.k) * math.log(x))


def main_rhs(params: BoundParams, q0: int, q: int, t: float, gamma_norm: float) -> float:
    """Best-approximation bound 8*gamma_norm*n*exp(-(1/xi)*(q/r_t - q0)).

    Uses |t|; at t = 0 the interval count is remapped to n = 1, r_t = 1.
    """
    if q < 0:
        raise DomainError(f"q must be nonnegative, got {q}")
    if gamma_norm < 0:
        raise DomainError(f"gamma_norm must be nonnegative, got {gamma_norm}")
    n = params.intervals(t)
    exponent = -(q / params.r_t(t) - q0) / params.xi
    if gamma_norm == 0.0:
        return 0.0
    return _exp_guarded(exponent + math.log(8.0 * gamma_norm * n))


def delta_value(params: BoundParams, q0: int, q: int, t: float) -> float:
    """Per-interval contraction factor Delta = 4*exp(-(1/xi)*(q/r_t - q0))."""
    if q < 0:
        raise DomainError(f"q must be nonnegative, got {q}")
    exponent = -(q / params.r_t(t) - q0) / params.xi
    return _exp_guarded(exponent + math.log(4.0))


@dataclass(frozen=True)
class QSchedule:
    """Locality targets q_m = 2*q_{m-1} + delta_q over n chained intervals."""

    q0: int
    q: int
    n: int
    delta_q: int
    levels: tuple[int, ...]


def q_schedule(q0: int, q: int, n: int) -> QSchedule:
    """Integer locality schedule for an n-interval chain.

    delta_q = floor((q - 2**n * q0) / (2**n - 1)); the final level
    2**n * (q0 + delta_q) - delta_q never exceeds q.

    Raises:
        InfeasibleScheduleError: if q < 2**n * q0.
    """
    if n < 1:
        raise DomainError(f"interval count n must be >= 1, got {n}")
    if q0 < 0:
        raise DomainError(f"q0 must be nonnegative, got {q0}")
    pow2 = 2**n
    if q < pow2 * q0:
        raise InfeasibleScheduleError(
            f"target locality q={q} below 2**n * q0 = {pow2 * q0} (q0={q0}, n={n})"
        )
    delta_q = (q - pow2 * q0) // (pow2 - 1)
    levels = []
    level = q0
    for _ in range(n):
        level = 2 * level + delta_q
        levels.append(level)
    assert levels[-1] == pow2 * (q0 + delta_q) - delta_q <= q
    return QSchedule(q0=q0, q=q, n=n, delta_q=delta_q, levels=tuple(levels))


def topo_error_rhs(params: BoundParams, q0: int, q: int, t: float) -> float:
    """Indistinguishability bound 2*n*exp(-(1/xi)*(q0/r_t - q)) for probes
    of weight q against states dressed up to weight radius r_t from q0."""
    if q0 < 0 or q < 0:
        raise DomainError(f"q0 and q must be nonnegative, got q0={q0}, q={q}")
    exponent = -(q0 / params.r_t(t) - q) / params.xi
    return _exp_guarded(exponent + math.log(2.0 * params.intervals(t)))


def band_rhs(params: BoundParams, t: float, n_sites: int, x_gap: float) -> float:
    """Off-band matrix-element bound C_v*exp(-mu*|x - x'|) with
    C_v = 8*n_sites*exp(5/(2*xi))*n and mu = 1/(2*xi)."""
    if n_sites < 1:
        raise DomainError(f"n_sites must be positive, got {n_sites}")
    if x_gap < 0:
        raise DomainError(f"x_gap must be nonnegative, got {x_gap}")
    n = params.intervals(t)
    mu = 1.0 / (2.0 * params.xi)
    log_cv = math.log(8.0 * n_sites * n) + 5.0 / (2.0 * params.xi)
    return _exp_guarded(log_cv - mu * x_gap)
