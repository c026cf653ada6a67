"""Locality-truncated Heisenberg evolution witnesses.

``hadamard_truncate`` builds the series

    W(t) = sum_{m=0}^{m0} (-i t)**m / m! * L_m,      L_m = [H, L_{m-1}],

with m0 = floor((q - q0)/k), which is q-local by construction (each
nesting grows the weight by at most k) and whose exact distance to
gamma(t) is bounded by :func:`klocal.bounds.small_time_rhs` inside the
window |t| < 2/kappa.  ``chained_truncate`` splits larger times into
n = ceil(kappa*|t|) intervals and re-truncates at the locality levels of
:func:`klocal.bounds.q_schedule`, certified by
:func:`klocal.bounds.main_rhs`.  Each report carries its bound as
``rhs``, so certificates need not choose between the two.

Each nesting level is pruned at ``threshold``; the summed magnitude of
dropped coefficients is reported as ``pruning_budget`` and belongs on
the right-hand side of any certificate involving the witness.  At the
default threshold the dropped terms are cancellation dust far below the
bound values.  Series coefficients are evaluated in the log domain; the
series stops at the first exactly zero one, since all later ones are too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator

from .bounds import BoundParams, QSchedule, main_rhs, q_schedule, small_time_rhs
from .errors import DomainError, InfeasibleScheduleError, check_same_sites
from .pauli import KLocalOperator, commutator

__all__ = [
    "DEFAULT_PRUNE_TOL",
    "TruncationReport",
    "series_coefficient",
    "nested_commutator_levels",
    "hadamard_truncate",
    "chained_truncate",
]

DEFAULT_PRUNE_TOL = 1e-12


@dataclass(frozen=True)
class TruncationReport:
    """A locality-truncated witness plus its certificate ingredients.

    Attributes:
        witness: the truncated operator, locality <= target_q.
        m0: series order of the (final) truncation step.
        target_q: requested locality ceiling.
        pruning_budget: summed magnitude of pruned coefficients across
            all nesting levels (and all intervals, for chained runs).
        bound_rhs: ``rhs`` at the cheap norm proxy ``gamma.norm_upper()``.
        rhs: the analytic error bound as a function of the norm of gamma
            (``small_time_rhs`` or ``main_rhs`` over this run's params, q0,
            target q and t); certificates evaluate it at the exact norm.
        schedule: locality schedule for chained runs, None otherwise.
    """

    witness: KLocalOperator
    m0: int
    target_q: int
    pruning_budget: float
    bound_rhs: float
    rhs: Callable[[float], float]
    schedule: QSchedule | None = None


def series_coefficient(t: float, m: int) -> complex:
    """(-i t)**m / m! evaluated stably in the log domain."""
    if m < 0:
        raise DomainError(f"series order must be nonnegative, got {m}")
    if m == 0:
        return 1.0 + 0.0j
    if t == 0.0:
        return 0.0j
    log_mag = m * math.log(abs(t)) - math.lgamma(m + 1)
    if log_mag < -745.0:
        return 0.0j
    mag = math.exp(log_mag)
    phase = (-1j if t > 0 else 1j) ** (m & 3)
    return mag * phase


def nested_commutator_levels(
    hamiltonian: KLocalOperator,
    gamma: KLocalOperator,
    max_m: int,
    threshold: float = DEFAULT_PRUNE_TOL,
) -> Iterator[tuple[int, KLocalOperator, float]]:
    """Yield (m, L_m, dropped_m) for m = 0..max_m with per-level pruning.

    Stops early once a level vanishes (all later levels are zero too).
    """
    check_same_sites(hamiltonian.n_sites, gamma.n_sites)
    level = gamma
    yield 0, level, 0.0
    for m in range(1, max_m + 1):
        level = commutator(hamiltonian, level)
        level, dropped = level.prune(threshold)
        yield m, level, dropped
        if level.is_zero:
            return


def hadamard_truncate(
    hamiltonian: KLocalOperator,
    gamma: KLocalOperator,
    t: float,
    q: int,
    threshold: float = DEFAULT_PRUNE_TOL,
    params: BoundParams | None = None,
) -> TruncationReport:
    """Single-window q-local witness for gamma(t).

    Requires |t| < 2/kappa and q >= locality(gamma).  The witness is
    exact at t = 0 and its locality never exceeds q.
    """
    if q < 1:
        raise DomainError(f"target locality q must be positive, got {q}")
    params = params or BoundParams.from_operator(hamiltonian)
    q0 = gamma.locality
    if q < q0:
        raise InfeasibleScheduleError(
            f"target locality q={q} below the locality {q0} of gamma"
        )
    rhs = partial(small_time_rhs, params, q0, q, abs(t))
    bound = rhs(gamma.norm_upper())  # refuses |t| outside the series window
    m0 = (q - q0) // params.k
    witness = gamma
    budget = 0.0
    for m, level, dropped in nested_commutator_levels(hamiltonian, gamma, m0, threshold):
        coeff = series_coefficient(t, m)
        if coeff == 0j:  # so is every later one: |t|**m / m! only falls from here
            break
        budget += dropped
        if m:
            witness = witness + coeff * level
    assert witness.locality <= q, "nesting exceeded the locality budget"
    return TruncationReport(
        witness=witness, m0=m0, target_q=q, pruning_budget=budget, bound_rhs=bound, rhs=rhs
    )


def chained_truncate(
    hamiltonian: KLocalOperator,
    gamma: KLocalOperator,
    t: float,
    q: int,
    threshold: float = DEFAULT_PRUNE_TOL,
    params: BoundParams | None = None,
) -> TruncationReport:
    """Multi-interval q-local witness for gamma(t).

    The time is split into n = ceil(kappa*|t|) equal intervals (each
    inside the series window) and the witness is re-truncated after each
    interval at the locality levels of :func:`klocal.bounds.q_schedule`.
    Requires q >= 2**n * locality(gamma).
    """
    params = params or BoundParams.from_operator(hamiltonian)
    q0 = gamma.locality
    schedule = q_schedule(q0, q, params.intervals(t))
    dt = params.delta_t(t)
    witness = gamma
    budget = 0.0
    m0 = 0
    for level_q in schedule.levels:
        step = hadamard_truncate(hamiltonian, witness, dt, level_q, threshold, params)
        witness = step.witness
        budget += step.pruning_budget
        m0 = step.m0
    rhs = partial(main_rhs, params, q0, q, t)
    return TruncationReport(
        witness=witness,
        m0=m0,
        target_q=q,
        pruning_budget=budget,
        bound_rhs=rhs(gamma.norm_upper()),
        rhs=rhs,
        schedule=schedule,
    )
