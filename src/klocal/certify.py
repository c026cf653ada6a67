"""Certificates: a measured left-hand side held against an analytic bound.

Every check that ``klocal truncate``, ``klocal decompose`` and ``klocal
verify`` report is computed here: commutator growth against
``theorem1_rhs``, the truncated-witness error against the bound its
``TruncationReport`` carries (``rhs``, evaluated at the exact norm of
gamma) plus the pruning budget, the layer packing (``layer_certificate``:
the count against k*floor(g/eps), disjointness, the per-site
multiplicity cap and the reconstruction distance against the
discretization gap), and, for commuting Hamiltonians, the energy-block
law (blocks of gamma between windows more than 2gq apart vanish).  The
concentration rows of ``klocal concentrate`` pair their values with
their envelopes in ``concentration.concentrate``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from typing import Any

from .bounds import BoundParams, theorem1_rhs
from .layers import LayerDecomposition, discretize, pack_layers, reconstruct
from .models import StructuralConstants, structural_constants
from .oracle import EigenSystem, operator_norm_exact, spectral_norm, to_dense
from .pauli import KLocalOperator, commutator
from .truncation import DEFAULT_PRUNE_TOL, TruncationReport, chained_truncate

__all__ = ["Check", "witness_check", "layer_certificate", "verify_checks"]


@dataclass(frozen=True)
class Check:
    """One certificate: ``status`` is ``pass`` iff ``lhs <= rhs``, or
    ``skipped`` when the check does not apply (see ``note``)."""

    check: str
    lhs: float
    rhs: float
    margin: float
    status: str
    note: str = ""

    @classmethod
    def compare(cls, check: str, lhs: float, rhs: float, note: str = "") -> "Check":
        return cls(check, lhs, rhs, rhs - lhs, "pass" if lhs <= rhs else "fail", note)

    @classmethod
    def skipped(cls, check: str, note: str) -> "Check":
        return cls(check, 0.0, 0.0, 0.0, "skipped", note)


def witness_check(
    gamma: KLocalOperator,
    report: TruncationReport,
    t: float,
    eig: EigenSystem,
    gamma_norm: float | None = None,
) -> tuple[Check, float]:
    """Certify a truncated witness of gamma(t) against the exact evolution
    under ``eig``, the eigensystem of the Hamiltonian it was built from.

    The bound is the report's own ``rhs`` evaluated at the exact norm of
    gamma; the check's RHS adds the report's pruning budget.  Returns the
    check and the bound without the budget.  ``gamma_norm`` spares
    recomputing the exact norm when the caller already has it.
    """
    if gamma_norm is None:
        gamma_norm = operator_norm_exact(gamma, n_max=eig.n_sites)
    exact = eig.evolve_operator(gamma, t)
    err = spectral_norm(to_dense(report.witness, n_max=eig.n_sites).matrix - exact.matrix)
    bound = report.rhs(gamma_norm)
    return Check.compare("truncated_witness", err, bound + report.pruning_budget), bound


def layer_certificate(
    hamiltonian: KLocalOperator, const: StructuralConstants, decomp: LayerDecomposition, note: str = ""
) -> tuple[dict[str, Any], list[Check]]:
    """Hold the layer packing ``decomp`` of ``hamiltonian``, whose
    structural constants are ``const``, against its guarantees: at most
    k*floor(g/eps) layers, disjoint supports (hence commuting units)
    within each layer, at most floor(g/eps) units on any site, and a
    reconstruction within the discretization gap of the source in
    norm_upper.

    Returns the certificates under the keys of the ``decompose`` report,
    and as checks with ``note`` on the reconstruction check.
    """
    cap = math.floor(const.g / decomp.pool.epsilon)
    bound = const.k * cap
    disjoint, per_site = decomp.verify()
    most = int(per_site.max(initial=0))
    structure_ok = disjoint and most <= cap
    distance = (reconstruct(decomp) - hamiltonian).norm_upper()
    gap = decomp.pool.gap_upper
    report = {
        "layer_count": decomp.layer_count,
        "layer_bound": bound,
        "within_layer_disjoint": disjoint,
        "within_layer_commuting": disjoint,
        "per_site_multiplicity_cap": cap,
        "reconstruction_gap_upper": gap,
        "reconstruction_vs_source_norm_upper": distance,
    }
    structure_note = "" if structure_ok else f"disjoint={disjoint}, most units on a site={most}, cap={cap}"
    checks = [
        Check.compare("layer_count", float(decomp.layer_count), float(bound)),
        Check.compare("layer_reconstruction", distance, gap + _reconstruction_slack(hamiltonian, cap), note),
        Check.compare("layer_structure", float(not structure_ok), 0.0, structure_note),
    ]
    return report, checks


def _reconstruction_slack(hamiltonian: KLocalOperator, max_copies: int) -> float:
    """Rounding bound on |distance - gap| in :func:`layer_certificate`.

    Both equal sum_X (|h_X| - N_X eps) over the m terms h_X of H in exact
    arithmetic, with N_X <= ``max_copies``.  To first order in the unit
    roundoff u, with S = norm_upper(H): the gap (m addends, each rounded
    at most 4 times, summed in row order) is off by at most (m + 3) u S,
    and the distance (N_X units of 3 roundings summed per term, then a
    difference, a modulus and ``fsum``) by at most (max_copies + 6) u S.
    The slack gamma_K S, with K = m + max_copies + 10 and
    gamma_K = K u / (1 - K u), covers both and the higher orders.
    """
    k = hamiltonian.n_terms + max_copies + 10
    u = sys.float_info.epsilon / 2
    return k * u / (1 - k * u) * hamiltonian.norm_upper()


def verify_checks(
    hamiltonian: KLocalOperator,
    gamma: KLocalOperator,
    *,
    t: float | None = None,
    q: int | None = None,
    epsilon: float | None = None,
    threshold: float = DEFAULT_PRUNE_TOL,
    n_max: int | None = None,
) -> list[Check]:
    """Run the certification suite on one instance.

    Defaults: t = 0.5/kappa, q = 2**n * max(q0, 1) for the n intervals
    of t, and epsilon = g/10 (the layer checks are left out when g = 0
    and no epsilon is given).
    """
    const = structural_constants(hamiltonian)
    params = BoundParams.from_constants(const)
    q0 = gamma.locality
    eig = EigenSystem(hamiltonian, n_max)
    gamma_norm = operator_norm_exact(gamma, n_max=n_max)
    lhs = operator_norm_exact(commutator(hamiltonian, gamma), n_max=n_max)
    checks = [Check.compare("commutator_growth", lhs, theorem1_rhs(params, q0, gamma_norm))]

    if t is None:
        t = 0.5 / params.kappa if params.kappa > 0 else 0.0
    n = params.intervals(t)
    if q is None:
        q = 2**n * max(q0, 1)
    trunc = chained_truncate(hamiltonian, gamma, t, q, threshold=threshold, params=params)
    witness, _ = witness_check(gamma, trunc, t, eig, gamma_norm)
    checks.append(replace(witness, note=f"t={t}, q={q}, intervals={n}"))

    if epsilon is None and const.g > 0:
        epsilon = const.g / 10.0
    if epsilon is not None:
        decomp = pack_layers(discretize(hamiltonian, epsilon))
        checks += layer_certificate(hamiltonian, const, decomp, f"epsilon={epsilon}")[1]

    checks.append(_energy_block_check(hamiltonian, gamma, 2.0 * const.g * q0, eig))
    return checks


def _energy_block_check(
    hamiltonian: KLocalOperator, gamma: KLocalOperator, gap: float, eig: EigenSystem
) -> Check:
    """Blocks of gamma between energy windows more than ``gap`` = 2gq
    apart vanish when the terms of H commute pairwise."""
    if not hamiltonian.terms_commute or hamiltonian.is_zero:
        return Check.skipped("energy_block", "Hamiltonian terms do not commute pairwise")
    lo = float(eig.eigenvalues[0])
    hi = float(eig.eigenvalues[-1])
    width = hi - lo
    if width <= gap * (1 + 1e-9) + 1e-9:
        return Check.skipped("energy_block", "spectrum narrower than 2gq")
    worst = 0.0
    for frac in (0.0, 0.25, 0.5):
        e_lo = lo + frac * (width - gap) / 2.0
        e_hi = e_lo + gap * (1 + 1e-9) + 1e-9
        worst = max(worst, eig.block_norm(gamma, e_lo, e_hi))
    return Check.compare("energy_block", worst, 1e-10, note=f"separation>2gq={gap}")
