"""Decomposition of a k-local Hamiltonian into disjoint-support layers.

``discretize`` chops every term h_X into N_X = floor(||h_X|| / eps)
copies of a unit operator with norm exactly eps (same string, coefficient
rescaled): the units form one operator, with the multiplicities beside
it.  ``pack_layers`` then greedily fills layers with unit copies whose
supports are pairwise disjoint, closing a layer only when no remaining
copy fits; each layer is itself an operator, holding each unit once.
Because a unit blocked from a layer shares a site with it, each of the
at most k sites of a unit can block it at most floor(g/eps) times, so a
maximal packing needs no more than k * floor(g/eps) layers.  Within one
layer all units commute outright (disjoint supports), so the verifier's
disjointness check also certifies commutation; the exact-commutator
cross-check lives in
``tests/test_layers.py::TestPackLayers::test_within_layer_disjoint_and_commuting``.

The discretization gap sum_X (||h_X|| - N_X * eps) bounds the norm
distance between the reconstruction and the source Hamiltonian.
``klocal.certify.layer_certificate`` holds a packing against all of
these, running ``LayerDecomposition.verify`` once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from .errors import DomainError, ValidationError
from .models import StructuralConstants, spec_entries
from .pauli import ZERO_TOL, KLocalOperator, PauliString

__all__ = [
    "UnitPool",
    "LayerDecomposition",
    "discretize",
    "pack_layers",
    "reconstruct",
]


@dataclass(frozen=True)
class UnitPool:
    """Unit operators (norm eps each) with multiplicities.

    ``units`` holds the kept terms in (x_mask, z_mask) order, each with
    ``|coeff| == eps``, and ``multiplicity[i]`` is the copy count of its
    row i; terms whose multiplicity floored to zero are dropped and
    accounted for in ``gap_upper``.
    """

    n_sites: int
    epsilon: float
    units: KLocalOperator
    multiplicity: tuple[int, ...]
    gap_upper: float
    source_g: float
    source_k: int

    @property
    def total_multiplicity(self) -> int:
        return sum(self.multiplicity)


@dataclass(frozen=True)
class LayerDecomposition:
    """Layers of disjoint-support unit operators covering the pool.

    Each layer is an operator holding a unit at most once, so a unit with
    multiplicity M appears in M distinct layers.
    """

    n_sites: int
    epsilon: float
    layers: tuple[KLocalOperator, ...]
    reconstruction_gap: float
    source_g: float
    source_k: int

    @property
    def layer_count(self) -> int:
        return len(self.layers)

    @property
    def layer_bound(self) -> int:
        """Guaranteed ceiling k * floor(g/eps) on the layer count."""
        return self.source_k * math.floor(self.source_g / self.epsilon)

    def verify(self) -> dict[str, Any]:
        """Re-derive the certificates from scratch.

        Returns a dict with the layer-count bound, per-layer support
        disjointness (which implies within-layer commutation: strings on
        disjoint supports commute), and the per-site multiplicity cap;
        ``all_ok`` aggregates them.
        """
        per_layer = [
            np.bincount(layer.letter_sites()[1], minlength=self.n_sites) for layer in self.layers
        ]
        disjoint = all(counts.max(initial=0) <= 1 for counts in per_layer)
        per_site = sum(per_layer, np.zeros(self.n_sites, dtype=np.int64))
        site_cap = math.floor(self.source_g / self.epsilon)
        multiplicity_ok = bool((per_site <= site_cap).all())
        count_ok = self.layer_count <= self.layer_bound
        return {
            "layer_count": self.layer_count,
            "layer_bound": self.layer_bound,
            "count_ok": count_ok,
            "disjoint_ok": disjoint,
            "per_site_cap": site_cap,
            "multiplicity_ok": multiplicity_ok,
            "all_ok": count_ok and disjoint and multiplicity_ok,
        }

    def to_json_dict(self) -> dict[str, Any]:
        """JSON-ready export with per-layer unit lists."""
        return {
            "n_sites": self.n_sites,
            "epsilon": self.epsilon,
            "layers": [[{**entry, "count": 1} for entry in spec_entries(layer)] for layer in self.layers],
        }


def discretize(hamiltonian: KLocalOperator, epsilon: float, const: StructuralConstants) -> UnitPool:
    """Split terms into unit copies of norm ``epsilon``, given the
    structural constants ``const`` of ``hamiltonian``.

    Every term h_X becomes N_X = floor(||h_X||/eps) copies of
    eps * h_X/||h_X||; the remainder mass sum_X (||h_X|| - N_X*eps) is
    reported as ``gap_upper``.  Identity terms are rejected since they
    carry no site support to pack, and so is eps <= ``ZERO_TOL``, whose
    units canonical form would drop.
    """
    if not ZERO_TOL < epsilon < math.inf:
        raise DomainError(f"epsilon must be finite and above {ZERO_TOL}, got {epsilon}")
    if hamiltonian.coefficient(PauliString(hamiltonian.n_sites)):
        raise ValidationError("identity term cannot be packed into layers")
    order = hamiltonian.mask_order()
    norms = hamiltonian.magnitudes[order]
    copies = np.floor(norms / epsilon)
    # cumsum adds in row order, where np.sum would add pairwise
    gap = float(np.cumsum(norms - copies * epsilon)[-1]) if len(norms) else 0.0
    kept = copies > 0
    return UnitPool(
        n_sites=hamiltonian.n_sites,
        epsilon=epsilon,
        units=hamiltonian.select(order[kept], epsilon / norms[kept]),
        multiplicity=tuple(map(int, copies[kept].tolist())),
        gap_upper=gap,
        source_g=const.g,
        source_k=const.k,
    )


def pack_layers(pool: UnitPool) -> LayerDecomposition:
    """Greedy maximal packing of unit copies into disjoint-support layers.

    Unit types are visited in a fixed order (descending support size,
    then mask order) and a copy is added whenever its support avoids the
    layer built so far, so every closed layer is maximal: each remaining
    copy shares a site with it.  That guarantees the layer count stays
    within ``k * floor(g/eps)``.
    """
    rows, sites = pool.units.letter_sites()
    support = [0] * pool.units.n_terms
    for row, site in zip(rows.tolist(), sites.tolist()):
        support[row] |= 1 << site
    # the units are in mask order, which a stable sort keeps within a weight
    weights = np.bincount(rows, minlength=pool.units.n_terms)
    order = np.argsort(-weights, kind="stable").tolist()
    remaining = list(pool.multiplicity)
    layers: list[KLocalOperator] = []
    total_left = sum(remaining)
    while total_left > 0:
        occupied = 0
        layer: list[int] = []
        for i in order:
            if remaining[i] == 0 or occupied & support[i]:
                continue
            layer.append(i)
            occupied |= support[i]
            remaining[i] -= 1
            total_left -= 1
        layers.append(pool.units.select(layer))
    return LayerDecomposition(
        n_sites=pool.n_sites,
        epsilon=pool.epsilon,
        layers=tuple(layers),
        reconstruction_gap=pool.gap_upper,
        source_g=pool.source_g,
        source_k=pool.source_k,
    )


def reconstruct(decomp: LayerDecomposition) -> KLocalOperator:
    """Sum all layers back into one operator.

    The result equals the discretized Hamiltonian, i.e. it differs from
    the source by at most ``reconstruction_gap`` in norm_upper.
    """
    return sum(decomp.layers, KLocalOperator(decomp.n_sites))
