"""Decomposition of a k-local Hamiltonian into disjoint-support layers.

``discretize`` chops every term h_X into N_X = floor(||h_X|| / eps)
copies of a unit operator with norm exactly eps (same string, coefficient
rescaled), keeping multiplicities as counts.  ``pack_layers`` then
greedily fills layers with unit copies whose supports are pairwise
disjoint, closing a layer only when no remaining copy fits.  Because a
unit blocked from a layer shares a site with it, each of the at most
k sites of a unit can block it at most floor(g/eps) times, so a maximal
packing needs no more than k * floor(g/eps) layers.  Within one layer
all units commute outright (disjoint supports), so the verifier's
disjointness check also certifies commutation; the exact-commutator
cross-check lives in
``tests/test_layers.py::test_within_layer_disjoint_and_commuting``.

The discretization gap sum_X (||h_X|| - N_X * eps) bounds the norm
distance between the reconstruction and the source Hamiltonian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

from .errors import DomainError, ValidationError
from .models import structural_constants
from .pauli import KLocalOperator, PauliString, Term

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

    ``units`` holds ``(term, multiplicity)`` pairs with ``|term.coeff| == eps``;
    terms whose multiplicity floored to zero are dropped and accounted for
    in ``gap_upper``.
    """

    n_sites: int
    epsilon: float
    units: tuple[tuple[Term, int], ...]
    gap_upper: float
    source_g: float
    source_k: int

    def per_site_multiplicity(self) -> list[int]:
        counts = [0] * self.n_sites
        for term, mult in self.units:
            for site in term.support:
                counts[site] += mult
        return counts

    @property
    def total_multiplicity(self) -> int:
        return sum(m for _, m in self.units)


@dataclass(frozen=True)
class LayerDecomposition:
    """Layers of disjoint-support unit operators covering the pool.

    Each layer is a tuple of ``(term, count)`` assignments; disjointness
    forces ``count == 1`` within a layer, so a unit with multiplicity M
    appears in M distinct layers.
    """

    n_sites: int
    epsilon: float
    layers: tuple[tuple[tuple[Term, int], ...], ...]
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
        disjoint = True
        for layer in self.layers:
            occupied = 0
            for term, count in layer:
                if count != 1:
                    disjoint = False
                mask = term.string.support_mask
                if occupied & mask:
                    disjoint = False
                occupied |= mask
        per_site = [0] * self.n_sites
        for layer in self.layers:
            for term, count in layer:
                for site in term.support:
                    per_site[site] += count
        site_cap = math.floor(self.source_g / self.epsilon)
        multiplicity_ok = all(c <= site_cap for c in per_site)
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
        """JSON-ready export with per-layer unit lists and certificates."""
        layers = []
        for layer in self.layers:
            entries = []
            for term, count in layer:
                letters = term.string.letters
                sites = sorted(letters)
                entries.append(
                    {
                        "sites": sites,
                        "paulis": "".join(letters[s] for s in sites),
                        "coeff": [term.coeff.real, term.coeff.imag],
                        "count": count,
                    }
                )
            layers.append(entries)
        cert = self.verify()
        return {
            "n_sites": self.n_sites,
            "epsilon": self.epsilon,
            "layers": layers,
            "certificates": {
                "layer_count": cert["layer_count"],
                "layer_bound": cert["layer_bound"],
                "within_layer_disjoint": cert["disjoint_ok"],
                "within_layer_commuting": cert["disjoint_ok"],
                "per_site_multiplicity_cap": cert["per_site_cap"],
                "reconstruction_gap_upper": self.reconstruction_gap,
            },
        }


def discretize(hamiltonian: KLocalOperator, epsilon: float) -> UnitPool:
    """Split terms into unit copies of norm ``epsilon``.

    Every term h_X becomes N_X = floor(||h_X||/eps) copies of
    eps * h_X/||h_X||; the remainder mass sum_X (||h_X|| - N_X*eps) is
    reported as ``gap_upper``.  Identity terms are rejected since they
    carry no site support to pack.
    """
    if epsilon <= 0 or not math.isfinite(epsilon):
        raise DomainError(f"epsilon must be positive and finite, got {epsilon}")
    const = structural_constants(hamiltonian)
    units = []
    gap = 0.0
    for term in sorted(
        hamiltonian.terms(), key=lambda tm: (tm.string.x_mask, tm.string.z_mask)
    ):
        if term.weight == 0:
            raise ValidationError("identity term cannot be packed into layers")
        norm = term.norm
        mult = math.floor(norm / epsilon)
        gap += norm - mult * epsilon
        if mult == 0:
            continue
        unit = Term(string=term.string, coeff=term.coeff * (epsilon / norm))
        units.append((unit, mult))
    return UnitPool(
        n_sites=hamiltonian.n_sites,
        epsilon=epsilon,
        units=tuple(units),
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
    order = sorted(
        range(len(pool.units)),
        key=lambda i: (
            -pool.units[i][0].weight,
            pool.units[i][0].string.x_mask,
            pool.units[i][0].string.z_mask,
        ),
    )
    remaining = [mult for _, mult in pool.units]
    layers: list[tuple[tuple[Term, int], ...]] = []
    total_left = sum(remaining)
    while total_left > 0:
        occupied = 0
        layer: list[tuple[Term, int]] = []
        for i in order:
            if remaining[i] == 0:
                continue
            mask = pool.units[i][0].string.support_mask
            if occupied & mask:
                continue
            layer.append((pool.units[i][0], 1))
            occupied |= mask
            remaining[i] -= 1
            total_left -= 1
        # maximality: whatever is left collides with this layer
        for i in order:
            if remaining[i] and not (pool.units[i][0].string.support_mask & occupied):
                raise AssertionError("packing pass left a compatible unit unassigned")
        layers.append(tuple(layer))
    decomp = LayerDecomposition(
        n_sites=pool.n_sites,
        epsilon=pool.epsilon,
        layers=tuple(layers),
        reconstruction_gap=pool.gap_upper,
        source_g=pool.source_g,
        source_k=pool.source_k,
    )
    cert = decomp.verify()
    if not cert["all_ok"]:
        raise AssertionError(f"packing certificate failed: {cert}")
    return decomp


def reconstruct(decomp: LayerDecomposition) -> KLocalOperator:
    """Sum all layers back into one operator.

    The result equals the discretized Hamiltonian, i.e. it differs from
    the source by at most ``reconstruction_gap`` in norm_upper.
    """
    acc: dict[PauliString, complex] = {}
    for layer in decomp.layers:
        for term, count in layer:
            acc[term.string] = acc.get(term.string, 0j) + count * term.coeff
    return KLocalOperator(decomp.n_sites, acc)
