"""Discretization into norm-epsilon units and disjoint-support packing."""

from __future__ import annotations

import math

import numpy as np
import pytest

from klocal.certify import layer_certificate
from klocal.errors import DomainError, ResourceLimitError, ValidationError
from klocal.layers import N_MAX_UNITS, discretize, pack_layers, reconstruct
from klocal.models import build_model, structural_constants
from klocal.oracle import operator_norm_exact, to_dense
from klocal.pauli import ZERO_TOL, KLocalOperator, PauliString, commutator

from conftest import per_site_multiplicity, random_operator, terms_of


def chain_hamiltonian():
    acc = {}
    for i in range(3):
        acc[PauliString.from_letters(4, {i: "Z", i + 1: "Z"})] = 1.0
    for i in range(4):
        acc[PauliString.from_letters(4, {i: "X"})] = 1.0
    return KLocalOperator(4, acc)


class TestDiscretize:
    def test_unit_counts_and_gap(self):
        op = KLocalOperator(2, {PauliString.from_letters(2, {0: "X"}): 1.05})
        pool = discretize(op, 0.5, structural_constants(op))
        assert pool.total_multiplicity == 2
        assert pool.gap_upper == pytest.approx(0.05)
        (mult,) = pool.multiplicity
        (coeff,) = pool.units.coeff.tolist()
        assert mult == 2
        assert abs(coeff) == pytest.approx(0.5)
        # unit keeps the original phase
        assert coeff == pytest.approx(0.5 * 1.05 / 1.05)

    def test_sub_epsilon_term_dropped_into_gap(self):
        op = KLocalOperator(2, {PauliString.from_letters(2, {0: "X"}): 0.2})
        pool = discretize(op, 0.5, structural_constants(op))
        assert pool.total_multiplicity == 0
        assert pool.gap_upper == pytest.approx(0.2)

    def test_exact_multiple_no_gap(self):
        op = KLocalOperator(1, {PauliString.from_letters(1, {0: "Z"}): 1.5})
        pool = discretize(op, 0.5, structural_constants(op))
        assert pool.total_multiplicity == 3
        assert pool.gap_upper == pytest.approx(0.0)

    def test_epsilon_validation(self):
        op = KLocalOperator(1, {PauliString.from_letters(1, {0: "Z"}): 1.0})
        with pytest.raises(DomainError):
            discretize(op, 0.0, structural_constants(op))
        with pytest.raises(DomainError):
            discretize(op, -1.0, structural_constants(op))
        with pytest.raises(DomainError):
            discretize(op, ZERO_TOL, structural_constants(op))

    def test_unit_count_limit(self, monkeypatch):
        def pool(x_coeff, epsilon):
            op = KLocalOperator(2, {
                PauliString.from_letters(2, {0: "X"}): x_coeff,
                PauliString.from_letters(2, {1: "Z"}): 2.0,
            })
            return discretize(op, epsilon, structural_constants(op))

        assert pool(N_MAX_UNITS - 1.5, 1.0).total_multiplicity == N_MAX_UNITS
        # one copy more, or more copies than a float counts, builds no unit
        monkeypatch.setattr(KLocalOperator, "select", lambda *a: pytest.fail("units built"))
        for x_coeff, epsilon in ((N_MAX_UNITS - 0.5, 1.0), (1e300, 1e-13)):
            with pytest.raises(ResourceLimitError, match="unit copies"):
                pool(x_coeff, epsilon)


class TestPackLayers:
    def test_chain_packs_two_body_terms_in_parallel(self):
        h = chain_hamiltonian()
        pool = discretize(h, 0.5, structural_constants(h))
        decomp = pack_layers(pool)
        # g = 3, epsilon = 0.5 -> bound = k * floor(g / eps) = 2 * 6 = 12
        assert decomp.layer_bound == 12
        assert decomp.layer_count <= 12
        cert = decomp.verify()
        assert cert["all_ok"]

    def test_multiplicity_spreads_across_layers(self):
        op = KLocalOperator(1, {PauliString.from_letters(1, {0: "Z"}): 1.5})
        decomp = pack_layers(discretize(op, 0.5, structural_constants(op)))
        # three copies of the same unit cannot share a layer
        assert decomp.layer_count == 3
        for layer in decomp.layers:
            assert layer.n_terms == 1

    def test_zero_hamiltonian(self):
        zero = KLocalOperator(3)
        decomp = pack_layers(discretize(zero, 0.5, structural_constants(zero)))
        assert decomp.layer_count == 0
        assert decomp.verify()["all_ok"]

    def test_within_layer_disjoint_and_commuting(self, rng):
        for trial in range(20):
            op = random_operator(rng, 10, 8, max_weight=3)
            const = structural_constants(op)
            eps = const.g / 3.7
            decomp = pack_layers(discretize(op, eps, const))
            for layer in decomp.layers:
                seen = 0
                for string, _ in terms_of(layer):
                    support = string.x_mask | string.z_mask
                    assert seen & support == 0
                    seen |= support
                ops = [KLocalOperator(op.n_sites, {string: c}) for string, c in terms_of(layer)]
                for i, a in enumerate(ops):
                    for b in ops[i + 1 :]:
                        assert commutator(a, b).is_zero

    def test_reconstruction_gap(self, rng):
        for trial in range(10):
            op = random_operator(rng, 6, 6, max_weight=2)
            const = structural_constants(op)
            eps = const.g / 5.3
            decomp = pack_layers(discretize(op, eps, const))
            rebuilt = reconstruct(decomp)
            gap = (rebuilt - op).norm_upper()
            assert gap <= decomp.pool.gap_upper + 1e-12
            # dense check: operator-norm distance below the same gap
            dense_gap = operator_norm_exact(rebuilt - op)
            assert dense_gap <= decomp.pool.gap_upper + 1e-12

    def test_layer_count_bound_tight_family(self):
        # M identical max-weight terms on one site force M layers
        op = KLocalOperator(1, {PauliString.from_letters(1, {0: "Z"}): 4.0})
        decomp = pack_layers(discretize(op, 1.0, structural_constants(op)))
        assert decomp.layer_count == 4
        assert decomp.layer_bound == 4  # k=1, floor(g/eps)=4

    def test_export_schema(self):
        h = chain_hamiltonian()
        decomp = pack_layers(discretize(h, 0.5, structural_constants(h)))
        doc = decomp.to_json_dict()
        assert set(doc) == {"n_sites", "epsilon", "layers"}
        # the decompose report adds the certificates from klocal.certify
        cert, checks = layer_certificate(h, decomp)
        assert all(check.status == "pass" for check in checks)
        assert cert["layer_count"] == decomp.layer_count
        assert cert["layer_count"] <= cert["layer_bound"]
        assert cert["within_layer_disjoint"] and cert["within_layer_commuting"]
        for layer in doc["layers"]:
            for entry in layer:
                assert set(entry) == {"sites", "paulis", "coeff", "count"}
                assert entry["count"] == 1

    def test_per_site_multiplicity_cap(self, rng):
        for trial in range(10):
            op = random_operator(rng, 8, 10, max_weight=3)
            const = structural_constants(op)
            eps = const.g / 4.1
            pool = discretize(op, eps, const)
            cap = math.floor(const.g / eps)
            assert per_site_multiplicity(pool).max(initial=0) <= cap
