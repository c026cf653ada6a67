"""Dense exact-diagonalization backend and Pauli-basis analysis."""

from __future__ import annotations

import math

import numpy as np
import pytest

from klocal.errors import ResourceLimitError, ValidationError
from klocal.oracle import (
    DenseOperator,
    EigenSystem,
    apply_pauli_string,
    coefficients_to_matrix,
    energy_block_norm,
    heisenberg_evolve,
    operator_norm_exact,
    pauli_coefficients,
    q_local_project,
    spectral_norm,
    to_dense,
    weight_spectrum,
)
from klocal.pauli import KLocalOperator, PauliString, commutator

from conftest import letters_of, random_operator, random_pauli_string

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)


def op1(letter: str, coeff: complex = 1.0) -> KLocalOperator:
    return KLocalOperator(1, {PauliString.from_letters(1, {0: letter}): coeff})


def string_matrix(s: PauliString) -> np.ndarray:
    return to_dense(KLocalOperator(s.n_sites, {s: 1.0})).matrix


def kron_reference(s: PauliString) -> np.ndarray:
    """Matrix of a string as a direct Kronecker product, site 0 last."""
    mats = {"X": X, "Y": Y, "Z": Z}
    factors = [mats.get(letters_of(s).get(i), np.eye(2)) for i in range(s.n_sites)]
    expected = factors[-1]
    for f in factors[-2::-1]:
        expected = np.kron(expected, f)
    return expected


class TestDenseConversion:
    def test_single_site_matrices(self):
        for letter, mat in (("X", X), ("Y", Y), ("Z", Z)):
            s = PauliString.from_letters(1, {0: letter})
            np.testing.assert_allclose(string_matrix(s), mat)

    def test_site_ordering(self):
        # site 0 is the least-significant qubit: X0 acts on the fast index
        s = PauliString.from_letters(2, {0: "X"})
        expected = np.kron(np.eye(2), X)
        np.testing.assert_allclose(string_matrix(s), expected)

    def test_against_direct_kron(self, rng):
        for _ in range(30):
            s = random_pauli_string(rng, 4)
            np.testing.assert_allclose(string_matrix(s), kron_reference(s), atol=1e-14)

    def test_resource_limit_names_override(self):
        big = KLocalOperator(9, {PauliString.from_letters(9, {0: "X"}): 1.0})
        with pytest.raises(ResourceLimitError, match="n_max"):
            to_dense(big)
        dense = to_dense(big, n_max=9)
        assert dense.matrix.shape == (512, 512)

    def test_apply_pauli_string_matches_dense(self, rng):
        for _ in range(40):
            s = random_pauli_string(rng, 5)
            psi = rng.normal(size=32) + 1j * rng.normal(size=32)
            np.testing.assert_allclose(
                apply_pauli_string(s, psi), kron_reference(s) @ psi, atol=1e-12
            )


class TestNorms:
    def test_exact_norm_pythagorean(self):
        op = KLocalOperator(
            2,
            {
                PauliString.from_letters(2, {0: "Z", 1: "Z"}): 1.0,
                PauliString.from_letters(2, {0: "X"}): 1.0,
            },
        )
        assert operator_norm_exact(op) == pytest.approx(math.sqrt(2.0))

    def test_norm_upper_dominates(self, rng):
        for _ in range(15):
            op = random_operator(rng, 4, 5)
            assert operator_norm_exact(op) <= op.norm_upper() + 1e-12

    def test_spectral_norm_paths_agree(self, rng):
        # small matrices use SVD; force the power-iteration path too
        m = rng.normal(size=(40, 40)) + 1j * rng.normal(size=(40, 40))
        reference = np.linalg.norm(m, ord=2)
        assert spectral_norm(m) == pytest.approx(reference)
        big = np.zeros((300, 300), dtype=complex)
        big[:40, :40] = m
        assert spectral_norm(big) == pytest.approx(reference, rel=1e-8)


class TestEvolution:
    def test_single_qubit_rotation(self):
        # H = X: Z(t) = cos(2t) Z - sin(2t) Y
        for t in (0.0, 0.3, -1.1):
            evolved = heisenberg_evolve(op1("X"), op1("Z"), t)
            expected = math.cos(2 * t) * Z - math.sin(2 * t) * Y
            np.testing.assert_allclose(evolved.matrix, expected, atol=1e-12)

    def test_evolution_preserves_norm(self, rng):
        h = random_operator(rng, 3, 4)
        gamma = random_operator(rng, 3, 2)
        before = operator_norm_exact(gamma)
        after = spectral_norm(heisenberg_evolve(h, gamma, 0.37).matrix)
        assert after == pytest.approx(before)

    def test_commutator_is_derivative(self, rng):
        # d/dt Gamma(t)|_0 = -i[H, Gamma]; central difference at t=1e-5
        h = random_operator(rng, 3, 4)
        gamma = random_operator(rng, 3, 2)
        t = 1e-5
        plus = heisenberg_evolve(h, gamma, t).matrix
        minus = heisenberg_evolve(h, gamma, -t).matrix
        derivative = (plus - minus) / (2 * t)
        expected = -1j * to_dense(commutator(h, gamma)).matrix
        assert spectral_norm(derivative - expected) < 1e-7

    def test_evolve_operator_repeats_and_keeps_eigenvectors(self, rng):
        eig = EigenSystem(random_operator(rng, 3, 4))
        gamma = random_operator(rng, 3, 2)
        eigenvectors = eig.eigenvectors.copy()
        first = eig.evolve_operator(gamma, 0.37).matrix
        second = eig.evolve_operator(gamma, 0.37).matrix
        assert np.array_equal(first, second)
        assert np.array_equal(eig.eigenvectors, eigenvectors)


class TestPauliBasis:
    def test_roundtrip(self, rng):
        for n in (1, 2, 3):
            m = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
            dense = DenseOperator(n, m)
            coeffs = pauli_coefficients(dense)
            assert coeffs.shape == (4,) * n
            # Parseval: sum |c_P|^2 * 2^n = ||M||_F^2
            assert np.sum(np.abs(coeffs) ** 2) * 2**n == pytest.approx(
                np.linalg.norm(m, "fro") ** 2
            )
            np.testing.assert_allclose(coefficients_to_matrix(coeffs), m, rtol=0, atol=1e-12)

    def test_coefficients_computed_once_and_read_only(self, rng):
        dense = to_dense(random_operator(rng, 3, 4))
        coeffs = pauli_coefficients(dense)
        assert pauli_coefficients(dense) is coeffs
        assert not coeffs.flags.writeable
        with pytest.raises(ValueError):
            coeffs[(0,) * 3] = 1.0

    def test_known_coefficients(self):
        op = KLocalOperator(
            2,
            {
                PauliString.from_letters(2, {0: "X"}): 0.5,
                PauliString.from_letters(2, {0: "Z", 1: "Z"}): -2.0,
            },
        )
        coeffs = pauli_coefficients(to_dense(op))
        # axis 0 = site 1, axis 1 = site 0; letter order (I, X, Y, Z)
        assert coeffs[0, 1] == pytest.approx(0.5)
        assert coeffs[3, 3] == pytest.approx(-2.0)

    def test_weight_spectrum(self):
        op = KLocalOperator(
            3,
            {
                PauliString.from_letters(3, {0: "X"}): 1.0,
                PauliString.from_letters(3, {0: "Z", 2: "Z"}): 2.0,
            },
        )
        spectrum = weight_spectrum(to_dense(op))
        assert spectrum.weights[1] == pytest.approx(1.0)
        assert spectrum.weights[2] == pytest.approx(4.0)
        assert spectrum.mass_above(1) == pytest.approx(4.0)

    def test_projection_residual(self):
        # H = X, gamma = Z at t: the weight-2 content of the evolved op is
        # zero for one site... use two sites with entangling H instead.
        h = KLocalOperator(2, {PauliString.from_letters(2, {0: "X", 1: "X"}): 1.0})
        z0 = KLocalOperator(2, {PauliString.from_letters(2, {0: "Z"}): 1.0})
        t = 0.4
        evolved = heisenberg_evolve(h, z0, t)
        projected, res_fro, res_op = q_local_project(evolved, 1)
        # Gamma(t) = cos(2t) Z0 - sin(2t) Y0 X1: weight-2 residual |sin 2t|
        assert res_op == pytest.approx(abs(math.sin(2 * t)), rel=1e-9)
        assert res_fro == pytest.approx(2.0 * abs(math.sin(2 * t)), rel=1e-9)
        assert spectral_norm(projected.matrix - math.cos(2 * t) * to_dense(z0).matrix) < 1e-12

    def test_projection_lower_bounds_distance(self, rng):
        # the Frobenius-optimal projection per-dimension lower-bounds the
        # operator-norm distance to ANY q-local operator
        h = random_operator(rng, 3, 4)
        gamma = random_operator(rng, 3, 1, max_weight=1)
        evolved = heisenberg_evolve(h, gamma, 0.8)
        _, res_fro, res_op = q_local_project(evolved, 1)
        assert res_fro / 2 ** (3 / 2) <= res_op + 1e-12


class TestEnergyBlocks:
    def test_commuting_zero_block(self):
        # H = sum Z_i Z_{i+1} on 4 sites (g=2, commuting); gamma 1-local
        acc = {}
        for i in range(3):
            acc[PauliString.from_letters(4, {i: "Z", i + 1: "Z"})] = 1.0
        h = KLocalOperator(4, acc)
        gamma = KLocalOperator(4, {PauliString.from_letters(4, {1: "X"}): 1.0})
        # separation 4.5 > 2*g*q = 4 -> zero block
        assert energy_block_norm(h, gamma, -1.0, 3.5) < 1e-12
        # separation 3.9 < 4 -> nonzero in general
        assert energy_block_norm(h, gamma, -1.0, 2.9) > 0.1

    def test_eigensystem_requires_hermitian(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(ValidationError):
            EigenSystem(DenseOperator(1, m))

    def test_dense_shape_validation(self):
        with pytest.raises(ValidationError):
            DenseOperator(2, np.eye(3, dtype=complex))
