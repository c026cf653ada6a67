"""Spectral concentration of extensive observables in evolved product states."""

from __future__ import annotations

import functools
import math
import tracemalloc

import numpy as np
import pytest

from klocal.bounds import BoundParams
from klocal.concentration import (
    ExtensiveObservable,
    TailProfile,
    band_matrix,
    build_product_state,
    evolve_product_state,
    fit_tail_constants,
    tail_profile,
    topo_error_estimate,
)
from klocal.errors import DomainError, ResourceLimitError, ValidationError
from klocal.models import build_model
from klocal.oracle import to_dense
from klocal.pauli import KLocalOperator, PauliString


class TestProductStates:
    def test_named_states(self):
        np.testing.assert_allclose(build_product_state("0", 1), [1, 0])
        np.testing.assert_allclose(build_product_state("1", 1), [0, 1])
        np.testing.assert_allclose(
            build_product_state("+", 1), [1 / math.sqrt(2), 1 / math.sqrt(2)]
        )

    def test_site_ordering(self):
        # site 0 is the least-significant qubit: "10" puts |1> on site 0
        psi = build_product_state("10", 2)
        np.testing.assert_allclose(psi, [0, 1, 0, 0])

    def test_explicit_vectors(self):
        psi = build_product_state([[1, 0], [0, 1]])
        np.testing.assert_allclose(psi, [0, 0, 1, 0])  # |0> site0, |1> site1

    def test_normalization_enforced(self):
        with pytest.raises(ValidationError):
            build_product_state([[1.0, 1.0]])

    def test_evolution_phase_only_for_eigenstate(self):
        h = build_model("product_field", {"n_sites": 3, "axis": "z"})
        psi_t = evolve_product_state(h, "000", 0.7)
        psi_0 = build_product_state("000", 3)
        overlap = abs(np.vdot(psi_0, psi_t))
        assert overlap == pytest.approx(1.0)

    def test_bell_evolution(self):
        # H = X0 X1 at t = pi/4: |00> -> (|00> - i|11>)/sqrt(2)
        h = KLocalOperator(2, {PauliString.from_letters(2, {0: "X", 1: "X"}): 1.0})
        psi = evolve_product_state(h, "00", math.pi / 4)
        expected = np.zeros(4, dtype=complex)
        expected[0] = 1 / math.sqrt(2)
        expected[3] = -1j / math.sqrt(2)
        np.testing.assert_allclose(psi, expected, atol=1e-12)


# Columns: the +1 and the -1 eigenvector of each letter, the dense reference
# for ExtensiveObservable's factored eigenbasis.
SITE_BASES = {
    "X": np.array([[1, 1], [1, -1]]) / math.sqrt(2),
    "Y": np.array([[1, 1], [1j, -1j]]) / math.sqrt(2),
    "Z": np.eye(2),
}


def kron_eigenbasis(letters: str) -> np.ndarray:
    """V = V_{n-1} (x) ... (x) V_0 for per-site letters in site order."""
    return functools.reduce(np.kron, [SITE_BASES[c] for c in reversed(letters)], np.ones((1, 1)))


def assert_rotates_like(a: ExtensiveObservable, v: np.ndarray, rng) -> None:
    dim = v.shape[0]
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    np.testing.assert_allclose(a.to_eigenbasis(psi), v.conj().T @ psi, rtol=0, atol=1e-12)
    np.testing.assert_allclose(a.to_eigenbasis(m), v.conj().T @ m @ v, rtol=0, atol=1e-12)


class TestExtensiveObservable:
    def test_collective_spectrum(self):
        a = ExtensiveObservable.collective(3, "z")
        assert a.eigenvalues.min() == pytest.approx(-3.0)
        assert a.eigenvalues.max() == pytest.approx(3.0)

    def test_expectation(self):
        a = ExtensiveObservable.collective(2, "z")
        assert tail_profile(build_product_state("00", 2), a).mean == pytest.approx(2.0)
        assert tail_profile(build_product_state("01", 2), a).mean == pytest.approx(0.0)
        mixed = ExtensiveObservable("XZ", [-1.0, 1.0])
        assert tail_profile(build_product_state("-1", 2), mixed).mean == pytest.approx(0.0)
        assert tail_profile(build_product_state("-0", 2), mixed).mean == pytest.approx(2.0)

    def test_unit_norm_site_terms_required(self):
        for signs in ([2.0, 1.0], [1.0], [1.0, 1.0, -1.0], [0.0, 1.0]):
            with pytest.raises(ValidationError, match="sign"):
                ExtensiveObservable("ZZ", signs)
        for letters in ("ZI", "zz", "XW"):
            with pytest.raises(ValidationError, match="letters"):
                ExtensiveObservable(letters)
        with pytest.raises(ValidationError, match="axis"):
            ExtensiveObservable.collective(3, "w")

    def test_resource_limit(self):
        with pytest.raises(ResourceLimitError):
            ExtensiveObservable.collective(13, "z")

    @pytest.mark.parametrize("letter", "XYZ")
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_closed_form_diagonalizes(self, letter, sign, n):
        rng = np.random.default_rng(n)
        a = ExtensiveObservable(letter * n, [sign] * n)
        v = kron_eigenbasis(letter * n)
        np.testing.assert_allclose(v.conj().T @ v, np.eye(2**n), rtol=0, atol=1e-12)
        terms = {PauliString.from_letters(n, {i: letter}): sign for i in rng.permutation(n)}
        matrix = to_dense(KLocalOperator(n, terms)).matrix
        np.testing.assert_allclose(matrix @ v, v * a.eigenvalues, rtol=0, atol=1e-12)
        assert np.all(np.abs(a.eigenvalues) <= n)
        assert_rotates_like(a, v, rng)

    def test_mixed_axes_diagonalize(self, rng):
        signs = [(-1.0) ** i for i in range(4)]
        a = ExtensiveObservable("YXZY", signs)
        v = kron_eigenbasis("YXZY")
        terms = {PauliString.from_letters(4, {i: c}): s for i, (c, s) in enumerate(zip("YXZY", signs))}
        matrix = to_dense(KLocalOperator(4, terms)).matrix
        np.testing.assert_allclose(matrix @ v, v * a.eigenvalues, rtol=0, atol=1e-12)
        assert_rotates_like(a, v, rng)

    def test_z_axis_rotation_is_the_identity(self, rng):
        a = ExtensiveObservable.collective(3, "z")
        m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        assert np.array_equal(a.to_eigenbasis(m), m)

    def test_to_eigenbasis_shape_validation(self):
        a = ExtensiveObservable.collective(3, "x")
        with pytest.raises(ValidationError, match="shape"):
            a.to_eigenbasis(np.ones(4, dtype=complex))

    def test_collective_builds_no_dense_basis(self):
        # a dense 2**12 x 2**12 complex eigenbasis alone would be 268 MB
        tracemalloc.start()
        try:
            ExtensiveObservable.collective(12, "x")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    def test_non_real_coefficient_rejected(self):
        with pytest.raises(ValidationError, match="sign"):
            ExtensiveObservable("Z", [1j])


class TestTailProfile:
    def test_top_of_spectrum_state(self):
        psi = build_product_state("0" * 5)
        a = ExtensiveObservable.collective(5, "z")
        profile = tail_profile(psi, a, r_grid=[0.0, 1.0, 2.0])
        assert profile.mean == pytest.approx(5.0)
        assert profile.tail(0.0) == pytest.approx(1.0)
        # any R >= 1 exceeds the top of the spectrum
        assert profile.tail(1.0) == 0.0
        assert profile.tail(2.0) == 0.0

    def test_binomial_reference(self):
        # |+>^N with A = sum Z: tail(R)^2 = binomial upper tail
        n = 10
        psi = build_product_state("+" * n)
        a = ExtensiveObservable.collective(n, "z")
        profile = tail_profile(psi, a, r_grid=range(0, n + 1))
        assert profile.mean == pytest.approx(0.0, abs=1e-12)
        for r, tail in profile.samples:
            weight = sum(
                math.comb(n, m) for m in range(n + 1) if n - 2 * m >= r - 1e-12
            ) / 2.0**n
            assert tail**2 == pytest.approx(weight, abs=1e-9)

    def test_flat_profile_fits_infinite_decay(self):
        # equal log-tails: the decay length is infinite by construction, not
        # by the sign of a rounding-level least-squares slope
        tail = math.sqrt(0.6)
        profile = TailProfile(mean=0.0, samples=((0.0, tail), (0.7, tail), (1.4, tail), (2.1, 0.0)))
        c1, c2 = fit_tail_constants(profile, BoundParams(g=1.0, k=2), 0.3, 5)
        assert c2 == math.inf
        assert c1 == math.exp(math.log(tail))

    def test_monotone_non_increasing(self):
        psi = evolve_product_state(
            build_model("long_range_ising", {"n_sites": 6, "alpha": math.inf, "coupling": 1.0, "field": 1.0}),
            "+" * 6,
            0.01,
        )
        a = ExtensiveObservable.collective(6, "z")
        profile = tail_profile(psi, a, r_grid=np.linspace(0, 6, 13))
        tails = [t for _, t in profile.samples]
        assert all(a >= b - 1e-12 for a, b in zip(tails, tails[1:]))


class TestBandMatrix:
    def test_commuting_case_is_diagonal(self):
        a = ExtensiveObservable.collective(4, "z")
        op = KLocalOperator(4, {PauliString.from_letters(4, {0: "Z", 1: "Z"}): 1.0})
        band = band_matrix(op, a, 1.0)
        off = band.norms.copy()
        np.fill_diagonal(off, 0.0)
        assert np.max(off) == 0.0

    def test_single_flip_couples_adjacent_bands(self):
        a = ExtensiveObservable.collective(3, "z")
        op = KLocalOperator(3, {PauliString.from_letters(3, {0: "X"}): 1.0})
        band = band_matrix(op, a, 2.0)  # bins hold single eigenvalues
        # X flips one spin: |Delta A| = 2, i.e. exactly one bin over
        for bx in range(band.n_bins):
            for by in range(band.n_bins):
                if abs(bx - by) > 1:
                    assert band.norms[bx, by] == 0.0

    def test_bin_width_validation(self):
        a = ExtensiveObservable.collective(2, "z")
        op = KLocalOperator(2, {PauliString.from_letters(2, {0: "X"}): 1.0})
        with pytest.raises(DomainError):
            band_matrix(op, a, 0.0)


class TestTopoProbes:
    def test_same_state_diagonal_vanishes(self):
        psi = build_product_state("0101")
        est = topo_error_estimate(psi, psi, 2, n_samples=40, seed=1)
        assert est.diag_max == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_low_weight_probes_blind(self):
        # |0000> vs |1111>: no weight-q < N probe connects or distinguishes
        psi = build_product_state("0000")
        phi = build_product_state("1111")
        est = topo_error_estimate(psi, phi, 2, n_samples=60, seed=3)
        assert est.cross_max == pytest.approx(0.0, abs=1e-12)
        assert est.diag_max == pytest.approx(0.0, abs=1e-12)
        assert est.eps_hat == pytest.approx(0.0, abs=1e-12)

    def test_coefficient_normalization(self):
        # probes carry coefficient q, so eps_hat <= 2q and eps_hat_unit <= 2
        psi = build_product_state("++")
        phi = build_product_state("00")
        est = topo_error_estimate(psi, phi, 2, n_samples=50, seed=0)
        assert est.eps_hat <= 2 * est.q + 1e-12
        assert est.eps_hat_unit == pytest.approx(est.eps_hat / est.q)

    def test_deterministic_for_seed(self):
        psi = build_product_state("+-+-")
        phi = build_product_state("0101")
        a = topo_error_estimate(psi, phi, 3, n_samples=30, seed=9)
        b = topo_error_estimate(psi, phi, 3, n_samples=30, seed=9)
        assert (a.diag_max, a.cross_max) == (b.diag_max, b.cross_max)

    def test_q_validation(self):
        psi = build_product_state("00")
        with pytest.raises(DomainError):
            topo_error_estimate(psi, psi, 0)
        with pytest.raises(DomainError):
            topo_error_estimate(psi, psi, 3)


class TestTailFit:
    def test_fit_on_evolved_chain(self):
        h = build_model(
            "long_range_ising",
            {"n_sites": 6, "alpha": math.inf, "coupling": 1.0, "field": 1.0},
        )
        params = BoundParams.from_operator(h)
        t = 0.5 / params.kappa
        psi = evolve_product_state(h, "+" * 6, t)
        a = ExtensiveObservable.collective(6, "z")
        profile = tail_profile(psi, a)
        c1, c2 = fit_tail_constants(profile, params, t, 6)
        assert c1 > 0
        assert 0 < c2 < math.inf

    def test_domain_errors(self):
        psi = build_product_state("+++")
        a = ExtensiveObservable.collective(3, "z")
        profile = tail_profile(psi, a)
        params = BoundParams(g=1.0, k=2)
        with pytest.raises(DomainError):
            fit_tail_constants(profile, params, 0.0, 3)
