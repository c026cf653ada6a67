"""Spectral concentration of extensive observables in evolved product states."""

from __future__ import annotations

import functools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from klocal.bounds import BoundParams
from klocal.concentration import (
    ExtensiveObservable,
    TailProfile,
    band_matrix,
    build_product_state,
    concentrate,
    evolve_product_state,
    fit_tail_constants,
    tail_profile,
    topo_error_estimate,
)
from klocal.errors import DomainError, ResourceLimitError, ValidationError
from klocal.models import build_model
from klocal.oracle import DenseOperator, EigenSystem, to_dense
from klocal.pauli import KLocalOperator, PauliString

from conftest import apply_pauli_string, random_pauli_string


def _random_hamiltonian(rng: np.random.Generator, n_sites: int, real: bool) -> KLocalOperator:
    """3 * n_sites random terms of weight <= 3; ``real`` keeps only strings
    with an even number of Y letters, whose matrices are real."""
    terms = {}
    while len(terms) < 3 * n_sites:
        string = random_pauli_string(rng, n_sites, 3)
        if not real or (string.x_mask & string.z_mask).bit_count() % 2 == 0:
            terms[string] = rng.uniform(-1.0, 1.0)
    return KLocalOperator(n_sites, terms)


def _named_states(rng: np.random.Generator, n_sites: int) -> str:
    return "".join(rng.choice(list("01+-rl"), size=n_sites))


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


class TestStateEvolution:
    """The Taylor-series evolver against exp(-iHt) from a dense eigh."""

    @pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
    @pytest.mark.parametrize("n_sites", [2, 5, 8])
    def test_matches_dense_eigh(self, rng, n_sites, real):
        h = _random_hamiltonian(rng, n_sites, real)
        matrix = to_dense(h).matrix
        assert np.any(matrix.imag != 0) != real
        values, vectors = np.linalg.eigh(matrix)
        states = _named_states(rng, n_sites)
        amps = vectors.conj().T @ build_product_state(states, n_sites)
        # t * norm_upper runs from 0 to a few hundred substeps
        for t in (0.0, 0.01, -0.4, 3.0, 20.0):
            expected = vectors @ (np.exp(-1j * values * t) * amps)
            got = evolve_product_state(h, states, t)
            assert np.max(np.abs(got - expected)) < 1e-12, t

    def test_zero_time_is_the_product_state(self, rng):
        h = _random_hamiltonian(rng, 4, real=False)
        assert np.array_equal(evolve_product_state(h, "0+r1", 0.0), build_product_state("0+r1", 4))

    def test_non_hermitian_rejected(self):
        h = KLocalOperator(2, {PauliString.from_letters(2, {0: "X"}): 1.0 + 0.5j})
        with pytest.raises(ValidationError, match="Hermitian"):
            evolve_product_state(h, "00", 0.1)

    def test_resource_limit(self):
        h = build_model("product_field", {"n_sites": 13, "axis": "z"})
        with pytest.raises(ResourceLimitError):
            evolve_product_state(h, "0" * 13, 0.1)

    def test_dense_operator_rejected(self):
        h = to_dense(build_model("product_field", {"n_sites": 2, "axis": "z"}))
        with pytest.raises(ValidationError, match="KLocalOperator"):
            evolve_product_state(h, "00", 0.1)


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

    def test_spectrum_builds_no_bit_matrix(self):
        # a (2**16, 16) int64 bit matrix alone would be 8.4 MB
        signs = np.where(np.arange(16) % 3 == 0, -1.0, 1.0)
        tracemalloc.start()
        try:
            eigenvalues = ExtensiveObservable("XYZ" * 5 + "X", signs, n_max=16).eigenvalues
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * eigenvalues.nbytes
        bits = (np.arange(2**16)[:, None] >> np.arange(16)) & 1
        np.testing.assert_array_equal(eigenvalues, (1 - 2 * bits) @ signs)

    def test_non_real_coefficient_rejected(self):
        with pytest.raises(ValidationError, match="sign"):
            ExtensiveObservable("Z", [1j])

    def test_complex_typed_signs_accepted(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            obs = ExtensiveObservable("XZ", [1 + 0j, -1])
        np.testing.assert_array_equal(obs.eigenvalues, [0.0, -2.0, 2.0, 0.0])


class TestTailProfile:
    def test_top_of_spectrum_state(self):
        psi = build_product_state("0" * 5)
        a = ExtensiveObservable.collective(5, "z")
        profile = tail_profile(psi, a, r_grid=[0.0, 1.0, 2.0])
        assert profile.mean == pytest.approx(5.0)
        (r0, tail0), *above = profile.samples
        assert r0 == 0.0 and tail0 == pytest.approx(1.0)
        # any R >= 1 exceeds the top of the spectrum
        assert above == [(1.0, 0.0), (2.0, 0.0)]

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

    @pytest.mark.parametrize("shift", [6e-17, -6e-17])
    def test_grid_end_ignores_the_sign_of_a_rounding_level_mean(self, shift):
        # |+>^4 with 6e-17 of weight moved between the all-ones state
        # (A = -4) and the all-zeros state (A = +4): <A> is +-5e-16, and the
        # grid still ends at R = 4 as it does for <A> = 0
        weights = np.full(16, 1 / 16)
        weights[0] += shift
        weights[15] -= shift
        profile = tail_profile(np.sqrt(weights).astype(complex), ExtensiveObservable.collective(4, "z"))
        assert 0 < profile.mean * np.sign(shift) < 1e-15
        assert [r for r, _ in profile.samples] == [0.0, 1.0, 2.0, 3.0, 4.0]

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

    def test_bin_count_capped_at_spectrum_size(self):
        # 2 sites: at most 2**2 + 1 = 5 bins on [-2, 2]
        a = ExtensiveObservable.collective(2, "z")
        op = KLocalOperator(2, {PauliString.from_letters(2, {0: "X"}): 1.0})
        assert band_matrix(op, a, 0.81).n_bins == 5
        with pytest.raises(DomainError, match="bin_width 0.8 "):
            band_matrix(op, a, 0.8)  # floor(4 / 0.8) + 1 = 6 bins

    def test_symbolic_operator_keeps_the_operator_limit(self):
        a = ExtensiveObservable.collective(9, "z")
        op = KLocalOperator(9, {PauliString.from_letters(9, {0: "X"}): 1.0})
        with pytest.raises(ResourceLimitError, match="limit of 8"):
            band_matrix(op, a, 1.0)
        assert band_matrix(op, a, 1.0, n_max=9).n_bins == 19


class TestConcentrate:
    @pytest.mark.parametrize("n_sites", [4, 5, 6])
    def test_single_bin_row_is_the_parent_norm(self, rng, n_sites):
        h = _random_hamiltonian(rng, n_sites, real=False)
        params = BoundParams.from_operator(h)
        t = 4.5 / params.kappa  # 5 intervals: r_t = 31 > 2N, one bin
        states = _named_states(rng, n_sites)
        found = concentrate(h, params, states, t)
        # the parent: 1 - 2|phi_i><phi_i| on each site i (site 0 is the last
        # Kronecker factor), evolved densely
        parent = np.zeros((2**n_sites, 2**n_sites), dtype=complex)
        for i, v in enumerate(map(build_product_state, states)):
            site = np.eye(2) - 2 * np.outer(v, v.conj())
            parent += np.kron(np.kron(np.eye(2 ** (n_sites - 1 - i)), site), np.eye(2**i))
        evolved = EigenSystem(h, n_sites).evolve_operator(DenseOperator(n_sites, parent), t)
        reference = float(np.max(np.abs(np.linalg.eigvalsh(evolved.matrix))))
        assert found.band.norms.tolist() == [[float(n_sites)]]
        assert found.band.occupancy.tolist() == [True]
        assert found.bands[0][2] == pytest.approx(reference, rel=1e-12, abs=0.0)

    def test_given_eigensystem_gives_the_same_rows(self, rng):
        h = _random_hamiltonian(rng, 4, real=True)
        params = BoundParams.from_operator(h)
        own = concentrate(h, params, "+0r1", 0.3, bin_width=1.0)
        shared = concentrate(h, params, "+0r1", 0.3, bin_width=1.0, eigensystem=EigenSystem(h))
        assert own.band.n_bins == 9
        assert shared.bands == own.bands
        assert shared.tails == own.tails


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

    def test_matches_one_string_application_per_state(self, rng):
        # the probes applied to each state by apply_pauli_string, bit for bit
        n_samples, seed = 40, 5
        for n, q in [(1, 1), (6, 3), (9, 9)]:
            psi, phi = (rng.normal(size=2**n) + 1j * rng.normal(size=2**n) for _ in range(2))
            probes = np.random.default_rng(seed)
            diag_max = cross_max = 0.0
            for _ in range(n_samples):
                sites = probes.choice(n, size=q, replace=False)
                letters = {s: "XYZ"[int(i)] for s, i in zip(sites, probes.integers(0, 3, size=q))}
                string = PauliString.from_letters(n, letters)
                coeff = q * np.exp(1j * probes.uniform(0.0, 2.0 * math.pi))
                probe_psi = coeff * apply_pauli_string(string, psi)
                probe_phi = coeff * apply_pauli_string(string, phi)
                diag_max = max(diag_max, float(abs(np.vdot(psi, probe_psi) - np.vdot(phi, probe_phi))))
                cross_max = max(cross_max, float(abs(np.vdot(psi, probe_phi))))
            est = topo_error_estimate(psi, phi, q, n_samples=n_samples, seed=seed)
            assert (est.diag_max, est.cross_max) == (diag_max, cross_max)

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

    def test_light_cone_beyond_float_range(self):
        # kappa = 288 and t = 4 give n = 1152 intervals, whose r_t has no
        # float: a DomainError, not a bare OverflowError
        profile = tail_profile(build_product_state("++++"), ExtensiveObservable.collective(4, "z"))
        with pytest.raises(DomainError, match="1152 intervals"):
            fit_tail_constants(profile, BoundParams(3.0, 2), 4.0, 4)
