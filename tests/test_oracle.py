"""Dense exact-diagonalization backend and Pauli-basis analysis."""

from __future__ import annotations

import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from klocal.concentration import evolve_product_state
from klocal.errors import ResourceLimitError, ValidationError
from klocal.oracle import (
    _DECOMP,
    DenseOperator,
    EigenSystem,
    _weight_tensor,
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
from klocal.pauli import HERMITIAN_TOL, KLocalOperator, PauliString, commutator

from conftest import apply_pauli_string, letters_of, random_operator, random_pauli_string, reference_to_dense

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

    def test_n_max_below_the_limit_does_not_lower_it(self):
        six = KLocalOperator(6, {PauliString.from_letters(6, {5: "X"}): 1.0})
        assert to_dense(six, n_max=5).matrix.shape == (64, 64)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_grouped_action_matches_per_string_scatter(self, rng, n):
        # three X masks with up to four complex-coefficient strings each,
        # then a diagonal-only operator (X mask 0 alone), bit for bit
        for x_masks in (rng.integers(0, 2**n, size=3).tolist(), [0]):
            terms = {
                PauliString(n, x, z): complex(*rng.uniform(-1.0, 1.0, size=2))
                for x in x_masks
                for z in rng.integers(0, 2**n, size=4).tolist()
                if x or z
            }
            op = KLocalOperator(n, terms)
            got = to_dense(op).matrix
            assert np.array_equal(got.view(np.uint64), reference_to_dense(op).view(np.uint64))

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
        # zero padding past dimension 256 leaves the norm as it was
        m = rng.normal(size=(40, 40)) + 1j * rng.normal(size=(40, 40))
        reference = np.linalg.norm(m, ord=2)
        assert spectral_norm(m) == pytest.approx(reference)
        big = np.zeros((300, 300), dtype=complex)
        big[:40, :40] = m
        assert spectral_norm(big) == pytest.approx(reference, rel=1e-8)

    def test_spectral_norm_exact_for_close_top_values(self, rng):
        # singular values 10 and 9.99: a power iteration that stopped on a
        # 1e-10 relative change returned 9.99999975 here
        q, _ = np.linalg.qr(rng.normal(size=(300, 300)))
        m = (q * np.concatenate([[10.0, 9.99], rng.uniform(0.0, 9.0, 298)])) @ q.T
        assert spectral_norm(m) == pytest.approx(10.0, rel=1e-12)

    def test_spectral_norm_hermitian_above_256(self, rng):
        a = rng.normal(size=(512, 512)) + 1j * rng.normal(size=(512, 512))
        h = (a + a.conj().T) / 2
        assert spectral_norm(h) == pytest.approx(np.linalg.norm(h, 2), rel=1e-12)


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

    def test_zero_time_is_gamma_exactly(self, rng):
        # V diag(exp(0)) V+ is the identity only to rounding; exp(0) is not
        eig = EigenSystem(random_operator(rng, 3, 4))
        gamma = random_operator(rng, 3, 2, complex_coeffs=True)
        dense = to_dense(gamma)
        for op in (gamma, dense):
            for t in (0.0, -0.0):
                assert np.array_equal(eig.evolve_operator(op, t).matrix, dense.matrix)

    def test_evolve_operator_repeats_and_keeps_eigenvectors(self, rng):
        eig = EigenSystem(random_operator(rng, 3, 4))
        gamma = random_operator(rng, 3, 2)
        eigenvectors = eig.eigenvectors.copy()
        first = eig.evolve_operator(gamma, 0.37).matrix
        second = eig.evolve_operator(gamma, 0.37).matrix
        assert np.array_equal(first, second)
        assert np.array_equal(eig.eigenvectors, eigenvectors)


def tensordot_coefficients(m: np.ndarray) -> np.ndarray:
    """Forward Pauli transform one site axis at a time, by tensordot."""
    n = int(np.log2(m.shape[0]))
    t = m.reshape((2,) * (2 * n)).transpose(np.arange(2 * n).reshape(2, n).T.ravel())
    t = t.reshape((4,) * n)
    for axis in range(n):
        t = np.moveaxis(np.tensordot(_DECOMP, t, axes=(1, axis)), 0, axis)
    return t


def kron_projection(m: np.ndarray, q: int) -> np.ndarray:
    """Sum of c_P P over the strings P of weight <= q, each as a direct
    Kronecker product with c_P = Tr(P M) / 2**n."""
    n = int(np.log2(m.shape[0]))
    out = np.zeros_like(m, dtype=complex)
    for letters in itertools.product(range(4), repeat=n):
        if sum(a != 0 for a in letters) <= q:
            p = functools.reduce(np.kron, [(np.eye(2), X, Y, Z)[a] for a in letters], np.ones((1, 1)))
            out += np.trace(p @ m) / 2**n * p
    return out


def random_matrix(rng: np.random.Generator, n: int, hermitian: bool) -> np.ndarray:
    m = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
    return m + m.conj().T if hermitian else m


class TestPauliBasis:
    def test_roundtrip(self, rng):
        # odd n runs the single-site pass after the two-site ones
        for n in range(9):
            m = random_matrix(rng, n, hermitian=False)
            dense = DenseOperator(n, m)
            coeffs = pauli_coefficients(dense)
            assert coeffs.shape == (4,) * n
            # Parseval: sum |c_P|^2 * 2^n = ||M||_F^2
            assert np.sum(np.abs(coeffs) ** 2) * 2**n == pytest.approx(
                np.linalg.norm(m, "fro") ** 2
            )
            np.testing.assert_allclose(coefficients_to_matrix(coeffs), m, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_per_axis_tensordot(self, rng, n):
        m = random_matrix(rng, n, hermitian=False)
        np.testing.assert_allclose(
            pauli_coefficients(DenseOperator(n, m)), tensordot_coefficients(m), rtol=0, atol=1e-14
        )

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
        assert spectrum[1] == pytest.approx(1.0)
        assert spectrum[2] == pytest.approx(4.0)
        assert spectrum[2:].sum() == pytest.approx(4.0)

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

    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("hermitian", [True, False])
    def test_projection_norm_matches_direct_residual(self, rng, n, hermitian):
        m = random_matrix(rng, n, hermitian)
        dense = DenseOperator(n, m)
        for q in range(n):
            projected, res_fro, res_op = q_local_project(dense, q)
            direct = kron_projection(m, q)
            np.testing.assert_allclose(projected.matrix, direct, rtol=0, atol=1e-12)
            assert res_op == pytest.approx(np.linalg.norm(m - direct, 2), rel=1e-12, abs=1e-12)
            assert res_fro == pytest.approx(np.linalg.norm(m - direct, "fro"), rel=1e-12, abs=1e-12)

    def test_projection_peak_memory(self, rng):
        # the first projection also decides Hermiticity from two dense
        # copies: the dropped coefficients are freed and the residual's norm
        # taken before the projected matrix is formed, so fewer than four
        # arrays of 4**n values are alive at once
        n = 8
        dense = DenseOperator(n, random_matrix(rng, n, hermitian=True))
        dense.pauli_coefficients
        tracemalloc.start()
        try:
            q_local_project(dense, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 16 * 4**n

    def test_projection_drops_nothing_at_q_n(self, rng):
        dense = DenseOperator(3, random_matrix(rng, 3, hermitian=False))
        for q in (3, 4):
            projected, res_fro, res_op = q_local_project(dense, q)
            assert projected is dense
            assert res_fro == 0.0 and res_op == 0.0

    @pytest.mark.parametrize("hermitian, svd_calls", [(True, 0), (False, 4)])
    def test_hermitian_residuals_skip_svd(self, rng, monkeypatch, hermitian, svd_calls):
        calls = []
        svd = np.linalg.svd
        checks = []
        decide = DenseOperator.hermitian.func

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return svd(*args, **kwargs)

        def counted_check(self):
            checks.append(self)
            return decide(self)

        counted_hermitian = functools.cached_property(counted_check)
        counted_hermitian.__set_name__(DenseOperator, "hermitian")
        monkeypatch.setattr(np.linalg, "svd", counted)
        monkeypatch.setattr(DenseOperator, "hermitian", counted_hermitian)
        dense = DenseOperator(4, random_matrix(rng, 4, hermitian))
        for q in range(6):
            q_local_project(dense, q)
        # q = 4 and 5 drop nothing and run no eigensolver
        assert len(calls) == svd_calls
        # the norm takes the residuals' rule: 0 and 5 svd calls in all
        operator_norm_exact(dense)
        assert len(calls) == svd_calls + (not hermitian)
        # and shares their one cached Hermitian test
        assert len(checks) == 1

    def test_weight_tensor_cached_and_read_only(self):
        w = _weight_tensor(4)
        assert _weight_tensor(4) is w
        assert w[0, 1, 2, 3] == 3
        with pytest.raises(ValueError):
            w[(0,) * 4] = 1


def _z0_and_imaginary_x1(scale: float, fraction: float) -> KLocalOperator:
    return KLocalOperator(
        2,
        {
            PauliString.from_letters(2, {0: "Z"}): scale,
            PauliString.from_letters(2, {1: "X"}): 1j * fraction * HERMITIAN_TOL * scale,
        },
    )


def _z_chain_and_imaginary_x0() -> KLocalOperator:
    terms = {PauliString.from_letters(8, {i: "Z"}): 1.0 for i in range(8)}
    return KLocalOperator(8, {**terms, PauliString.from_letters(8, {0: "X"}): 3e-10j})


def _huge_complex_x0_and_z1() -> KLocalOperator:
    # unscaled, both norms of either form overflow to inf, and inf <= TOL * inf
    x0, z1 = PauliString.from_letters(2, {0: "X"}), PauliString.from_letters(2, {1: "Z"})
    return KLocalOperator(2, {x0: 1e200 + 1e200j, z1: 1.0})


@pytest.mark.parametrize(
    "op, hermitian",
    [
        pytest.param(_z0_and_imaginary_x1(scale, fraction), hermitian, id=f"{fraction}-{hermitian}-{scale}")
        for fraction, hermitian in [(0.49, True), (1.01, False)]
        for scale in [1.0, 1000.0]
    ]
    + [
        pytest.param(_z_chain_and_imaginary_x0(), False, id="z-chain-8"),
        pytest.param(_huge_complex_x0_and_z1(), False, id="huge-x0"),
    ],
)
def test_one_hermiticity_rule(op, hermitian):
    # Both forms hold the 2-norm of the anti-Hermitian part against that of
    # the operator: ||Im c||_2 against max(1, ||c||_2), or ||M - M+||_F / 2
    # against max(2**(n/2), ||M||_F), which is the same scaled by 2**(n/2).
    # On Z0 + i f TOL X1 (times a scale) that is f against 1.  On the chain,
    # ||Im c||_2 = 3e-10 exceeds TOL * sqrt(8), though its largest entry of
    # M - M+ lies below TOL times the largest entry of M.
    assert op.is_hermitian() is hermitian
    assert to_dense(op).hermitian is hermitian
    state = "+" * op.n_sites
    if hermitian:
        EigenSystem(op)
        evolve_product_state(op, state, 1e-3)
    else:
        with pytest.raises(ValidationError, match="Hermitian"):
            EigenSystem(op)
        with pytest.raises(ValidationError, match="Hermitian"):
            evolve_product_state(op, state, 1e-3)


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
