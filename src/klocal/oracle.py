"""Exact dense-matrix oracle for desk-scale verification.

Everything in this module is brute force on 2**n dimensional matrices
and exists to certify the symbolic algebra and the analytic bounds on
small instances.  Sizes are guarded: dense-operator work is allowed up
to ``N_MAX_OPERATOR`` sites and statevector work up to ``N_MAX_STATE``,
both overridable per call via ``n_max``.

Conventions (shared with :mod:`klocal.concentration`):

- basis index bit i holds site i, so site 0 is the least significant bit;
- bit value 0 is the Z = +1 eigenstate;
- Heisenberg evolution is gamma(t) = U gamma U+ with U = exp(-i H t).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ResourceLimitError, ValidationError
from .pauli import KLocalOperator, PauliString

__all__ = [
    "N_MAX_OPERATOR",
    "N_MAX_STATE",
    "DenseOperator",
    "EigenSystem",
    "WeightSpectrum",
    "to_dense",
    "apply_pauli_string",
    "spectral_norm",
    "operator_norm_exact",
    "heisenberg_evolve",
    "pauli_coefficients",
    "coefficients_to_matrix",
    "weight_spectrum",
    "q_local_project",
    "energy_block_norm",
]

N_MAX_OPERATOR = 8
N_MAX_STATE = 12
_POWER_TOL = 1e-10  # relative change of the estimate that ends power iteration
_HERMITIAN_TOL = 1e-10  # anti-Hermitian part, relative to the largest entry, that eigh accepts

# Rows map a flattened per-site 2x2 block [B00, B01, B10, B11] to the
# coefficients (c_I, c_X, c_Y, c_Z); _RECOMP is the exact inverse.
_DECOMP = 0.5 * np.array(
    [
        [1, 0, 0, 1],
        [0, 1, 1, 0],
        [0, 1j, -1j, 0],
        [1, 0, 0, -1],
    ],
    dtype=complex,
)
_RECOMP = np.array(
    [
        [1, 0, 0, 1],
        [0, 1, -1j, 0],
        [0, 1, 1j, 0],
        [1, 0, 0, -1],
    ],
    dtype=complex,
)


def _check_sites(n_sites: int, n_max: int, what: str) -> None:
    if n_sites > n_max:
        raise ResourceLimitError(
            f"{what} on {n_sites} sites exceeds the limit of {n_max}; "
            f"pass n_max={n_sites} to override"
        )


@dataclass(frozen=True)
class DenseOperator:
    """A 2**n x 2**n matrix tagged with its site count.  ``pauli_coefficients``
    is computed on first read and kept, so the matrix must not change then."""

    n_sites: int
    matrix: np.ndarray

    def __post_init__(self):
        dim = 2**self.n_sites
        if self.matrix.shape != (dim, dim):
            raise ValidationError(
                f"matrix shape {self.matrix.shape} does not match n_sites={self.n_sites}"
            )

    def is_hermitian(self, tol: float = 1e-10) -> bool:
        return bool(np.max(np.abs(self.matrix - self.matrix.conj().T)) <= tol)

    @functools.cached_property
    def pauli_coefficients(self) -> np.ndarray:
        """Read-only Pauli-basis coefficient tensor; see :func:`pauli_coefficients`."""
        n = self.n_sites
        # pair row bit j with column bit j: axes (0, n, 1, n+1, ...)
        t = self.matrix.reshape((2,) * (2 * n)).transpose(np.arange(2 * n).reshape(2, n).T.ravel())
        t = t.reshape((4,) * n)
        for axis in range(n):
            t = np.moveaxis(np.tensordot(_DECOMP, t, axes=(1, axis)), 0, axis)
        t.flags.writeable = False
        return t


def _pauli_action(n_sites: int, x: int, z: int) -> tuple[np.ndarray, np.ndarray]:
    """The string with masks (x, z) as a signed permutation: P|i> =
    values[i] |flips[i]>, with flips = i XOR x and values =
    i**|x AND z| * (-1)**|i AND z|."""
    idx = np.arange(1 << n_sites, dtype=np.uint64)
    signs = 1.0 - 2.0 * (np.bitwise_count(idx & np.uint64(z)) & np.uint64(1)).astype(float)
    phase = 1j ** ((x & z).bit_count() & 3)
    return idx ^ np.uint64(x), phase * signs


def to_dense(op: KLocalOperator | DenseOperator, n_max: int = N_MAX_OPERATOR) -> DenseOperator:
    """Assemble the full matrix of a symbolic operator."""
    if isinstance(op, DenseOperator):
        return op
    _check_sites(op.n_sites, n_max, "dense operator")
    dim = 2**op.n_sites
    mat = np.zeros((dim, dim), dtype=complex)
    cols = np.arange(dim)
    # a dense operator has at most 64 sites, so its strings fit in word 0
    for x, z, c in zip(op.x[:, 0].tolist(), op.z[:, 0].tolist(), op.coeff.tolist()):
        rows, values = _pauli_action(op.n_sites, x, z)
        mat[rows, cols] += c * values
    return DenseOperator(n_sites=op.n_sites, matrix=mat)


def apply_pauli_string(string: PauliString, psi: np.ndarray) -> np.ndarray:
    """Apply one Pauli string to a statevector without building its matrix."""
    dim = 1 << string.n_sites
    if psi.shape != (dim,):
        raise ValidationError(f"state shape {psi.shape} does not match {string.n_sites} sites")
    flips, values = _pauli_action(string.n_sites, string.x_mask, string.z_mask)
    out = np.empty(dim, dtype=complex)
    out[flips] = values * psi
    return out


def spectral_norm(mat: np.ndarray) -> float:
    """Largest singular value; exact decomposition below dimension 256,
    power iteration (with exact fallback) above."""
    if min(mat.shape) == 0:
        return 0.0
    if max(mat.shape) <= 256:
        return float(np.linalg.svd(mat, compute_uv=False)[0])
    rng = np.random.default_rng(17)
    v = rng.standard_normal(mat.shape[1]) + 1j * rng.standard_normal(mat.shape[1])
    v /= np.linalg.norm(v)
    herm = mat.conj().T
    last = 0.0
    for _ in range(10000):
        w = herm @ (mat @ v)
        s2 = float(np.real(np.vdot(v, w)))
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        v = w / nw
        est = math.sqrt(max(s2, 0.0))
        if abs(est - last) <= _POWER_TOL * max(est, 1.0):
            return est
        last = est
    return float(np.linalg.svd(mat, compute_uv=False)[0])


def operator_norm_exact(op: KLocalOperator | DenseOperator, n_max: int = N_MAX_OPERATOR) -> float:
    """Exact operator (spectral) norm via the dense oracle."""
    dense = to_dense(op, n_max=n_max)
    if dense.is_hermitian():
        return float(np.max(np.abs(np.linalg.eigvalsh(dense.matrix))))
    return spectral_norm(dense.matrix)


class EigenSystem:
    """Eigendecomposition of one Hamiltonian, reused for every time,
    operator, state and energy window asked of it."""

    def __init__(self, hamiltonian: KLocalOperator | DenseOperator, n_max: int = N_MAX_OPERATOR):
        dense = to_dense(hamiltonian, n_max=n_max)
        scale = max(1.0, float(np.max(np.abs(dense.matrix))))
        if not dense.is_hermitian(tol=_HERMITIAN_TOL * scale):
            raise ValidationError("Hamiltonian must be Hermitian for evolution")
        self.n_sites = dense.n_sites
        self.eigenvalues, self.eigenvectors = np.linalg.eigh(dense.matrix)

    def _matrix(self, op: KLocalOperator | DenseOperator) -> np.ndarray:
        if op.n_sites != self.n_sites:
            raise ValidationError(f"operators on {self.n_sites} and {op.n_sites} sites")
        return to_dense(op, n_max=self.n_sites).matrix

    def unitary(self, t: float) -> np.ndarray:
        """exp(-i H t)."""
        phases = np.exp(-1j * self.eigenvalues * t)
        return (self.eigenvectors * phases) @ self.eigenvectors.conj().T

    def evolve_operator(self, gamma: KLocalOperator | DenseOperator, t: float) -> DenseOperator:
        """Heisenberg picture gamma(t) = exp(-iHt) gamma exp(+iHt), exactly."""
        u = self.unitary(t)
        left = u @ self._matrix(gamma)
        return DenseOperator(self.n_sites, left @ np.conjugate(u, out=u).T)

    def evolve_state(self, psi: np.ndarray, t: float) -> np.ndarray:
        amps = self.eigenvectors.conj().T @ psi
        return self.eigenvectors @ (np.exp(-1j * self.eigenvalues * t) * amps)

    def block_norm(self, gamma: KLocalOperator | DenseOperator, e_lo: float, e_hi: float) -> float:
        """Norm of the off-diagonal energy block P_{>= e_hi} gamma P_{<= e_lo}.

        For a Hamiltonian whose terms commute pairwise and a q-local
        gamma, this vanishes whenever e_hi - e_lo > 2*g*q.
        """
        g_matrix = self._matrix(gamma)
        hi = self.eigenvalues >= e_hi
        lo = self.eigenvalues <= e_lo
        if not np.any(hi) or not np.any(lo):
            return 0.0
        block = self.eigenvectors[:, hi].conj().T @ g_matrix @ self.eigenvectors[:, lo]
        return spectral_norm(block)


def heisenberg_evolve(
    hamiltonian: KLocalOperator | DenseOperator,
    gamma: KLocalOperator | DenseOperator,
    t: float,
    n_max: int = N_MAX_OPERATOR,
) -> DenseOperator:
    """Heisenberg picture gamma(t) = exp(-iHt) gamma exp(+iHt), exactly."""
    return EigenSystem(hamiltonian, n_max).evolve_operator(gamma, t)


def pauli_coefficients(dense: DenseOperator) -> np.ndarray:
    """Pauli-basis coefficient tensor, shape (4,)*n with letter order
    (I, X, Y, Z) along each axis; c_P = Tr(P M)/2**n.

    Tensor axis j corresponds to site n-1-j (most-significant site
    first, matching the row-index bit order of the dense matrix).  The
    tensor is computed once per operator and is read-only.
    """
    return dense.pauli_coefficients


def coefficients_to_matrix(coeffs: np.ndarray) -> np.ndarray:
    """Inverse of :func:`pauli_coefficients`."""
    n = coeffs.ndim
    if n == 0:
        return coeffs.reshape((1, 1)).copy()
    t = coeffs
    for axis in range(n):
        t = np.moveaxis(np.tensordot(_RECOMP, t, axes=(1, axis)), 0, axis)
    # undo the row/col interleave used in pauli_coefficients
    t = t.reshape((2, 2) * n)
    rows = [2 * j for j in range(n)]
    cols = [2 * j + 1 for j in range(n)]
    return t.transpose(rows + cols).reshape(2**n, 2**n)


def _weight_tensor(n: int) -> np.ndarray:
    w = np.zeros((4,) * n, dtype=np.int8)
    nz = (np.arange(4) != 0).astype(np.int8)
    for axis in range(n):
        w += nz.reshape((1,) * axis + (4,) + (1,) * (n - axis - 1))
    return w


@dataclass(frozen=True)
class WeightSpectrum:
    """Pauli-weight mass distribution w_q = sum_{|P|=q} |c_P|**2.

    The total mass equals ||M||_F**2 / 2**n.
    """

    weights: np.ndarray

    @property
    def total(self) -> float:
        return float(np.sum(self.weights))

    def mass_above(self, q: int) -> float:
        """Mass at weights strictly greater than q."""
        return float(np.sum(self.weights[q + 1 :]))


def weight_spectrum(dense: DenseOperator) -> WeightSpectrum:
    coeffs = pauli_coefficients(dense)
    n = dense.n_sites
    if n == 0:
        return WeightSpectrum(weights=np.array([abs(coeffs) ** 2]))
    w = _weight_tensor(n)
    mass = np.bincount(
        w.ravel().astype(np.int64), weights=np.abs(coeffs.ravel()) ** 2, minlength=n + 1
    )
    return WeightSpectrum(weights=mass)


def q_local_project(dense: DenseOperator, q: int) -> tuple[DenseOperator, float, float]:
    """Project onto Pauli weights <= q.

    Returns ``(projected, residual_fro, residual_opnorm)`` where the
    residual is the discarded weight > q component.  The projection is
    the Frobenius-optimal q-local approximation, so
    ``residual_fro / 2**(n/2) <= inf ||M - W||_op`` over q-local W.
    """
    if q < 0:
        raise ValidationError(f"q must be nonnegative, got {q}")
    n = dense.n_sites
    coeffs = pauli_coefficients(dense)
    if n == 0:
        return dense, 0.0, 0.0
    w = _weight_tensor(n)
    kept = np.where(w <= q, coeffs, 0j)
    dropped = coeffs - kept
    residual_fro = float(np.sqrt(np.sum(np.abs(dropped) ** 2) * 2**n))
    projected = coefficients_to_matrix(kept)
    residual_opnorm = spectral_norm(dense.matrix - projected)
    return DenseOperator(n, projected), residual_fro, residual_opnorm


def energy_block_norm(
    hamiltonian: KLocalOperator | DenseOperator,
    gamma: KLocalOperator | DenseOperator,
    e_lo: float,
    e_hi: float,
    n_max: int = N_MAX_OPERATOR,
) -> float:
    """Norm of the off-diagonal energy block P_{>= e_hi} gamma P_{<= e_lo};
    see :meth:`EigenSystem.block_norm`."""
    return EigenSystem(hamiltonian, n_max).block_norm(gamma, e_lo, e_hi)
