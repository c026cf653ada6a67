"""Exact dense-matrix oracle for desk-scale verification.

Everything in this module is brute force on 2**n dimensional matrices
and exists to certify the symbolic algebra and the analytic bounds on
small instances.  :func:`site_limit` caps dense-operator work at
``N_MAX_OPERATOR`` sites and statevector work at ``N_MAX_STATE``; an
``n_max`` argument only ever raises a limit.  Hermiticity follows the
``HERMITIAN_TOL`` rule of :mod:`klocal.pauli`, stated in Frobenius norms.

Conventions (shared with :mod:`klocal.concentration`):

- basis index bit i holds site i, so site 0 is the least significant bit;
- bit value 0 is the Z = +1 eigenstate;
- Heisenberg evolution is gamma(t) = U gamma U+ with U = exp(-i H t).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ResourceLimitError, ValidationError, check_same_sites
from .pauli import KLocalOperator, hermitian_rule

__all__ = [
    "N_MAX_OPERATOR",
    "N_MAX_STATE",
    "site_limit",
    "check_sites",
    "DenseOperator",
    "EigenSystem",
    "to_dense",
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


def _per_site(t: np.ndarray, site_matrix: np.ndarray) -> np.ndarray:
    """Apply the 4x4 ``site_matrix`` along every axis of the (4,)*n tensor
    ``t``, two sites per pass.  Each pass applies kron(site_matrix,
    site_matrix) to the two leading axes (``site_matrix`` alone to the
    last axis of an odd n) in one matrix product whose result holds them
    last, so after all passes the axes are back in order."""
    pair = np.kron(site_matrix, site_matrix)
    flat = t.reshape(-1)
    for m in [pair] * (t.ndim // 2) + [site_matrix] * (t.ndim % 2):
        flat = flat.reshape(len(m), -1).T @ m.T
    return flat.reshape(t.shape)


def site_limit(what: str, n_max: int | None = None) -> int:
    """Sites that "dense operator" or "statevector" work may take: its default, or n_max if larger."""
    return max(N_MAX_OPERATOR if what == "dense operator" else N_MAX_STATE, n_max or 0)


def check_sites(n_sites: int, n_max: int | None, what: str) -> None:
    """Raise ``ResourceLimitError`` if ``n_sites`` exceeds :func:`site_limit`."""
    if n_sites > (limit := site_limit(what, n_max)):
        raise ResourceLimitError(
            f"{what} on {n_sites} sites exceeds the limit of {limit}; "
            f"pass n_max={n_sites} (--nmax {n_sites}) to override"
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

    @functools.cached_property
    def pauli_coefficients(self) -> np.ndarray:
        """Read-only Pauli-basis coefficient tensor; see :func:`pauli_coefficients`."""
        n = self.n_sites
        # pair row bit j with column bit j: axes (0, n, 1, n+1, ...)
        t = self.matrix.reshape((2,) * (2 * n)).transpose(np.arange(2 * n).reshape(2, n).T.ravel())
        t = _per_site(t.reshape((4,) * n), _DECOMP)
        t.flags.writeable = False
        return t

    @functools.cached_property
    def hermitian(self) -> bool:
        """The ``HERMITIAN_TOL`` rule on ``M - M+``, decided once."""
        m = self.matrix
        skew = m - m.conj().T
        skew *= 0.5
        return hermitian_rule(skew, m, 2 ** (self.n_sites / 2))


def _pauli_action(n_sites: int, x: int, z: int) -> tuple[np.ndarray, np.ndarray]:
    """The string with masks (x, z) as a signed permutation: P|i> =
    values[i] |flips[i]>, with flips = i XOR x and values =
    i**|x AND z| * (-1)**|i AND z|."""
    idx = np.arange(1 << n_sites, dtype=np.uint64)
    signs = 1.0 - 2.0 * (np.bitwise_count(idx & np.uint64(z)) & np.uint64(1)).astype(float)
    phase = 1j ** ((x & z).bit_count() & 3)
    return idx ^ np.uint64(x), phase * signs


def _x_mask_action(op: KLocalOperator, coeff: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The strings of ``op`` times ``coeff``, summed, as one signed permutation per X mask g:
    (H psi)[j] = sum_g diagonals[g, j] psi[sources[g, j]], each diagonal added from zero in row
    order.  The masks are word 0, which holds every site of a dense operator or state (at most 64)."""
    n, x, z = op.n_sites, op.x[:, 0], op.z[:, 0]
    masks, group = np.unique(x, return_inverse=True)
    sources = np.arange(1 << n, dtype=np.uint64) ^ masks[:, None]
    diagonals = np.zeros(sources.shape, dtype=complex)
    for g, xs, zs, c in zip(group.tolist(), x.tolist(), z.tolist(), coeff.tolist()):
        diagonals[g] += c * _pauli_action(n, xs, zs)[1][sources[g]]
    return sources, diagonals


def to_dense(op: KLocalOperator | DenseOperator, n_max: int | None = None) -> DenseOperator:
    """Assemble the full matrix of a symbolic operator."""
    if isinstance(op, DenseOperator):
        return op
    check_sites(op.n_sites, n_max, "dense operator")
    dim = 2**op.n_sites
    mat = np.zeros((dim, dim), dtype=complex)
    sources, diagonals = _x_mask_action(op, op.coeff)
    mat[np.arange(dim), sources] = diagonals
    return DenseOperator(n_sites=op.n_sites, matrix=mat)


def spectral_norm(mat: np.ndarray) -> float:
    """Largest singular value, exactly, by ``svd`` at every size."""
    if min(mat.shape) == 0:
        return 0.0
    return float(np.linalg.svd(mat, compute_uv=False)[0])


def _exact_norm(mat: np.ndarray, hermitian: bool) -> float:
    """Exact norm: the largest ``|eigvalsh|`` if ``hermitian``, else ``spectral_norm``."""
    if hermitian:
        return float(np.max(np.abs(np.linalg.eigvalsh(mat))))
    return spectral_norm(mat)


def operator_norm_exact(op: KLocalOperator | DenseOperator, n_max: int | None = None) -> float:
    """Exact operator (spectral) norm via the dense oracle."""
    dense = to_dense(op, n_max=n_max)
    return _exact_norm(dense.matrix, dense.hermitian)


class EigenSystem:
    """Eigendecomposition of one Hamiltonian, reused for every time,
    operator, state and energy window asked of it."""

    def __init__(self, hamiltonian: KLocalOperator | DenseOperator, n_max: int | None = None):
        dense = to_dense(hamiltonian, n_max=n_max)
        if not dense.hermitian:
            raise ValidationError("Hamiltonian must be Hermitian for evolution")
        self.n_sites = dense.n_sites
        self.eigenvalues, self.eigenvectors = np.linalg.eigh(dense.matrix)

    def _matrix(self, op: KLocalOperator | DenseOperator) -> np.ndarray:
        check_same_sites(self.n_sites, op.n_sites)
        return to_dense(op, n_max=self.n_sites).matrix

    def evolve_operator(self, gamma: KLocalOperator | DenseOperator, t: float) -> DenseOperator:
        """Heisenberg picture gamma(t) = exp(-iHt) gamma exp(+iHt), exactly."""
        if t == 0:  # exp(0) = I exactly, while V diag(1) V+ is I only to rounding
            return DenseOperator(self.n_sites, self._matrix(gamma))
        u = (self.eigenvectors * np.exp(-1j * self.eigenvalues * t)) @ self.eigenvectors.conj().T
        left = u @ self._matrix(gamma)
        return DenseOperator(self.n_sites, left @ np.conjugate(u, out=u).T)

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
    n_max: int | None = None,
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
    # undo the row/col interleave used in pauli_coefficients
    t = _per_site(coeffs, _RECOMP).reshape((2, 2) * n)
    rows = [2 * j for j in range(n)]
    cols = [2 * j + 1 for j in range(n)]
    return t.transpose(rows + cols).reshape(2**n, 2**n)


@functools.cache
def _weight_tensor(n: int) -> np.ndarray:
    """Read-only (4,)*n tensor of Pauli weights, built once per n."""
    w = np.zeros((4,) * n, dtype=np.int8)
    nz = (np.arange(4) != 0).astype(np.int8)
    for axis in range(n):
        w += nz.reshape((1,) * axis + (4,) + (1,) * (n - axis - 1))
    w.flags.writeable = False
    return w


def weight_spectrum(dense: DenseOperator) -> np.ndarray:
    """Pauli-weight masses: entry q is sum_{|P|=q} |c_P|**2, and they sum to ||M||_F**2 / 2**n."""
    w = _weight_tensor(dense.n_sites).ravel().astype(np.int64)
    return np.bincount(w, weights=np.abs(pauli_coefficients(dense).ravel()) ** 2, minlength=dense.n_sites + 1)


def q_local_project(dense: DenseOperator, q: int) -> tuple[DenseOperator, float, float]:
    """Project onto Pauli weights <= q.

    Returns ``(projected, residual_fro, residual_opnorm)`` where the
    residual is the discarded weight > q component, built from the
    dropped coefficients alone.  The projection is the Frobenius-optimal
    q-local approximation, so ``residual_fro / 2**(n/2) <= inf ||M - W||_op``
    over q-local W; the residual of a Hermitian operator is Hermitian.
    """
    if q < 0:
        raise ValidationError(f"q must be nonnegative, got {q}")
    n = dense.n_sites
    if q >= n:
        return dense, 0.0, 0.0
    dropped = np.where(_weight_tensor(n) > q, pauli_coefficients(dense), 0j)
    residual_fro = float(np.sqrt(np.sum(np.abs(dropped) ** 2) * 2**n))
    residual = coefficients_to_matrix(dropped)
    del dropped  # each step's arrays are 4**n values: free them before the next
    residual_op = _exact_norm(residual, dense.hermitian)
    return DenseOperator(n, dense.matrix - residual), residual_fro, residual_op


def energy_block_norm(
    hamiltonian: KLocalOperator | DenseOperator,
    gamma: KLocalOperator | DenseOperator,
    e_lo: float,
    e_hi: float,
    n_max: int | None = None,
) -> float:
    """Norm of the off-diagonal energy block P_{>= e_hi} gamma P_{<= e_lo};
    see :meth:`EigenSystem.block_norm`."""
    return EigenSystem(hamiltonian, n_max).block_norm(gamma, e_lo, e_hi)
