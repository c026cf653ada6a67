"""Spectral concentration of extensive observables in evolved product states.

Tools to measure how the spectrum of an extensive one-local observable
A = sum_i a_i (||a_i|| = 1, one term per site) concentrates in a state
that started as a product state and evolved for a short time:

- ``tail_profile``: upper-tail weights ||P_{>= <A> + R} psi|| over a grid
  of offsets R;
- ``band_matrix``: block norms of an evolved one-local Hamiltonian
  between eigenvalue windows of A, the tight-binding picture behind the
  concentration bound;
- ``topo_error_estimate``: sampled distinguishability of two states by
  weight-q Pauli probes;
- ``fit_tail_constants``: least-squares constants for the analytic tail
  shape c1 * exp(-R / (c2 * r_t * sqrt(t * N))) (fitted, never asserted);
- ``concentrate``: the ``klocal concentrate`` pipeline, each tail and
  band value beside its envelope.

The spectrum of A is exact (integers in [-N, N], no eigensolver) and its
eigenbasis is applied one site at a time, never as a 2**N x 2**N matrix,
but the means <A> it is compared with and the band edges -N + x*w are
floating-point numbers; ``SPECTRAL_TOL`` = 1e-9 keeps an eigenvalue that
sits on a threshold or a bin edge on the intended side of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bounds import BoundParams, band_rhs
from .errors import DomainError, ValidationError
from .oracle import (
    DenseOperator,
    EigenSystem,
    _pauli_action,
    _x_mask_action,
    check_sites,
    spectral_norm,
    to_dense,
)
from .pauli import KLocalOperator, PauliString

__all__ = [
    "SPECTRAL_TOL",
    "ExtensiveObservable",
    "TailProfile",
    "BandMatrix",
    "TopoErrorEstimate",
    "Concentration",
    "build_product_state",
    "evolve_product_state",
    "tail_profile",
    "band_matrix",
    "topo_error_estimate",
    "fit_tail_constants",
    "concentrate",
]

SPECTRAL_TOL = 1e-9

# Columns: the +1 and the -1 eigenvector of each letter (bit value 0 is
# +1); Z needs no rotation.
_SITE_EIGENBASES = {
    "X": np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0),
    "Y": np.array([[1.0, 1.0], [1.0j, -1.0j]], dtype=complex) / math.sqrt(2.0),
}

_NAMED_SITE_STATES = {
    "0": np.array([1.0, 0.0], dtype=complex),
    "1": np.array([0.0, 1.0], dtype=complex),
    "+": np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0),
    "-": np.array([1.0, -1.0], dtype=complex) / math.sqrt(2.0),
    "r": np.array([1.0, 1.0j], dtype=complex) / math.sqrt(2.0),
    "l": np.array([1.0, -1.0j], dtype=complex) / math.sqrt(2.0),
}


class ExtensiveObservable:
    """A = sum_i c_i sigma_i^{a_i}: letter a_i (X, Y or Z) and sign
    c_i = +-1 on each site i.

    The spectrum is in closed form, with no eigensolver: eigenvector j is
    the Kronecker product of single-site eigenvectors (site 0 last) picked
    by the bits of j, with exact eigenvalue sum_i c_i (1 - 2 bit_i(j)).
    Only the per-site ``letters`` are kept; ``to_eigenbasis`` applies the
    eigenbasis V one 2x2 factor at a time.
    """

    def __init__(self, letters: str, signs: Sequence[float] | None = None, n_max: int | None = None):
        """``letters[i]`` and ``signs[i]`` (default all +1) belong to site i."""
        n_sites = len(letters)
        if not set(letters) <= set("XYZ"):
            raise ValidationError(f"site letters must be X, Y or Z, got {letters!r}")
        signs = np.ones(n_sites) if signs is None else np.asarray(signs)
        if signs.shape != (n_sites,) or not np.all((signs == 1) | (signs == -1)):
            raise ValidationError(f"need a sign of +1 or -1 for each of {n_sites} sites, got {signs}")
        check_sites(n_sites, n_max, "statevector")
        self.n_sites = n_sites
        self.letters = letters
        bits = (np.arange(2**n_sites)[:, None] >> np.arange(n_sites)) & 1
        self.eigenvalues = (1 - 2 * bits) @ np.where(signs == 1, 1.0, -1.0)

    @classmethod
    def collective(cls, n_sites: int, axis: str = "z", n_max: int | None = None) -> "ExtensiveObservable":
        """A = sum_i sigma_i^axis."""
        if axis.lower() not in ("x", "y", "z"):
            raise ValidationError(f"axis must be x, y or z, got {axis!r}")
        return cls(axis.upper() * n_sites, n_max=n_max)

    def to_eigenbasis(self, a: np.ndarray) -> np.ndarray:
        """V+ a for a state vector, V+ a V for a matrix, one site at a time;
        Z sites are left untouched."""
        n, dim = self.n_sites, 2**self.n_sites
        if a.shape not in ((dim,), (dim, dim)):
            raise ValidationError(f"shape {a.shape} does not match {n} sites")
        out = a.reshape((2,) * (n * a.ndim))
        for site, v in ((s, _SITE_EIGENBASES[c]) for s, c in enumerate(self.letters) if c != "Z"):
            # site s is axis n-1-s among the rows and 2n-1-s among the columns
            for axis, factor in [(n - 1 - site, v.conj().T), (2 * n - 1 - site, v.T)][: a.ndim]:
                out = np.moveaxis(np.tensordot(factor, out, axes=(1, axis)), 0, axis)
        return out.reshape(a.shape)


def build_product_state(site_states: str | Sequence, n_sites: int | None = None) -> np.ndarray:
    """Assemble a product state from named site states or 2-vectors.

    ``site_states`` is either a string over ``0 1 + - r l`` (one char per
    site) or a sequence of per-site length-2 vectors; every site state
    must be normalized to within 1e-10.
    """
    if isinstance(site_states, str):
        try:
            vectors = [_NAMED_SITE_STATES[ch] for ch in site_states]
        except KeyError as exc:
            raise ValidationError(
                f"unknown site state {exc.args[0]!r}; use one of {sorted(_NAMED_SITE_STATES)}"
            ) from None
    else:
        vectors = [np.asarray(v, dtype=complex).reshape(-1) for v in site_states]
    if n_sites is not None and len(vectors) != n_sites:
        raise ValidationError(f"got {len(vectors)} site states for {n_sites} sites")
    for i, v in enumerate(vectors):
        if v.shape != (2,):
            raise ValidationError(f"site state {i} is not a 2-vector")
        if abs(np.linalg.norm(v) - 1.0) > 1e-10:
            raise ValidationError(f"site state {i} is not normalized")
    acc = np.ones(1, dtype=complex)
    for v in reversed(vectors):
        acc = np.kron(acc, v)
    return acc


def evolve_product_state(
    hamiltonian: KLocalOperator,
    site_states: str | Sequence,
    t: float,
    n_max: int | None = None,
) -> np.ndarray:
    """exp(-iHt) applied to a product state, without a 2**N x 2**N matrix:
    a Taylor series of order 18 in ceil(|t| * norm_upper) substeps tau, so
    ||H tau|| <= 1 and each substep's remainder is at most e/19! < 2.2e-17."""
    h = hamiltonian
    if not isinstance(h, KLocalOperator):
        raise ValidationError(f"need a KLocalOperator to evolve, got {type(h).__name__}")
    if not h.is_hermitian():
        raise ValidationError("Hamiltonian must be Hermitian for evolution")
    check_sites(h.n_sites, n_max, "statevector")
    psi = build_product_state(site_states, n_sites=h.n_sites)
    sources, diagonals = _x_mask_action(h, h.coeff.real)
    steps = math.ceil(abs(t) * h.norm_upper())
    for _ in range(steps):
        term = psi
        for order in range(1, 19):
            term = (-1j * t / (steps * order)) * np.sum(diagonals * term[sources], axis=0)
            psi = psi + term
    return psi


@dataclass(frozen=True)
class TailProfile:
    """Upper-tail weights tail(R) = ||P_{>= mean + R} psi|| on a grid of R."""

    mean: float
    samples: tuple[tuple[float, float], ...]


def tail_profile(
    psi: np.ndarray,
    observable: ExtensiveObservable,
    r_grid: Sequence[float] | None = None,
) -> TailProfile:
    """Tail weights of ``observable`` in state ``psi``.

    The default grid is integer offsets 0, 1, ..., up to the distance
    from <A> to the top of the spectrum at N.  Its end and projector
    membership use the spectral tolerance, so exact spectra behave exactly.
    """
    dim = 2**observable.n_sites
    if psi.shape != (dim,):
        raise ValidationError(f"state shape {psi.shape} does not match {observable.n_sites} sites")
    if abs(np.linalg.norm(psi) - 1.0) > 1e-10:
        raise ValidationError("state is not normalized")
    amps = observable.to_eigenbasis(psi)
    weights = np.abs(amps) ** 2
    mean = float(np.real(np.vdot(amps, observable.eigenvalues * amps)))
    if r_grid is None:
        r_grid = list(range(0, max(int(math.floor(observable.n_sites - mean + SPECTRAL_TOL)), 0) + 1))
    samples = []
    for r in r_grid:
        mask = observable.eigenvalues >= mean + r - SPECTRAL_TOL
        samples.append((float(r), float(math.sqrt(max(np.sum(weights[mask]), 0.0)))))
    return TailProfile(mean=mean, samples=tuple(samples))


@dataclass(frozen=True)
class BandMatrix:
    """Block norms of an operator between eigenvalue bins of A.

    Bin x covers eigenvalues in [-N + x*w, -N + (x+1)*w); entry (x, x')
    is the spectral norm of the corresponding operator block.
    """

    bin_width: float
    norms: np.ndarray
    occupancy: np.ndarray

    @property
    def n_bins(self) -> int:
        return self.norms.shape[0]


def _bin_count(n: int, bin_width: float) -> int:
    """Number of bins of width ``bin_width`` that cover [-N, N]."""
    if bin_width <= 0 or 2 * n / bin_width >= 2**n + 1:
        raise DomainError(
            f"bin_width {bin_width} must be positive and cut [-{n}, {n}] "
            f"into at most 2**N + 1 = {2**n + 1} bins"
        )
    return int(math.floor(2 * n / bin_width)) + 1


def band_matrix(
    op: KLocalOperator | DenseOperator,
    observable: ExtensiveObservable,
    bin_width: float,
    n_max: int | None = None,
) -> BandMatrix:
    """Block norms ||P_x op P_x'|| between eigenvalue bins of ``observable``.

    Bins are anchored at the bottom of the spectrum (-N) and have width
    ``bin_width``; a commuting pair (op diagonal in the A eigenbasis)
    yields a diagonal band matrix.  A width that makes more bins than the
    2**N + 1 that fit a dense operator's size is rejected.
    """
    n = observable.n_sites
    n_bins = _bin_count(n, bin_width)
    dense = to_dense(op, n_max=n_max)
    idx = np.floor((observable.eigenvalues + n) / bin_width + SPECTRAL_TOL).astype(int)
    idx = np.clip(idx, 0, n_bins - 1)
    rotated = observable.to_eigenbasis(dense.matrix)
    norms = np.zeros((n_bins, n_bins))
    members = [np.flatnonzero(idx == b) for b in range(n_bins)]
    occupancy = np.array([rows.size > 0 for rows in members])
    occupied = [(b, rows) for b, rows in enumerate(members) if rows.size]
    for bx, rows in occupied:
        for by, cols in occupied:
            norms[bx, by] = spectral_norm(rotated[np.ix_(rows, cols)])
    return BandMatrix(bin_width=bin_width, norms=norms, occupancy=occupancy)


@dataclass(frozen=True)
class TopoErrorEstimate:
    """Sampled distinguishability of two states under weight-q probes.

    Probes are uniformly random weight-q Pauli strings scaled to norm q
    (coefficient magnitude q, random phase).  ``diag_max`` tracks
    |<psi|P|psi> - <phi|P|phi>| and ``cross_max`` tracks |<psi|P|phi>|;
    ``eps_hat`` is the larger of the two.  ``eps_hat_unit`` rescales to
    unit-norm probes.
    """

    q: int
    n_samples: int
    diag_max: float
    cross_max: float

    @property
    def eps_hat(self) -> float:
        return max(self.diag_max, self.cross_max)

    @property
    def eps_hat_unit(self) -> float:
        return self.eps_hat / self.q


def topo_error_estimate(
    psi: np.ndarray,
    phi: np.ndarray,
    q: int,
    n_samples: int = 200,
    seed: int = 0,
) -> TopoErrorEstimate:
    """Probe two states with random weight-q Pauli strings of norm q."""
    if psi.shape != phi.shape or psi.ndim != 1:
        raise ValidationError(f"state shapes {psi.shape} and {phi.shape} do not match")
    n_sites = int(round(math.log2(psi.shape[0])))
    if 2**n_sites != psi.shape[0]:
        raise ValidationError(f"state length {psi.shape[0]} is not a power of two")
    if not 1 <= q <= n_sites:
        raise DomainError(f"probe weight q must be in [1, {n_sites}], got {q}")
    if n_samples < 1:
        raise DomainError(f"n_samples must be positive, got {n_samples}")
    rng = np.random.default_rng(seed)
    diag_max = 0.0
    cross_max = 0.0
    for _ in range(n_samples):
        sites = rng.choice(n_sites, size=q, replace=False)
        letters = {s: "XYZ"[int(i)] for s, i in zip(sites, rng.integers(0, 3, size=q))}
        string = PauliString.from_letters(n_sites, letters)
        coeff = q * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        # P|i> = values[i] |flips[i]> with flips an involution: (P psi)[j] = values[flips[j]] psi[flips[j]]
        flips, values = _pauli_action(n_sites, string.x_mask, string.z_mask)
        diagonal = values[flips]
        probe_psi, probe_phi = coeff * (diagonal * psi[flips]), coeff * (diagonal * phi[flips])
        diag = abs(np.vdot(psi, probe_psi) - np.vdot(phi, probe_phi))
        cross = abs(np.vdot(psi, probe_phi))
        diag_max = max(diag_max, float(diag))
        cross_max = max(cross_max, float(cross))
    return TopoErrorEstimate(q=q, n_samples=n_samples, diag_max=diag_max, cross_max=cross_max)


def fit_tail_constants(
    profile: TailProfile,
    params: BoundParams,
    t: float,
    n_sites: int,
) -> tuple[float, float]:
    """Least-squares fit of tail(R) ~ c1 * exp(-R / (c2 * r_t * sqrt(t*N))).

    Only samples with strictly positive tail weight enter the fit.  The
    constants are descriptive (reported, never asserted); requires at
    least two usable samples and t > 0.
    """
    if t <= 0:
        raise DomainError(f"fit requires t > 0, got {t}")
    scale = params.r_t(t) * math.sqrt(t * n_sites)
    if not math.isfinite(scale):
        raise DomainError(f"r_t * sqrt(t*N) overflows at t={t}; no fit in its units")
    rs = np.array([r for r, tail in profile.samples if tail > 0.0])
    logs = np.array([math.log(tail) for _, tail in profile.samples if tail > 0.0])
    if rs.size < 2:
        raise DomainError("need at least two positive tail samples to fit")
    if np.all(logs == logs[0]):
        # flat profile: the slope is exactly zero, not a rounding-level fit
        return float(math.exp(logs[0])), math.inf
    slope, intercept = np.polyfit(rs, logs, 1)
    if slope >= 0:
        # non-decaying profile: report an infinite decay length
        return float(math.exp(intercept)), math.inf
    c1 = float(math.exp(intercept))
    c2 = float(-1.0 / (slope * scale))
    return c1, c2


def _bloch_parent(site_states: str, n_sites: int) -> KLocalOperator:
    """Parent one-local Hamiltonian with the product state ``site_states``
    (named site states only) as ground state at energy -N:
    h_i = -(v_i . sigma_i) with unit Bloch vectors v_i."""
    terms = {}
    for i, ch in enumerate(site_states):
        a, b = _NAMED_SITE_STATES[ch]
        ab = np.conj(a) * b
        for letter, component in zip("XYZ", (2.0 * ab.real, 2.0 * ab.imag, abs(a) ** 2 - abs(b) ** 2)):
            # canonical form drops the components with |c| <= ZERO_TOL
            terms[PauliString.from_letters(n_sites, {i: letter})] = -component
    return KLocalOperator(n_sites, terms)


@dataclass(frozen=True)
class Concentration:
    """One evolved product state held against the concentration bounds.

    ``tails`` holds (R, tail(R), fitted curve) for each sample of
    ``profile``, the curve being None without a decaying fit; ``bands``
    holds (x, x', ||P_x h(t) P_x'||, band_rhs) for each pair of occupied
    bins of ``band``.
    """

    psi_0: np.ndarray
    psi_t: np.ndarray
    profile: TailProfile
    fitted: tuple[float, float] | None
    tails: tuple[tuple[float, float, float | None], ...]
    band: BandMatrix
    bands: tuple[tuple[int, int, float, float], ...]


def concentrate(
    hamiltonian: KLocalOperator,
    params: BoundParams,
    state: str,
    t: float,
    axis: str = "z",
    bin_width: float | None = None,
    n_max: int | None = None,
    eigensystem: EigenSystem | None = None,
) -> Concentration:
    """Evolve the product state ``state`` for time t under ``hamiltonian``,
    whose bound parameters are ``params``.

    The tail profile of A = sum_i sigma_i^axis is fitted (for t > 0) to
    c1 * exp(-R / (c2 * r_t * sqrt(t*N))), and the one-local parent h of
    the state, evolved to t, is cut into bins of A of width ``bin_width``
    (default r_t); a single bin is ||U h U+|| = ||h|| = N without evolving h.
    More bins evolve h on ``eigensystem``, built from ``hamiltonian`` if None.
    ``n_max`` raises the site limits as in :func:`klocal.oracle.site_limit`.
    """
    n_sites = hamiltonian.n_sites
    r_t = params.r_t(t)
    width = float(r_t) if bin_width is None else bin_width
    observable = ExtensiveObservable.collective(n_sites, axis, n_max=n_max)
    psi_0 = build_product_state(state, n_sites)
    psi_t = evolve_product_state(hamiltonian, state, t, n_max)
    profile = tail_profile(psi_t, observable)
    try:
        fitted = fit_tail_constants(profile, params, t, n_sites)
    except DomainError:
        fitted = None
    c1, c2 = fitted if fitted is not None else (math.nan, math.inf)
    tails = tuple(
        (r, tail, c1 * math.exp(-r / (c2 * r_t * math.sqrt(t * n_sites))) if c2 != math.inf else None)
        for r, tail in profile.samples
    )
    if _bin_count(n_sites, width) > 1:
        eig = eigensystem or EigenSystem(hamiltonian, n_max)
        parent_t = eig.evolve_operator(_bloch_parent(state, n_sites), t)
        band = band_matrix(parent_t, observable, width)
    else:
        # h is a sum of N commuting terms -v_i . sigma_i with unit Bloch vectors
        band = BandMatrix(width, np.array([[float(n_sites)]]), np.array([True]))
    occupied = np.flatnonzero(band.occupancy).tolist()
    bands = tuple(
        (bx, by, band.norms[bx, by], band_rhs(params, t, n_sites, abs(bx - by)))
        for bx in occupied
        for by in occupied
    )
    return Concentration(psi_0, psi_t, profile, fitted, tails, band, bands)
