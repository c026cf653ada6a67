"""Shared fixtures and random-instance generators."""

from __future__ import annotations

import json
import math
from collections.abc import Mapping

import numpy as np
import pytest

from klocal.errors import ValidationError
from klocal.oracle import _pauli_action
from klocal.pauli import ZERO_TOL, KLocalOperator, PauliString

_LETTERS = "XYZ"
_PHASES = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)


def random_pauli_string(rng: np.random.Generator, n_sites: int, max_weight: int | None = None) -> PauliString:
    """Uniform random non-identity string of weight <= max_weight."""
    cap = n_sites if max_weight is None else min(max_weight, n_sites)
    weight = int(rng.integers(1, cap + 1))
    sites = rng.choice(n_sites, size=weight, replace=False)
    letters = {int(s): _LETTERS[int(rng.integers(0, 3))] for s in sites}
    return PauliString.from_letters(n_sites, letters)


def random_operator(
    rng: np.random.Generator,
    n_sites: int,
    n_terms: int,
    max_weight: int | None = None,
    complex_coeffs: bool = False,
) -> KLocalOperator:
    """Random Hermitian-coefficient operator (real coefficients by default)."""
    acc: dict[PauliString, complex] = {}
    for _ in range(n_terms):
        string = random_pauli_string(rng, n_sites, max_weight)
        coeff = rng.uniform(-1.0, 1.0) + (1j * rng.uniform(-1.0, 1.0) if complex_coeffs else 0.0)
        acc[string] = acc.get(string, 0j) + coeff
    op = KLocalOperator(n_sites, acc)
    if op.is_zero:  # absurdly unlikely; retry deterministically
        return random_operator(rng, n_sites, n_terms, max_weight, complex_coeffs)
    return op


def _masks(words: np.ndarray) -> list[int]:
    """Each row of a (rows, W) uint64 word array as one Python int."""
    return [int.from_bytes(row.astype("<u8").tobytes(), "little") for row in words]


def terms_of(op: KLocalOperator) -> list[tuple[PauliString, complex]]:
    """The (string, coefficient) pairs of ``op``, row by row, read from its
    words."""
    strings = [PauliString(op.n_sites, x, z) for x, z in zip(_masks(op.x), _masks(op.z))]
    return list(zip(strings, op.coeff.tolist()))


def letters_of(string: PauliString) -> dict[int, str]:
    """The ``{site: letter}`` map of a string, sites ascending."""
    x, z = string.x_mask, string.z_mask
    return {s: "IXZY"[(x >> s & 1) + 2 * (z >> s & 1)] for s in range(string.n_sites) if (x | z) >> s & 1}


def reference_commutator(a: KLocalOperator, b: KLocalOperator) -> list[tuple[PauliString, complex]]:
    """Terms of [a, b] from the plain pair loop over Python-int masks and
    complex scalars, merged in a dict in (a, b) pair order and put in
    canonical form by hand: the reference that the vectorised
    ``klocal.pauli.commutator`` must match bit for bit."""
    n = a.n_sites
    left = [(s.x_mask, s.z_mask, s.x_mask | s.z_mask, c) for s, c in terms_of(a)]
    right = [(s.x_mask, s.z_mask, s.x_mask | s.z_mask, c) for s, c in terms_of(b)]
    acc: dict[tuple[int, int], complex] = {}
    for xa, za, sa, ca in left:
        for xb, zb, sb, cb in right:
            if not sa & sb:
                continue
            if ((xa & zb).bit_count() + (za & xb).bit_count()) % 2 == 0:
                continue
            x3 = xa ^ xb
            z3 = za ^ zb
            phi = (
                (xa & za).bit_count()
                + (xb & zb).bit_count()
                - (x3 & z3).bit_count()
                + 2 * (za & xb).bit_count()
            ) & 3
            key = (x3, z3)
            acc[key] = acc.get(key, 0j) + 2.0 * ca * cb * _PHASES[phi]
    terms = []
    for (x, z), c in acc.items():
        c = 0j + c
        if not abs(c) <= ZERO_TOL:
            terms.append((PauliString(n, x, z), c))
    return terms


def apply_pauli_string(string: PauliString, psi: np.ndarray) -> np.ndarray:
    """One Pauli string applied to a statevector as its signed permutation,
    without building its matrix: the one-string reference for the grouped
    X-mask action with which ``klocal.oracle`` builds dense matrices and
    evolves states, and for the probes of ``topo_error_estimate``."""
    flips, values = _pauli_action(string.n_sites, string.x_mask, string.z_mask)
    out = np.empty(len(psi), dtype=complex)
    out[flips] = values * psi
    return out


def reference_to_dense(op: KLocalOperator) -> np.ndarray:
    """The matrix of ``op`` scattered one string at a time, each entry
    summed from zero in row order: the reference that the grouped X-mask
    action of ``klocal.oracle.to_dense`` must match bit for bit."""
    dim = 2**op.n_sites
    mat = np.zeros((dim, dim), dtype=complex)
    cols = np.arange(dim)
    for x, z, c in zip(op.x[:, 0].tolist(), op.z[:, 0].tolist(), op.coeff.tolist()):
        rows, values = _pauli_action(op.n_sites, x, z)
        mat[rows, cols] += c * values
    return mat


def _require_fields(obj, fields: set[str], where: str) -> None:
    unknown = set(obj) - fields
    if unknown:
        raise ValidationError(f"{where}: unknown field(s) {sorted(unknown)}")
    missing = fields - set(obj)
    if missing:
        raise ValidationError(f"{where}: missing field(s) {sorted(missing)}")


def reference_load_spec(document) -> KLocalOperator:
    """The per-entry spec loader that the bulk ``klocal.models.load_spec``
    replaced, plus its finite-coefficient rule: every check entry by entry
    in the same order, one ``PauliString`` per entry, and repeated strings
    summed in a dict.  The bulk loader must give the same operator bit for
    bit and the same message for the first bad entry."""
    if isinstance(document, str):
        try:
            document = json.loads(document)
        except ValueError as exc:
            raise ValidationError(f"spec is not valid JSON: {exc}") from None
    if not isinstance(document, Mapping):
        raise ValidationError(f"spec must be a JSON object, got {type(document).__name__}")
    _require_fields(document, {"n_sites", "terms"}, "spec")
    n_sites = document["n_sites"]
    if not isinstance(n_sites, int) or isinstance(n_sites, bool) or n_sites <= 0:
        raise ValidationError(f"n_sites must be a positive integer, got {n_sites!r}")
    entries = document["terms"]
    if not isinstance(entries, (list, tuple)):
        raise ValidationError("terms must be an array")
    acc: dict[PauliString, complex] = {}
    for idx, entry in enumerate(entries):
        where = f"terms[{idx}]"
        if not isinstance(entry, Mapping):
            raise ValidationError(f"{where}: must be an object")
        _require_fields(entry, {"sites", "paulis", "coeff"}, where)
        sites = entry["sites"]
        paulis = entry["paulis"]
        coeff = entry["coeff"]
        if not isinstance(sites, (list, tuple)) or not all(
            isinstance(s, int) and not isinstance(s, bool) for s in sites
        ):
            raise ValidationError(f"{where}: sites must be an array of integers")
        if not sites:
            raise ValidationError(f"{where}: empty site list (identity terms are not allowed)")
        if len(set(sites)) != len(sites):
            raise ValidationError(f"{where}: duplicate site in {list(sites)}")
        for s in sites:
            if not 0 <= s < n_sites:
                raise ValidationError(f"{where}: site {s} out of range for n_sites={n_sites}")
        if not isinstance(paulis, str) or len(paulis) != len(sites):
            raise ValidationError(
                f"{where}: paulis must be a string of length {len(sites)}, got {paulis!r}"
            )
        bad = [ch for ch in paulis if ch not in "XYZ"]
        if bad:
            raise ValidationError(f"{where}: invalid Pauli letter(s) {bad} (use X, Y, Z)")
        if (
            not isinstance(coeff, (list, tuple))
            or len(coeff) != 2
            or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in coeff)
        ):
            raise ValidationError(f"{where}: coeff must be a [re, im] number pair")
        try:
            finite = all(math.isfinite(v) for v in coeff)
        except OverflowError:
            finite = False
        if not finite:
            raise ValidationError(f"{where}: coeff must be finite and within the float range")
        string = PauliString.from_letters(n_sites, dict(zip(sites, paulis)))
        acc[string] = acc.get(string, 0j) + complex(coeff[0], coeff[1])
    return KLocalOperator(n_sites, acc)


def reference_spec_entries(op: KLocalOperator) -> list[dict]:
    """The per-term spec writer that ``klocal.models.spec_entries``
    replaced: one entry per term, sites ascending."""
    entries = []
    for string, coeff in terms_of(op):
        letters = letters_of(string)
        entries.append(
            {
                "sites": list(letters),
                "paulis": "".join(letters.values()),
                "coeff": [coeff.real, coeff.imag],
            }
        )
    return entries


def per_site_multiplicity(pool) -> np.ndarray:
    """Unit copies of a ``UnitPool`` that touch each site, counted from
    ``letter_sites()``."""
    rows, sites = pool.units.letter_sites()
    copies = np.asarray(pool.multiplicity, dtype=np.int64)[rows]
    return np.bincount(sites, weights=copies, minlength=pool.units.n_sites)


def same_arrays(a: KLocalOperator, b: KLocalOperator) -> bool:
    """Same site count, words and coefficient bits, row for row."""
    return (
        a.n_sites == b.n_sites
        and np.array_equal(a.x, b.x)
        and np.array_equal(a.z, b.z)
        and np.array_equal(a.coeff.view(np.uint64), b.coeff.view(np.uint64))
    )


def exact_terms(terms) -> list[tuple[int, int, int, str, str]]:
    """(string, coefficient) pairs, or the terms of an operator, in order
    with the exact bits of each coefficient (``float.hex`` tells -0.0 from
    0.0)."""
    if isinstance(terms, KLocalOperator):
        terms = terms_of(terms)
    return [(s.n_sites, s.x_mask, s.z_mask, c.real.hex(), c.imag.hex()) for s, c in terms]


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


@pytest.fixture
def acceptance_report(request):
    """Collect one-line acceptance results; printed in a terminal-summary
    section so they are visible even with output capture enabled."""

    def emit(line: str) -> None:
        lines = getattr(request.config, "_acceptance_lines", None)
        if lines is None:
            lines = []
            request.config._acceptance_lines = lines
        lines.append(line)

    return emit


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = getattr(config, "_acceptance_lines", [])
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


@pytest.fixture
def tfi_chain():
    """Nearest-neighbour transverse-field Ising chain on 4 sites (k=2, g=3)."""
    acc: dict[PauliString, complex] = {}
    for i in range(3):
        acc[PauliString.from_letters(4, {i: "Z", i + 1: "Z"})] = 1.0 + 0j
    for i in range(4):
        acc[PauliString.from_letters(4, {i: "X"})] = 1.0 + 0j
    return KLocalOperator(4, acc)
