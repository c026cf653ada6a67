"""Shared fixtures and random-instance generators."""

from __future__ import annotations

import numpy as np
import pytest

from klocal.pauli import ZERO_TOL, KLocalOperator, PauliString, Term

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


def reference_commutator(a: KLocalOperator, b: KLocalOperator) -> list[Term]:
    """Terms of [a, b] from the plain pair loop over Python-int masks and
    complex scalars, merged in a dict in (a, b) pair order and put in
    canonical form by hand: the reference that the vectorised
    ``klocal.pauli.commutator`` must match bit for bit."""
    n = a.n_sites
    left = [(t.string.x_mask, t.string.z_mask, t.string.support_mask, t.coeff) for t in a.terms()]
    right = [(t.string.x_mask, t.string.z_mask, t.string.support_mask, t.coeff) for t in b.terms()]
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
            terms.append(Term(PauliString(n, x, z), c))
    return terms


def exact_terms(terms: list[Term]) -> list[tuple[int, int, int, str, str]]:
    """Terms in order with the exact bits of each coefficient
    (``float.hex`` tells -0.0 from 0.0)."""
    return [
        (t.string.n_sites, t.string.x_mask, t.string.z_mask, t.coeff.real.hex(), t.coeff.imag.hex())
        for t in terms
    ]


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
