"""Acceptance suite: one test per shipping criterion.

Each test prints a single summary line (see the ``acceptance criteria``
section of the terminal summary) with the measured quantity and the
tolerance it was held to, then asserts it.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from klocal.bounds import BoundParams, delta_value, main_rhs, small_time_rhs, theorem1_rhs, band_rhs
from klocal.concentration import (
    ExtensiveObservable,
    band_matrix,
    build_product_state,
    evolve_product_state,
    tail_profile,
)
from klocal.layers import discretize, pack_layers, reconstruct
from klocal.models import build_model, structural_constants
from klocal.oracle import (
    energy_block_norm,
    heisenberg_evolve,
    operator_norm_exact,
    spectral_norm,
    to_dense,
)
from klocal.pauli import KLocalOperator, PauliString, commutator
from klocal.truncation import chained_truncate, hadamard_truncate

from conftest import per_site_multiplicity, random_operator, random_pauli_string


def tfi_chain(n: int, coupling: float = 1.0, field: float = 1.0) -> KLocalOperator:
    acc: dict[PauliString, complex] = {}
    for i in range(n - 1):
        acc[PauliString.from_letters(n, {i: "Z", i + 1: "Z"})] = coupling
    for i in range(n):
        acc[PauliString.from_letters(n, {i: "X"})] = field
    return KLocalOperator(n, acc)


def adversarial_two_local(rng: np.random.Generator, n: int) -> KLocalOperator:
    """Random all-to-all two-local ZZ observable with U(-1, 1) couplings,
    normalized by 1/N."""
    acc: dict[PauliString, complex] = {}
    for i in range(n):
        for j in range(i + 1, n):
            acc[PauliString.from_letters(n, {i: "Z", j: "Z"})] = rng.uniform(-1.0, 1.0) / n
    return KLocalOperator(n, acc)


def test_criterion_1_commutator_bound(acceptance_report):
    """500 random (H, Gamma) instances: exact ||[H, Gamma]|| <= 6gkq ||Gamma||."""
    start = time.monotonic()
    rng = np.random.default_rng(101)
    violations = 0
    ratios = []
    for trial in range(500):
        if trial < 400:
            n = int(rng.integers(2, 9))
            h = random_operator(rng, n, int(rng.integers(2, 2 * n + 1)), max_weight=3)
            gamma = random_operator(rng, n, int(rng.integers(1, 4)), max_weight=min(6, n))
        else:
            n = int(rng.integers(4, 9))
            h = random_operator(rng, n, int(rng.integers(2, 2 * n + 1)), max_weight=3)
            gamma = adversarial_two_local(rng, n)
        params = BoundParams.from_operator(h)
        q = gamma.locality
        lhs = operator_norm_exact(commutator(h, gamma), n_max=8)
        rhs = theorem1_rhs(params, q, operator_norm_exact(gamma, n_max=8))
        ratios.append(lhs / rhs if rhs > 0 else 0.0)
        if lhs > rhs * (1 + 1e-12):
            violations += 1
    elapsed = time.monotonic() - start
    acceptance_report(
        f"criterion 1: {'PASS' if violations == 0 and elapsed <= 300 else 'FAIL'} — "
        f"{500 - violations}/500 instances satisfy ||[H,G]|| <= 6gkq||G|| "
        f"(mean LHS/RHS = {np.mean(ratios):.4f}); runtime {elapsed:.1f}s (cap 300s)"
    )
    assert violations == 0
    assert elapsed <= 300


def test_criterion_2_small_time_bound(acceptance_report):
    """Hadamard witness error <= small_time_rhs + pruning budget on 102
    (instance, t) pairs with t in {0.1, 0.5, 0.9} * (2/kappa)."""
    start = time.monotonic()
    rng = np.random.default_rng(202)
    checks = 0
    violations = 0
    worst_margin = math.inf
    for trial in range(34):
        n = int(rng.integers(2, 7))
        h = random_operator(rng, n, int(rng.integers(2, n + 3)), max_weight=3)
        gamma = random_operator(rng, n, 1, max_weight=min(2, n))
        params = BoundParams.from_operator(h)
        q0 = gamma.locality
        q = int(rng.integers(q0, q0 + 4))
        gamma_norm = operator_norm_exact(gamma, n_max=6)
        for frac in (0.1, 0.5, 0.9):
            t = frac * 2.0 / params.kappa
            report = hadamard_truncate(h, gamma, t, q, threshold=0.0)
            exact = heisenberg_evolve(h, gamma, t, n_max=6)
            err = spectral_norm(to_dense(report.witness, n_max=6).matrix - exact.matrix)
            rhs = small_time_rhs(params, q0, q, t, gamma_norm) + report.pruning_budget
            checks += 1
            worst_margin = min(worst_margin, rhs - err)
            if err > rhs * (1 + 1e-12):
                violations += 1
    elapsed = time.monotonic() - start
    acceptance_report(
        f"criterion 2: {'PASS' if violations == 0 and elapsed <= 600 else 'FAIL'} — "
        f"{checks - violations}/{checks} small-time witness errors within bound "
        f"(worst margin {worst_margin:.3e}); runtime {elapsed:.1f}s (cap 600s)"
    )
    assert violations == 0
    assert elapsed <= 600


def test_criterion_3_chained_bound(acceptance_report):
    """Chained witness error <= main_rhs + budget for n in {1, 2}; and the
    identity main_rhs = 2 n Delta ||Gamma|| to 1e-12 relative."""
    rng = np.random.default_rng(303)
    violations = 0
    checks = 0
    for trial in range(30):
        n_sites = int(rng.integers(2, 7))
        h = random_operator(rng, n_sites, int(rng.integers(2, n_sites + 3)), max_weight=2)
        gamma = random_operator(rng, n_sites, 1, max_weight=1)
        params = BoundParams.from_operator(h)
        q0 = gamma.locality
        gamma_norm = operator_norm_exact(gamma, n_max=6)
        for n_intervals, frac in ((1, 0.5), (2, 1.5)):
            t = frac / params.kappa
            assert params.intervals(t) == n_intervals
            q = (2**n_intervals) * q0 + int(rng.integers(0, 3))
            report = chained_truncate(h, gamma, t, q, threshold=0.0)
            exact = heisenberg_evolve(h, gamma, t, n_max=6)
            err = spectral_norm(to_dense(report.witness, n_max=6).matrix - exact.matrix)
            rhs = main_rhs(params, q0, q, t, gamma_norm) + report.pruning_budget
            checks += 1
            if err > rhs * (1 + 1e-12):
                violations += 1

    # arithmetic identity on a parameter grid
    identity_dev = 0.0
    for g in (0.5, 1.0, 3.0):
        for k in (1, 2, 3):
            params = BoundParams(g=g, k=k)
            for t in (0.01 / params.kappa * 24, 0.4 / params.kappa * 24):
                for q0 in (1, 2):
                    for q in (q0, 4 * q0, 4 * q0 + 3):
                        n = params.intervals(t)
                        lhs = main_rhs(params, q0, q, t, 1.3)
                        rhs = 2.0 * n * delta_value(params, q0, q, t) * 1.3
                        if rhs != 0:
                            identity_dev = max(identity_dev, abs(lhs - rhs) / rhs)
    acceptance_report(
        f"criterion 3: {'PASS' if violations == 0 and identity_dev <= 1e-12 else 'FAIL'} — "
        f"{checks - violations}/{checks} chained witness errors within bound; "
        f"identity |main - 2nD||G||| relative deviation {identity_dev:.2e} (tol 1e-12)"
    )
    assert violations == 0
    assert identity_dev <= 1e-12


def test_criterion_4_layer_decomposition(acceptance_report):
    """1000 random decompositions: count, commutation, multiplicity, and
    (dense, N <= 6) reconstruction-gap certificates."""
    start = time.monotonic()
    rng = np.random.default_rng(404)
    violations = 0
    dense_checks = 0
    for trial in range(1000):
        if trial % 10 == 0:
            n = int(rng.integers(2, 7))  # dense-checkable
        else:
            n = int(rng.integers(2, 31))
        op = random_operator(rng, n, int(rng.integers(1, min(2 * n, 40) + 1)), max_weight=3)
        const = structural_constants(op)
        eps = const.g / float(rng.uniform(0.8, 8.0))
        pool = discretize(op, eps, const)
        decomp = pack_layers(pool)
        cert = decomp.verify()
        cap = math.floor(const.g / eps)
        ok = (
            cert["all_ok"]
            and decomp.layer_count <= const.k * cap
            and per_site_multiplicity(pool).max(initial=0) <= cap
        )
        if n <= 6:
            dense_checks += 1
            gap = operator_norm_exact(reconstruct(decomp) - op, n_max=6)
            ok = ok and gap <= decomp.pool.gap_upper + 1e-12
        if not ok:
            violations += 1
    elapsed = time.monotonic() - start
    acceptance_report(
        f"criterion 4: {'PASS' if violations == 0 and elapsed <= 300 else 'FAIL'} — "
        f"{1000 - violations}/1000 decompositions certified "
        f"({dense_checks} with dense reconstruction check); runtime {elapsed:.1f}s (cap 300s)"
    )
    assert violations == 0
    assert elapsed <= 300


def test_criterion_5_energy_block_law(acceptance_report):
    """50 commuting Z-string Hamiltonians: ||P_{>=E'} G P_{<=E}|| <= 1e-10
    whenever E' - E > 2gq."""
    rng = np.random.default_rng(505)
    windows = 0
    worst = 0.0
    for trial in range(50):
        n = int(rng.integers(5, 9))
        # alternate between wide-spectrum field-dominated instances (k = 1
        # keeps 2gq small relative to the spectral width, so separated
        # windows exist) and generic higher-k Z-string instances
        k = 1 if trial % 2 == 0 else int(rng.integers(2, 4))
        h = build_model(
            "diagonal_commuting",
            {"n_sites": n, "k": k, "n_terms": int(rng.integers(2 * n, 3 * n + 1)), "seed": trial},
        )
        max_q = 2 if k == 1 else 1
        gamma = random_operator(rng, n, int(rng.integers(1, 3)), max_weight=max_q)
        const = structural_constants(h)
        q = gamma.locality
        gap = 2.0 * const.g * q
        h_dense = to_dense(h, n_max=8)
        evals = np.linalg.eigvalsh(h_dense.matrix)
        width = float(evals[-1] - evals[0])
        g_dense = to_dense(gamma, n_max=8)
        for frac in (0.0, 0.2, 0.5, 0.8):
            slack = width - gap
            if slack <= 1e-9:
                continue
            e_lo = float(evals[0]) + frac * slack * 0.9
            e_hi = e_lo + gap + 0.05 * slack  # strictly above the 2gq threshold
            block = energy_block_norm(h_dense, g_dense, e_lo, e_hi, n_max=8)
            windows += 1
            worst = max(worst, block)
    passed = worst <= 1e-10 and windows >= 100
    acceptance_report(
        f"criterion 5: {'PASS' if passed else 'FAIL'} — {windows} separated energy windows, "
        f"largest off-block norm {worst:.2e} (tol 1e-10)"
    )
    assert windows >= 100
    assert worst <= 1e-10


def test_criterion_6_concentration(acceptance_report):
    """Evolved product states, N = 6..10, t <= 1/kappa: band-matrix bound,
    tail-ratio decay, and the t = 0 binomial reference."""
    # (a) band-matrix entries under the analytic envelope
    band_violations = 0
    band_entries = 0
    for n, frac in ((6, 1.0), (6, 0.5), (8, 1.0), (10, 1.0)):
        h = tfi_chain(n)
        params = BoundParams.from_operator(h)
        t = frac / params.kappa
        parent = KLocalOperator(
            n, {PauliString.from_letters(n, {i: "X"}): -1.0 for i in range(n)}
        )
        parent_t = heisenberg_evolve(h, parent, t, n_max=10)
        observable = ExtensiveObservable.collective(n, "z", n_max=10)
        band = band_matrix(parent_t, observable, float(params.r_t(t)), n_max=10)
        occupied = [b for b in range(band.n_bins) if band.occupancy[b]]
        for bx in occupied:
            for by in occupied:
                band_entries += 1
                bound = band_rhs(params, t, n, abs(bx - by))
                if band.norms[bx, by] > bound * (1 + 1e-12):
                    band_violations += 1

    # (b) tail-ratio decay for the |+>^N / sum Z benchmark
    n = 10
    h = tfi_chain(n)
    params = BoundParams.from_operator(h)
    observable = ExtensiveObservable.collective(n, "z", n_max=10)
    worst_ratio = 0.0
    for frac in (0.2, 0.6, 1.0):
        t = frac / params.kappa
        psi = evolve_product_state(h, "+" * n, t, n_max=10)
        profile = tail_profile(psi, observable)
        tails = dict(profile.samples)
        for r in range(0, n - 1):
            if tails.get(float(r), 0.0) > 1e-8 and float(r + 2) in tails:
                worst_ratio = max(worst_ratio, tails[float(r + 2)] / tails[float(r)])

    # (c) t = 0 binomial reference
    psi0 = build_product_state("+" * n)
    profile0 = tail_profile(psi0, observable, r_grid=range(0, n + 1))
    binom_dev = 0.0
    for r, tail in profile0.samples:
        weight = sum(math.comb(n, m) for m in range(n + 1) if n - 2 * m >= r - 1e-12) / 2.0**n
        binom_dev = max(binom_dev, abs(tail**2 - weight))

    passed = band_violations == 0 and worst_ratio <= 0.9 and binom_dev <= 1e-9
    acceptance_report(
        f"criterion 6: {'PASS' if passed else 'FAIL'} — "
        f"{band_entries - band_violations}/{band_entries} band entries within envelope; "
        f"worst tail ratio {worst_ratio:.3f} (tol 0.9); "
        f"binomial deviation {binom_dev:.2e} (tol 1e-9)"
    )
    assert band_violations == 0
    assert worst_ratio <= 0.9
    assert binom_dev <= 1e-9


def test_criterion_7_algebra_kernel(acceptance_report):
    """1000 random pairs: dense-vs-symbolic commutators to 1e-10, plus
    anti-symmetry, Jacobi, and disjoint-support laws."""
    start = time.monotonic()
    rng = np.random.default_rng(707)
    worst_dense = 0.0
    worst_anti = 0.0
    worst_jacobi = 0.0
    disjoint_failures = 0
    for trial in range(1000):
        n = int(rng.integers(2, 7))
        a = random_operator(rng, n, int(rng.integers(1, 4)), complex_coeffs=True)
        b = random_operator(rng, n, int(rng.integers(1, 4)), complex_coeffs=True)
        symbolic = commutator(a, b)
        a_d = to_dense(a, n_max=6).matrix
        b_d = to_dense(b, n_max=6).matrix
        dense = a_d @ b_d - b_d @ a_d
        worst_dense = max(
            worst_dense, float(np.max(np.abs(to_dense(symbolic, n_max=6).matrix - dense)))
        )
        worst_anti = max(worst_anti, (symbolic + commutator(b, a)).norm_upper())
        if trial % 5 == 0:
            c = random_operator(rng, n, 2, complex_coeffs=True)
            jac = (
                commutator(a, commutator(b, c))
                + commutator(b, commutator(c, a))
                + commutator(c, commutator(a, b))
            )
            scale = max(a.norm_upper() * b.norm_upper() * c.norm_upper(), 1.0)
            worst_jacobi = max(worst_jacobi, jac.norm_upper() / scale)
        if trial % 5 == 1 and n >= 4:
            half = n // 2
            left = random_operator(rng, n, 2, max_weight=half)
            if (left.letter_sites()[1] < half).all():
                right_site = n - 1
                right = KLocalOperator(
                    n, {PauliString.from_letters(n, {right_site: "Y"}): 1.0}
                )
                if not commutator(left, right).is_zero:
                    disjoint_failures += 1
    elapsed = time.monotonic() - start
    passed = (
        worst_dense <= 1e-10
        and worst_anti <= 1e-10
        and worst_jacobi <= 1e-10
        and disjoint_failures == 0
        and elapsed <= 120
    )
    acceptance_report(
        f"criterion 7: {'PASS' if passed else 'FAIL'} — dense-vs-symbolic max deviation "
        f"{worst_dense:.2e} over 1000 pairs (tol 1e-10); anti-symmetry {worst_anti:.2e}; "
        f"Jacobi {worst_jacobi:.2e}; disjoint failures {disjoint_failures}; "
        f"runtime {elapsed:.1f}s (cap 120s)"
    )
    assert worst_dense <= 1e-10
    assert worst_anti <= 1e-10
    assert worst_jacobi <= 1e-10
    assert disjoint_failures == 0
    assert elapsed <= 120


def test_criterion_8_series_slope_convention(acceptance_report):
    """Order-1 witness slope matches the dense evolution's central-difference
    slope at t = 1e-4 within 1e-6, pinning the series sign convention."""
    t = 1e-4
    worst = 0.0
    cases = [
        (
            KLocalOperator(1, {PauliString.from_letters(1, {0: "X"}): 1.0}),
            KLocalOperator(1, {PauliString.from_letters(1, {0: "Z"}): 1.0}),
        ),
        (
            KLocalOperator(2, {PauliString.from_letters(2, {0: "X", 1: "X"}): 1.0}),
            KLocalOperator(2, {PauliString.from_letters(2, {0: "Z"}): 1.0}),
        ),
        (
            tfi_chain(3, coupling=0.4, field=0.4),
            KLocalOperator(3, {PauliString.from_letters(3, {1: "Y"}): 1.0}),
        ),
    ]
    for h, gamma in cases:
        params = BoundParams.from_operator(h)
        q = gamma.locality + params.k  # order-1 window
        witness_slope = (
            to_dense(hadamard_truncate(h, gamma, t, q, threshold=0.0).witness, n_max=6).matrix
            - to_dense(hadamard_truncate(h, gamma, -t, q, threshold=0.0).witness, n_max=6).matrix
        ) / (2 * t)
        exact_slope = (
            heisenberg_evolve(h, gamma, t, n_max=6).matrix
            - heisenberg_evolve(h, gamma, -t, n_max=6).matrix
        ) / (2 * t)
        worst = max(worst, spectral_norm(witness_slope - exact_slope))
    acceptance_report(
        f"criterion 8: {'PASS' if worst <= 1e-6 else 'FAIL'} — order-1 witness slope vs dense "
        f"evolution: max deviation {worst:.2e} at t = 1e-4 (tol 1e-6)"
    )
    assert worst <= 1e-6
