"""Locality-truncated Heisenberg evolution witnesses."""

from __future__ import annotations

import itertools
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from klocal import truncation
from klocal.bounds import BoundParams, main_rhs, small_time_rhs
from klocal.errors import DomainError, InfeasibleScheduleError
from klocal.oracle import heisenberg_evolve, operator_norm_exact, spectral_norm, to_dense
from klocal.models import load_spec
from klocal.pauli import KLocalOperator, PauliString, commutator
from klocal.truncation import (
    chained_truncate,
    hadamard_truncate,
    nested_commutator_levels,
    series_coefficient,
)

from conftest import random_operator


def single_qubit():
    h = KLocalOperator(1, {PauliString.from_letters(1, {0: "X"}): 1.0})
    gamma = KLocalOperator(1, {PauliString.from_letters(1, {0: "Z"}): 1.0})
    return h, gamma


class TestSeriesCoefficient:
    def test_first_terms(self):
        assert series_coefficient(0.5, 0) == 1.0
        assert series_coefficient(0.5, 1) == pytest.approx(-0.5j)
        assert series_coefficient(0.5, 2) == pytest.approx(-0.125)
        assert series_coefficient(0.5, 3) == pytest.approx(0.5**3 / 6 * 1j)

    def test_negative_time_conjugates(self):
        for m in range(6):
            assert series_coefficient(-0.3, m) == pytest.approx(
                np.conj(series_coefficient(0.3, m))
            )

    def test_large_order_stable(self):
        c = series_coefficient(2.0, 200)
        assert np.isfinite(c.real) and np.isfinite(c.imag)
        assert abs(c) < 1e-100

    def test_t_zero(self):
        assert series_coefficient(0.0, 0) == 1.0
        assert series_coefficient(0.0, 3) == 0.0

    def test_domain(self):
        with pytest.raises(DomainError):
            series_coefficient(0.1, -1)


class TestNestedCommutators:
    def test_level_norm_product_bound(self, rng):
        # ||L_m|| <= lam^m * (q0/k) * ((q0+k)/k) * ... * ((q0+(m-1)k)/k) * ||Gamma||
        h = random_operator(rng, 5, 6, max_weight=2)
        gamma = random_operator(rng, 5, 1, max_weight=2)
        params = BoundParams.from_operator(h)
        q0 = gamma.locality
        bound = operator_norm_exact(gamma)
        for m, level, _ in nested_commutator_levels(h, gamma, 5, threshold=0.0):
            if m == 0:
                continue
            bound *= params.lam * (q0 + (m - 1) * params.k) / params.k
            assert operator_norm_exact(level) <= bound * (1 + 1e-9)

    def test_locality_growth_cap(self, rng):
        # each nesting adds at most k to the locality
        h = random_operator(rng, 6, 5, max_weight=3)
        gamma = random_operator(rng, 6, 1, max_weight=1)
        k = h.locality
        prev_q = gamma.locality
        for m, level, _ in nested_commutator_levels(h, gamma, 4, threshold=0.0):
            if m == 0 or level.is_zero:
                continue
            assert level.locality <= gamma.locality + m * k
            prev_q = level.locality

    def test_early_stop_on_vanishing(self):
        # gamma commutes with H -> L_1 = 0 and iteration stops
        h = KLocalOperator(2, {PauliString.from_letters(2, {0: "Z", 1: "Z"}): 1.0})
        gamma = KLocalOperator(2, {PauliString.from_letters(2, {0: "Z"}): 1.0})
        levels = list(nested_commutator_levels(h, gamma, 10, threshold=0.0))
        assert len(levels) == 2  # m=0 and the vanishing m=1
        assert levels[1][1].is_zero

    def test_nested_commutator_value(self):
        h, gamma = single_qubit()
        levels = list(nested_commutator_levels(h, gamma, 2, threshold=0.0))
        m, l2, _ = levels[-1]
        assert m == 2
        assert sum(dropped for _, _, dropped in levels) == 0.0
        assert l2.coefficient(PauliString.from_letters(1, {0: "Z"})) == pytest.approx(4.0)


class TestHadamardTruncate:
    def test_t_zero_returns_gamma(self):
        h, gamma = single_qubit()
        report = hadamard_truncate(h, gamma, 0.0, 3)
        assert report.witness == gamma
        assert report.pruning_budget == 0.0

    def test_t_zero_leaves_pruned_mass_out(self):
        # level 1 ([X, Z] = -2iY) is pruned whole, but its coefficient is 0j,
        # so the series stops before its mass is counted
        h, gamma = single_qubit()
        report = hadamard_truncate(h, gamma, 0.0, 3, threshold=10.0)
        assert report.witness == gamma
        assert report.pruning_budget == 0.0

    def test_series_stops_at_first_zero_coefficient(self, monkeypatch):
        # the interval of verify --t 0.05 on tfi4: q = 2**15 allows ~16k
        # levels, whose coefficients underflow to 0j after a few hundred
        # and whose terms overflow soon after
        h = load_spec((Path(__file__).parent / "golden" / "tfi4.json").read_text())
        gamma = KLocalOperator(4, {PauliString.from_letters(4, {0: "Z"}): 1.0})
        params = BoundParams.from_operator(h)
        dt, n = params.delta_t(0.05), params.intervals(0.05)
        first_zero = next(m for m in itertools.count(1) if series_coefficient(dt, m) == 0j)
        calls = []

        def counted(a, b):
            calls.append(b.n_terms)
            return commutator(a, b)

        monkeypatch.setattr(truncation, "commutator", counted)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            report = hadamard_truncate(h, gamma, dt, 2**n)
        assert report.m0 == (2**n - 1) // 2 > first_zero
        assert 0 < len(calls) <= first_zero  # the last nonzero order plus one
        assert np.isfinite(report.witness.coeff).all()

    def test_single_qubit_certificate_sweep(self):
        h, gamma = single_qubit()
        params = BoundParams.from_operator(h)  # g = 1, k = 1, kappa = 24
        for frac in (0.1, 0.5, 0.9):
            t = frac * 2.0 / params.kappa
            for q in (1, 2, 3, 5, 8):
                report = hadamard_truncate(h, gamma, t, q, threshold=0.0)
                exact = heisenberg_evolve(h, gamma, t)
                err = spectral_norm(to_dense(report.witness).matrix - exact.matrix)
                assert err <= report.bound_rhs + 1e-12
                assert report.witness.locality <= q

    def test_witness_error_decreases_with_q(self):
        h = KLocalOperator(
            3,
            {
                PauliString.from_letters(3, {0: "X", 1: "X"}): 1.0,
                PauliString.from_letters(3, {1: "X", 2: "X"}): 1.0,
                PauliString.from_letters(3, {0: "Z"}): 0.5,
            },
        )
        gamma = KLocalOperator(3, {PauliString.from_letters(3, {1: "Z"}): 1.0})
        params = BoundParams.from_operator(h)
        t = 0.5 / params.kappa
        exact = heisenberg_evolve(h, gamma, t)
        errs = []
        for q in (1, 2, 3):
            report = hadamard_truncate(h, gamma, t, q, threshold=0.0)
            errs.append(spectral_norm(to_dense(report.witness).matrix - exact.matrix))
        assert errs[0] >= errs[1] >= errs[2]

    def test_m0_formula(self):
        h, gamma = single_qubit()
        report = hadamard_truncate(h, gamma, 0.01, 5)
        assert report.m0 == 4  # (q - q0) / k = (5 - 1) / 1

    def test_domain_errors(self):
        h, gamma = single_qubit()
        params = BoundParams.from_operator(h)
        with pytest.raises(DomainError):
            hadamard_truncate(h, gamma, 2.0 / params.kappa, 3)  # window edge
        with pytest.raises(DomainError):
            hadamard_truncate(h, gamma, 0.01, 0)
        h2 = KLocalOperator(2, {PauliString.from_letters(2, {0: "X", 1: "X"}): 1.0})
        wide = KLocalOperator(2, {PauliString.from_letters(2, {0: "Z", 1: "Z"}): 1.0})
        with pytest.raises(InfeasibleScheduleError):
            hadamard_truncate(h2, wide, 0.001, 1)  # q < locality(gamma)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_window_refused_before_any_level(self, monkeypatch, sign):
        # the bound is evaluated first, so no nesting level is built for a
        # time that small_time_rhs refuses
        calls = []
        monkeypatch.setattr(truncation, "commutator", lambda *a: calls.append(a))
        h, gamma = single_qubit()
        t = sign * 2.0 / BoundParams.from_operator(h).kappa
        with pytest.raises(DomainError, match="outside the validity window"):
            hadamard_truncate(h, gamma, t, 3)
        assert calls == []

    def test_pruning_budget_accumulates(self, rng):
        h = random_operator(rng, 4, 6, max_weight=2)
        gamma = random_operator(rng, 4, 1, max_weight=1)
        params = BoundParams.from_operator(h)
        t = 0.9 / params.kappa
        tight = hadamard_truncate(h, gamma, t, 4, threshold=0.0)
        loose = hadamard_truncate(h, gamma, t, 4, threshold=1e-3)
        assert tight.pruning_budget == 0.0
        assert loose.pruning_budget >= 0.0
        assert loose.witness.n_terms <= tight.witness.n_terms


class TestChainedTruncate:
    def test_collapses_to_single_window(self):
        h, gamma = single_qubit()
        t = 0.5 / 24.0  # n = 1
        single = hadamard_truncate(h, gamma, t, 4, threshold=0.0)
        chained = chained_truncate(h, gamma, t, 4, threshold=0.0)
        assert chained.schedule is not None and chained.schedule.n == 1
        assert chained.witness == single.witness

    def test_infeasible_q(self):
        h, gamma = single_qubit()
        t = 3.0 / 24.0  # n = 3 -> needs q >= 8
        with pytest.raises(InfeasibleScheduleError):
            chained_truncate(h, gamma, t, 7)

    def test_multi_interval_certificate(self, tfi_chain):
        gamma = KLocalOperator(4, {PauliString.from_letters(4, {1: "Z"}): 1.0})
        params = BoundParams.from_operator(tfi_chain)  # kappa = 288
        t = 1.5 / params.kappa  # n = 2
        q = 6
        report = chained_truncate(tfi_chain, gamma, t, q, threshold=0.0)
        assert report.schedule is not None
        assert report.schedule.n == 2
        assert report.witness.locality <= q
        exact = heisenberg_evolve(tfi_chain, gamma, t)
        err = spectral_norm(to_dense(report.witness).matrix - exact.matrix)
        bound = main_rhs(params, gamma.locality, q, t, operator_norm_exact(gamma))
        assert err <= bound + report.pruning_budget + 1e-12

    def test_negative_time(self):
        h, gamma = single_qubit()
        t = -1.5 / 24.0
        report = chained_truncate(h, gamma, t, 8, threshold=0.0)
        exact = heisenberg_evolve(h, gamma, t)
        err = spectral_norm(to_dense(report.witness).matrix - exact.matrix)
        assert err <= report.bound_rhs + 1e-12

    def test_schedule_levels_monotone(self, tfi_chain):
        gamma = KLocalOperator(4, {PauliString.from_letters(4, {0: "Z"}): 1.0})
        report = chained_truncate(tfi_chain, gamma, 1.8 / 288.0, 10, threshold=0.0)
        levels = report.schedule.levels
        assert list(levels) == sorted(levels)
        assert levels[-1] <= 10


class TestReportBound:
    """The report carries its own bound; certificates evaluate it there."""

    @pytest.mark.parametrize("mode", ["small-time", "chained"])
    def test_rhs_is_the_mode_bound(self, tfi_chain, mode):
        gamma = KLocalOperator(
            4,
            {
                PauliString.from_letters(4, {1: "Z"}): 1.0,
                PauliString.from_letters(4, {2: "X"}): -0.5,
            },
        )
        params = BoundParams.from_operator(tfi_chain)
        q0 = gamma.locality
        if mode == "small-time":
            t, q = -0.5 / params.kappa, 4
            report = hadamard_truncate(tfi_chain, gamma, t, q)
            direct = lambda x: small_time_rhs(params, q0, q, abs(t), x)  # noqa: E731
        else:
            t, q = 1.5 / params.kappa, 6
            report = chained_truncate(tfi_chain, gamma, t, q)
            direct = lambda x: main_rhs(params, q0, q, t, x)  # noqa: E731
        for x in (0.0, 1e-3, 0.7, 1.0, 1.5, 12.25):
            assert report.rhs(x) == direct(x)
        assert report.bound_rhs == report.rhs(gamma.norm_upper())
        assert report.bound_rhs > 0.0


class TestWitnessSlope:
    def test_short_time_derivative_matches(self):
        # the order-1 witness reproduces d/dt Gamma(t) at t -> 0
        h, gamma = single_qubit()
        t = 1e-4
        report_p = hadamard_truncate(h, gamma, t, 2, threshold=0.0)
        report_m = hadamard_truncate(h, gamma, -t, 2, threshold=0.0)
        slope = (to_dense(report_p.witness).matrix - to_dense(report_m.witness).matrix) / (2 * t)
        exact_p = heisenberg_evolve(h, gamma, t).matrix
        exact_m = heisenberg_evolve(h, gamma, -t).matrix
        exact_slope = (exact_p - exact_m) / (2 * t)
        assert spectral_norm(slope - exact_slope) < 1e-6
