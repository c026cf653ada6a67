"""Analytic bound evaluators and derived parameters."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from klocal.bounds import (
    BoundParams,
    band_rhs,
    delta_value,
    main_rhs,
    q_schedule,
    small_time_rhs,
    theorem1_rhs,
    topo_error_rhs,
)
from klocal.errors import DomainError, InfeasibleScheduleError, ValidationError
from klocal.models import structural_constants
from klocal.pauli import KLocalOperator

UNIT = BoundParams(g=1.0, k=1)


class TestBoundParams:
    def test_derived_constants(self):
        p = BoundParams(g=3.0, k=2)
        assert p.lam == pytest.approx(72.0)
        assert p.kappa == pytest.approx(288.0)
        assert p.xi == pytest.approx(2.0 / math.log(2.0))

    def test_unit_constants(self):
        assert UNIT.lam == pytest.approx(6.0)
        assert UNIT.kappa == pytest.approx(24.0)
        assert UNIT.xi == pytest.approx(1.0 / math.log(2.0))

    def test_intervals(self):
        assert UNIT.intervals(0.0) == 1
        assert UNIT.intervals(1.0 / 24.0) == 1
        assert UNIT.intervals(0.05) == 2  # kappa*t = 1.2
        assert UNIT.intervals(-0.05) == 2
        assert UNIT.r_t(0.05) == 3
        assert UNIT.delta_t(0.05) == pytest.approx(0.025)

    def test_validation(self):
        with pytest.raises(ValidationError):
            BoundParams(g=-1.0, k=1)
        with pytest.raises(ValidationError):
            BoundParams(g=1.0, k=0)

    def test_from_operator(self, tfi_chain):
        p = BoundParams.from_operator(tfi_chain)
        assert (p.g, p.k) == (3.0, 2)
        assert BoundParams.from_constants(structural_constants(tfi_chain)) == p

    def test_light_cone_radius_float_range(self):
        p = BoundParams(g=3.0, k=2)  # kappa = 288
        assert p.light_cone_radius(0.05) == p.r_t(0.05) == 2**15 - 1
        assert float(p.light_cone_radius(3.55)) == float(2**1023 - 1)  # n = 1023
        with pytest.raises(DomainError, match="1152 intervals"):
            p.light_cone_radius(4.0)

    def test_from_constants_clamps_k(self):
        const = structural_constants(KLocalOperator(3))
        assert const.k == 0
        assert BoundParams.from_constants(const) == BoundParams(g=0.0, k=1)


class TestTheorem1:
    def test_frozen_value(self):
        assert theorem1_rhs(UNIT, 1, 1.0) == pytest.approx(6.0)

    def test_scales_linearly(self):
        assert theorem1_rhs(UNIT, 5, 2.0) == pytest.approx(60.0)

    def test_dominates_energy_gap(self):
        # 6*g*k*q >= 2*g*q always (k >= 1)
        for k in (1, 2, 5):
            p = BoundParams(g=1.7, k=k)
            for q in (1, 3, 10):
                assert theorem1_rhs(p, q, 1.0) >= 2.0 * p.g * q

    def test_domain(self):
        with pytest.raises(DomainError):
            theorem1_rhs(UNIT, -1, 1.0)


class TestSmallTime:
    def test_frozen_value(self):
        # q0=1, k=1, t = 1/kappa = 1/24 -> x = 1/2; q=3 -> 2 * (1/2)^2 / (1/2) = 1
        assert small_time_rhs(UNIT, 1, 3, 1.0 / 24.0, 1.0) == pytest.approx(1.0)

    def test_t_zero_is_zero_beyond_q0(self):
        assert small_time_rhs(UNIT, 1, 2, 0.0, 1.0) == 0.0

    def test_t_zero_at_q0(self):
        assert small_time_rhs(UNIT, 1, 1, 0.0, 1.0) == pytest.approx(2.0)

    def test_monotone_decreasing_in_q(self):
        t = 0.9 * 2.0 / UNIT.kappa
        values = [small_time_rhs(UNIT, 1, q, t, 1.0) for q in range(1, 12)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_domain_limits(self):
        with pytest.raises(DomainError):
            small_time_rhs(UNIT, 1, 3, 2.0 / UNIT.kappa, 1.0)  # x = 1
        with pytest.raises(DomainError):
            small_time_rhs(UNIT, 1, 3, -0.01, 1.0)
        with pytest.raises(DomainError):
            small_time_rhs(UNIT, 3, 1, 0.01, 1.0)  # q < q0


class TestMainBound:
    def test_frozen_value(self):
        # t=0.05 -> n=2, r_t=3; q=30, q0=1: 8*2*exp(-ln2*(10-1)) = 16/512
        assert main_rhs(UNIT, 1, 30, 0.05, 1.0) == pytest.approx(0.03125)

    def test_delta_identity(self):
        # main = 2 * n * delta * norm, exactly
        for t in (0.01, 0.05, 0.3):
            for q in (4, 9, 17):
                n = UNIT.intervals(t)
                lhs = main_rhs(UNIT, 1, q, t, 1.7)
                rhs = 2.0 * n * delta_value(UNIT, 1, q, t) * 1.7
                assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_frozen_delta(self):
        assert delta_value(UNIT, 1, 30, 0.05) == pytest.approx(0.0078125)

    def test_monotone_decreasing_in_q(self):
        values = [main_rhs(UNIT, 1, q, 0.05, 1.0) for q in (4, 8, 16, 32)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_negative_q_rejected(self):
        with pytest.raises(DomainError, match="q must be nonnegative"):
            main_rhs(UNIT, 1, -4, 0.001, 1.0)
        with pytest.raises(DomainError, match="q must be nonnegative"):
            delta_value(UNIT, 1, -4, 0.001)

    def test_no_overflow_large_q(self):
        assert main_rhs(UNIT, 1, 10_000, 0.01, 1.0) == 0.0 or main_rhs(
            UNIT, 1, 10_000, 0.01, 1.0
        ) < 1e-300


class TestAmplification:
    def test_frozen_check(self):
        # (delta+1)^n - 1 <= 2*n*delta at the parameters of the chained
        # bound, where the left side stays <= 1
        delta = delta_value(UNIT, 1, 30, 0.05)
        n = UNIT.intervals(0.05)
        assert delta == pytest.approx(0.0078125) and n == 2
        lhs = (delta + 1.0) ** n - 1.0
        assert lhs == pytest.approx(1.0078125**2 - 1.0) and lhs <= 1.0
        assert 2.0 * n * delta == pytest.approx(0.03125)
        assert lhs <= 2.0 * n * delta

    @given(st.floats(0.0, 2.0), st.integers(1, 8))
    @settings(max_examples=300)
    def test_amplification_property(self, delta, n):
        # (delta+1)^n - 1 <= 2*n*delta wherever the left side is <= 1
        lhs = (delta + 1.0) ** n - 1.0
        if lhs <= 1.0:
            assert lhs <= 2.0 * n * delta * (1 + 1e-12)


class TestQSchedule:
    def test_frozen_schedule(self):
        s = q_schedule(1, 10, 2)
        assert s.delta_q == 2
        assert s.levels == (4, 10)

    def test_single_interval_collapses(self):
        s = q_schedule(2, 9, 1)
        assert s.levels == (9,)

    def test_doubling_recursion(self):
        s = q_schedule(1, 50, 3)
        assert s.levels[-1] <= 50
        for a, b in zip(s.levels, s.levels[1:]):
            assert b == 2 * a + s.delta_q

    def test_infeasible(self):
        with pytest.raises(InfeasibleScheduleError):
            q_schedule(3, 10, 2)  # needs q >= 12

    @given(st.integers(1, 4), st.integers(1, 200), st.integers(1, 5))
    @settings(max_examples=200)
    def test_schedule_property(self, q0, q, n):
        if q < (2**n) * q0:
            with pytest.raises(InfeasibleScheduleError):
                q_schedule(q0, q, n)
            return
        s = q_schedule(q0, q, n)
        assert len(s.levels) == n
        assert s.levels[-1] <= q
        assert s.levels[0] >= 2 * q0 + s.delta_q if n > 1 else True
        # each step stays within the per-interval doubling rule
        prev = q0
        for level in s.levels:
            assert level <= 2 * prev + s.delta_q or n == 1
            prev = level


class TestAuxiliaryBounds:
    def test_frozen_topo(self):
        # k=1, q0=100, q=10, n=1 -> 2 * exp(-ln2 * (100 - 10)) = 2^{-89}
        assert topo_error_rhs(UNIT, 100, 10, 0.01) == pytest.approx(2.0**-89)

    def test_frozen_band(self):
        p = BoundParams(g=1.0, k=1)
        # t small -> n=1; C_v = 8*4*exp(5 ln2 / 2) = 32 * 2^{2.5}
        assert band_rhs(p, 0.01, 4, 0.0) == pytest.approx(32.0 * 2.0**2.5)
        assert band_rhs(p, 0.01, 4, 2.0) == pytest.approx(32.0 * 2.0**2.5 / 2.0)

    def test_band_decay_rate(self):
        p = BoundParams(g=2.0, k=2)
        r1 = band_rhs(p, 0.001, 6, 1.0) / band_rhs(p, 0.001, 6, 0.0)
        assert r1 == pytest.approx(math.exp(-1.0 / (2.0 * p.xi)))
