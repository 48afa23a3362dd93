"""Closed-form and numerically integrated term-structure exponents.

The frozen constants below were produced by an independent high-resolution
RK4 integration (step 1e-5) of the slope and level equations, cross-checked
against the closed forms before freezing; agreement was at the 1e-15 level.
"""

from __future__ import annotations

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import REFERENCE_VOL, draw_valid_economy, reference_economy
from ivoleq.model import GroupSpec, TwoGroupLimit, derive_aggregates, limit_aggregates
from ivoleq.riccati import (
    RiccatiCoeffs,
    RiccatiExplosionError,
    constant_rate_solution,
    market_coeffs,
    rep_agent_coeffs,
    solve_closed_form,
    solve_numerical,
    solve_pair,
)

# reference economy, two investors
B_AT_1 = 0.203353095330
A_AT_1 = -0.005514283265
B_REP_AT_1 = 0.171987900202
A_REP_AT_1 = -0.004664824717

# one-group limit economy with tolerance 1/3 and loading 0.4: the only
# oscillatory cell of the published grid
TRIG_B_AT_1 = 0.927045321378
TRIG_A_AT_1 = -0.024663978918
TRIG_EXPLOSION = 42.84980989010479


def assert_matches_rk4(coeffs: RiccatiCoeffs, horizon: float, tol: float = 1e-8):
    closed = solve_closed_form(coeffs, horizon)
    num = solve_numerical(coeffs, horizon, step=1e-4)
    grid = np.linspace(0.0, horizon, 201)
    for f_num, f_closed in ((num.eval_b, closed.eval_b), (num.eval_a, closed.eval_a)):
        exact = f_closed(grid)
        assert np.all(np.isfinite(exact))
        assert np.max(np.abs(f_num(grid) - exact) / np.maximum(1.0, np.abs(exact))) <= tol


def critical_coeffs(linear: float, disc: float = 0.0, quad: float = 0.5) -> RiccatiCoeffs:
    """Coefficients whose discriminant is ``disc`` (up to rounding)."""
    return RiccatiCoeffs(
        const_term=(linear**2 - disc) / (4.0 * quad),
        linear_term=linear,
        quad_term=quad,
        level_drift=0.02,
        mu_v=0.05,
    )


def trig_cell_aggregates():
    group = GroupSpec(tau=1 / 3, beta_Y=0.4, sigma_Y=0.3)
    lim = TwoGroupLimit(w=0.0, group_a=group, group_b=group)
    return limit_aggregates(REFERENCE_VOL, 1.0, lim)


class TestClosedForm:
    def test_reference_values(self):
        agg = derive_aggregates(reference_economy(2))
        sol, sol_rep = solve_pair(agg)
        assert sol.eval_b(1.0) == pytest.approx(B_AT_1, abs=1e-12)
        assert sol.eval_a(1.0) == pytest.approx(A_AT_1, abs=1e-12)
        assert sol_rep.eval_b(1.0) == pytest.approx(B_REP_AT_1, abs=1e-12)
        assert sol_rep.eval_a(1.0) == pytest.approx(A_REP_AT_1, abs=1e-12)

    def test_starts_at_zero(self):
        sol, sol_rep = solve_pair(derive_aggregates(reference_economy(2)))
        for s in (sol, sol_rep):
            assert s.eval_b(0.0) == 0.0
            assert s.eval_a(0.0) == 0.0

    def test_oscillatory_branch(self):
        agg = trig_cell_aggregates()
        assert agg.discriminant < 0.0
        sol = solve_closed_form(market_coeffs(agg), 1.0)
        assert sol.eval_b(1.0) == pytest.approx(TRIG_B_AT_1, abs=1e-12)
        assert sol.eval_a(1.0) == pytest.approx(TRIG_A_AT_1, abs=1e-12)
        assert sol.explosion_time == pytest.approx(TRIG_EXPLOSION, abs=1e-9)

    def test_oscillatory_branch_explodes_past_its_pole(self):
        agg = trig_cell_aggregates()
        with pytest.raises(RiccatiExplosionError) as err:
            solve_closed_form(market_coeffs(agg), 50.0)
        assert err.value.explosion_time == pytest.approx(TRIG_EXPLOSION, abs=1e-9)

    def test_hyperbolic_branch_can_explode(self):
        coeffs = RiccatiCoeffs(
            const_term=0.26, linear_term=0.32, quad_term=0.045, level_drift=0.0, mu_v=0.05
        )
        lam = math.sqrt(coeffs.discriminant)
        expected = 2.0 / lam * math.atanh(lam / coeffs.linear_term)
        sol = solve_closed_form(coeffs, 5.0)
        assert sol.explosion_time == pytest.approx(expected, rel=1e-12)
        with pytest.raises(RiccatiExplosionError):
            solve_closed_form(coeffs, 10.0)

    def test_negative_const_term_gives_negative_slope(self):
        coeffs = RiccatiCoeffs(
            const_term=-0.58, linear_term=-0.5, quad_term=0.045, level_drift=0.0, mu_v=0.05
        )
        sol = solve_closed_form(coeffs, 1.0)
        grid = np.linspace(0.01, 1.0, 50)
        assert np.all(sol.eval_b(grid) < 0.0)

    def test_zero_const_term_degenerates(self):
        # the slope stays exactly at its root b = 0 with no cancellation in
        # the level, however long the span and whatever the linear term's sign
        # (an absolute 1e-15 is below one ulp of a at s = 200)
        cases = (
            (-0.5, 2.0, {"abs": 1e-15}),
            (-0.5, 200.0, {"rel": 1e-14}),
            (0.5, 200.0, {"rel": 1e-14}),
        )
        for linear, horizon, tol in cases:
            coeffs = RiccatiCoeffs(
                const_term=0.0, linear_term=linear, quad_term=0.045, level_drift=0.1, mu_v=0.05
            )
            sol = solve_closed_form(coeffs, horizon)
            grid = np.linspace(0.0, horizon, 41)
            assert sol.explosion_time is None
            assert np.all(sol.eval_b(grid) == 0.0)
            assert sol.eval_a(grid) == pytest.approx(0.1 * grid, **tol)

    def test_critical_discriminant_matches_rk4(self):
        # a double root: the explosion time is 2 / linear, or none
        for linear in (1.0, 0.5, 0.0, -1.0):
            coeffs = critical_coeffs(linear)
            assert coeffs.discriminant == 0.0
            sol = solve_closed_form(coeffs, 1.0)
            assert sol.explosion_time == (2.0 / linear if linear > 0.0 else None)
            assert_matches_rk4(coeffs, 1.0)

    def test_domain_is_enforced(self):
        sol, _ = solve_pair(derive_aggregates(reference_economy(2)))
        with pytest.raises(ValueError):
            sol.eval_b(1.5)
        with pytest.raises(ValueError):
            sol.eval_b(-0.2)
        # tiny overshoot from accumulated grid arithmetic is clipped
        assert sol.eval_b(1.0 + 1e-10) == sol.eval_b(1.0)


class TestOneExpression:
    """Edge cases of the single closed form near and far from a zero discriminant."""

    @pytest.mark.parametrize("disc", [1e-14, -1e-14, 1e-8, -1e-8])
    @pytest.mark.parametrize("linear", [1.0, -1.0])
    def test_near_critical_matches_rk4(self, linear, disc):
        assert_matches_rk4(critical_coeffs(linear, disc), 1.0)

    def test_explosion_time_continuous_across_zero_discriminant(self):
        times = [
            solve_closed_form(critical_coeffs(1.0, disc), 1.0).explosion_time
            for disc in (-1e-12, 0.0, 1e-12)
        ]
        assert times == pytest.approx([2.0] * 3, rel=1e-10)

    def test_large_positive_discriminant_stays_finite(self):
        coeffs = RiccatiCoeffs(
            const_term=0.26, linear_term=-400.0, quad_term=0.045, level_drift=0.02, mu_v=0.05
        )
        sol = solve_closed_form(coeffs, 10.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            b, a = sol.eval_b(10.0), sol.eval_a(np.array([9.0, 10.0]))
        # the slope sits at the stable root; the level grows at its rate
        stable = 2.0 * coeffs.const_term / (-coeffs.linear_term + math.sqrt(coeffs.discriminant))
        assert b == pytest.approx(stable, rel=1e-14)
        assert a[1] - a[0] == pytest.approx(coeffs.level_drift - stable * coeffs.mu_v, rel=1e-12)

    def test_evaluates_up_to_the_horizon_near_an_explosion(self):
        coeffs = critical_coeffs(1.0)
        horizon = 1.9  # the explosion is at s = 2
        assert_matches_rk4(coeffs, horizon)
        sol = solve_closed_form(coeffs, horizon)
        assert sol.eval_b(horizon) == pytest.approx(
            coeffs.const_term * horizon / (1.0 - 0.5 * horizon), rel=1e-14
        )
        with pytest.raises(ValueError):
            sol.eval_b(1.95)


class TestNumericalIntegration:
    def test_matches_closed_form(self):
        agg = derive_aggregates(reference_economy(2))
        for coeffs in (market_coeffs(agg), rep_agent_coeffs(agg)):
            closed = solve_closed_form(coeffs, 1.0)
            num = solve_numerical(coeffs, 1.0, step=1e-4)
            grid = np.linspace(0.0, 1.0, 1001)
            assert np.max(np.abs(num.eval_b(grid) - closed.eval_b(grid))) <= 1e-8
            assert np.max(np.abs(num.eval_a(grid) - closed.eval_a(grid))) <= 1e-8

    def test_matches_oscillatory_closed_form(self):
        closed = solve_closed_form(market_coeffs(trig_cell_aggregates()), 1.0)
        num = solve_numerical(market_coeffs(trig_cell_aggregates()), 1.0, step=1e-4)
        grid = np.linspace(0.0, 1.0, 1001)
        assert np.max(np.abs(num.eval_b(grid) - closed.eval_b(grid))) <= 1e-8

    def test_detects_blowup(self):
        coeffs = RiccatiCoeffs(
            const_term=0.26, linear_term=0.32, quad_term=0.045, level_drift=0.0, mu_v=0.05
        )
        closed_time = solve_closed_form(coeffs, 5.0).explosion_time
        num = solve_numerical(coeffs, 10.0, step=1e-4)
        assert num.explosion_time is not None
        assert num.explosion_time == pytest.approx(closed_time, abs=1e-2)
        with pytest.raises(ValueError):
            num.eval_b(9.5)

    def test_no_explosion_reported_when_bounded(self):
        num = solve_numerical(market_coeffs(derive_aggregates(reference_economy(2))), 1.0)
        assert num.explosion_time is None

    def test_dense_output_is_deterministic(self):
        num = solve_numerical(market_coeffs(derive_aggregates(reference_economy(2))), 1.0)
        pts = np.array([0.123456, 0.5, 0.987654])
        assert np.array_equal(num.eval_b(pts), num.eval_b(pts))


class TestOrderingProperties:
    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=40, deadline=None)
    def test_benchmark_slope_never_exceeds_market_slope(self, seed):
        econ = draw_valid_economy(np.random.default_rng(seed))
        sol, sol_rep = solve_pair(derive_aggregates(econ))
        grid = np.linspace(0.0, 1.0, 101)
        diff = sol.eval_b(grid) - sol_rep.eval_b(grid)
        assert diff.min() >= -1e-14

    def test_slope_monotone_in_const_term(self):
        base = market_coeffs(derive_aggregates(reference_economy(2)))
        bigger = dataclasses.replace(base, const_term=1.5 * base.const_term)
        lo = solve_closed_form(base, 1.0)
        hi = solve_closed_form(bigger, 1.0)
        grid = np.linspace(0.01, 1.0, 100)
        assert np.all(hi.eval_b(grid) > lo.eval_b(grid))


class TestConstantRateStub:
    def test_flat_discounting(self):
        sol = constant_rate_solution(0.03, 2.0)
        grid = np.linspace(0.0, 2.0, 9)
        assert np.all(sol.eval_b(grid) == 0.0)
        assert sol.eval_a(grid) == pytest.approx(0.03 * grid, abs=1e-15)
