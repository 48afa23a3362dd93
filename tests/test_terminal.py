"""Terminal-wealth economy: schedule identities, multipliers, clearing."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from conftest import (
    REFERENCE_INVESTOR,
    REFERENCE_VOL,
    draw_valid_economy,
    reference_economy,
)
from ivoleq import dynamics
from ivoleq.dynamics import SimConfig
from ivoleq.equilibrium import discrete_mpr
from ivoleq.model import EconomyParams, derive_aggregates, require_valid
from ivoleq.riccati import market_coeffs, solve_closed_form, solve_pair
from ivoleq.terminal import (
    solve_terminal_multipliers,
    terminal_equilibrium,
    terminal_mpr,
    verify_terminal_clearing,
    wealth_sum_loading,
)


def sim(n_paths=1500, **over) -> SimConfig:
    base = dict(n_paths=n_paths, seed=5, antithetic=False)
    base.update(over)
    return SimConfig(**base)


class TestSchedule:
    def test_start_equals_window_coefficient_bitwise(self, econ2):
        agg = require_valid(econ2)
        sol, _ = solve_pair(agg)
        assert terminal_mpr(sol, agg, 0.0, 1.0) == discrete_mpr(sol, agg, 0.0, 1.0)

    def test_start_identity_on_random_draws(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            econ = draw_valid_economy(rng)
            agg = require_valid(econ)
            sol, _ = solve_pair(agg)
            T = econ.horizon
            assert terminal_mpr(sol, agg, 0.0, T) == discrete_mpr(sol, agg, 0.0, T)

    def test_end_equals_instantaneous_loading(self, econ2):
        agg = require_valid(econ2)
        sol, _ = solve_pair(agg)
        assert terminal_mpr(sol, agg, 1.0, 1.0) == agg.mpr_loading

    def test_dominates_loading_when_vol_of_vol_negative(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            econ = draw_valid_economy(rng, require_negative_vol_of_vol=True)
            agg = require_valid(econ)
            sol, _ = solve_pair(agg)
            T = econ.horizon
            grid = np.linspace(0.0, T, 21)
            gap = terminal_mpr(sol, agg, grid, T) - agg.mpr_loading
            assert gap.min() >= -1e-14
            # strict away from the final date: the slope exponent is
            # positive there because its constant term is positive
            assert gap[0] > 0.0

    def test_vectorized_matches_scalar(self, econ2):
        agg = require_valid(econ2)
        sol, _ = solve_pair(agg)
        grid = np.array([0.0, 0.3, 0.7, 1.0])
        vals = terminal_mpr(sol, agg, grid, 1.0)
        for t, m in zip(grid, vals):
            assert terminal_mpr(sol, agg, float(t), 1.0) == m

    def test_rejects_time_outside_horizon(self, econ2):
        agg = require_valid(econ2)
        sol, _ = solve_pair(agg)
        with pytest.raises(ValueError):
            terminal_mpr(sol, agg, -0.1, 1.0)
        with pytest.raises(ValueError):
            terminal_mpr(sol, agg, 1.1, 1.0)

    def test_equilibrium_bundle(self, econ2):
        agg = require_valid(econ2)
        te = terminal_equilibrium(agg)
        assert te.horizon == 1.0
        assert te.price_of_risk(0.3) == terminal_mpr(te.riccati, agg, 0.3, 1.0)


class TestWealthLoading:
    def test_vanishes_on_reference(self, econ2):
        agg = require_valid(econ2)
        sol, _ = solve_pair(agg)
        for t in (0.0, 0.25, 0.5, 0.9):
            assert abs(wealth_sum_loading(sol, agg, t)) <= 1e-10

    def test_vanishes_on_random_draws(self):
        rng = np.random.default_rng(43)
        for _ in range(8):
            econ = draw_valid_economy(rng, with_wealth=True)
            agg = require_valid(econ)
            sol, _ = solve_pair(agg)
            assert abs(wealth_sum_loading(sol, agg, 0.0)) <= 1e-10
            assert abs(wealth_sum_loading(sol, agg, 0.4 * econ.horizon)) <= 1e-10

    def test_zero_at_final_date(self, econ2):
        agg = require_valid(econ2)
        sol, _ = solve_pair(agg)
        assert wealth_sum_loading(sol, agg, 1.0) == 0.0


class TestMultipliers:
    def test_homogeneous_investors_match_bitwise(self, econ2):
        ms = solve_terminal_multipliers(econ2, sim())
        assert ms.intercept[0] == ms.intercept[1]
        assert ms.alpha[0] == ms.alpha[1]

    def test_alpha_consistent_with_intercept(self, econ_mixed):
        ms = solve_terminal_multipliers(econ_mixed, sim())
        taus = np.array([inv.tau for inv in econ_mixed.investors])
        assert np.array_equal(ms.alpha, np.exp(-ms.intercept / taus) / taus)

    def test_deflator_mean_near_one(self, econ2):
        ms = solve_terminal_multipliers(econ2, sim(n_paths=4000))
        assert abs(ms.deflator_mean - 1.0) <= 0.1

    def test_requires_physical_measure(self, econ2):
        with pytest.raises(ValueError):
            solve_terminal_multipliers(econ2, sim(measure="Qmin"))


class TestClearing:
    def test_residual_at_discretization_level(self, econ2, econ_mixed):
        for econ in (econ2, econ_mixed):
            rep = verify_terminal_clearing(econ, sim())
            assert rep.max_residual <= rep.dt
            assert rep.mean_residual <= rep.max_residual
            assert rep.loading_gap <= 1e-10

    def test_residual_shrinks_linearly(self, econ2):
        coarse = verify_terminal_clearing(econ2, sim(steps_per_year=126))
        fine = verify_terminal_clearing(econ2, sim(steps_per_year=252))
        assert 1.5 <= coarse.max_residual / fine.max_residual <= 2.8

    def test_single_investor(self):
        econ = EconomyParams(
            vol=REFERENCE_VOL, horizon=1.0, investors=(REFERENCE_INVESTOR,)
        )
        rep = verify_terminal_clearing(econ, sim())
        assert rep.max_residual <= rep.dt

    @pytest.mark.parametrize("antithetic", [False, True], ids=["plain", "antithetic"])
    @pytest.mark.parametrize("seed", [1, 5])
    def test_chunked_equals_one_block_on_the_same_paths(self, econ_mixed, seed, antithetic):
        # above chunk_size the multipliers come from chunk-merged means and the
        # residual from running extremes; the one-block formulas applied to
        # the same paths, concatenated in full, give the same values (the
        # largest residual sits at the smallest f on the plain seed-1 paths
        # and at the largest on the other cases)
        econ = econ_mixed
        s = sim(n_paths=300, chunk_size=64, seed=seed, antithetic=antithetic)
        rep = verify_terminal_clearing(econ, s)
        agg = require_valid(econ)
        sol = solve_closed_form(market_coeffs(agg), econ.horizon)
        log_xi, y_end = [], []
        for chunk in dynamics._iter_chunks(dynamics._SimContext(econ, s, econ.horizon)):
            b = dynamics._bundle(chunk)
            coeff = terminal_mpr(sol, agg, b.times[:-1], econ.horizon)
            v = b.v[:, :-1]
            log_xi.append(-(coeff * np.sqrt(v) * b.dW).sum(axis=1)
                          - 0.5 * (coeff**2 * v * b.dt).sum(axis=1))
            y_end.append([b.insured_income(i)[:, -1] for i in range(econ.n_investors)])
        log_xi, y_end = np.concatenate(log_xi), np.concatenate(y_end, axis=1)
        xi = np.exp(log_xi)
        x0 = np.array([inv.X0 for inv in econ.investors])
        taus = np.array([inv.tau for inv in econ.investors])
        intercept = (x0 + taus * (xi * log_xi).mean() + (xi * y_end).mean(axis=1)) / xi.mean()
        total = intercept.sum() - agg.tau_total * log_xi - y_end.sum(axis=0)
        mult = rep.multipliers
        np.testing.assert_allclose(mult.intercept, intercept, rtol=1e-12)
        np.testing.assert_allclose(mult.alpha, np.exp(-intercept / taus) / taus, rtol=1e-11)
        assert mult.deflator_mean == pytest.approx(xi.mean(), rel=1e-12)
        assert rep.max_residual == pytest.approx(np.abs(total).max(), rel=1e-9)
        assert rep.mean_residual == pytest.approx(total.mean(), rel=1e-9, abs=1e-12)
        assert (rep.n_paths, rep.dt) == (300, b.dt)

    def test_requires_euler_paths(self, econ2):
        with pytest.raises(ValueError):
            verify_terminal_clearing(econ2, sim(scheme="exact"))
        with pytest.raises(ValueError):
            verify_terminal_clearing(econ2, sim(measure="Qmin"))
