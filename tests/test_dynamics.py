"""Monte Carlo engine: determinism, positivity, identity verification."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from conftest import (
    REFERENCE_INVESTOR,
    REFERENCE_VOL,
    draw_valid_economy,
    heterogeneous_economy,
    reference_economy,
)
from ivoleq.dynamics import (
    SimConfig,
    cir_mean,
    foc_order,
    martingale_checks,
    mc_annuity,
    mc_bond_price,
    mc_risk_premium,
    mc_state_mean,
    simulate,
    solve_multipliers,
    verify_budget_martingale,
    verify_clearing,
    verify_foc,
    verify_forward_measure,
    weak_convergence_study,
)
from ivoleq.equilibrium import annuity_price, bond_price
from ivoleq.model import EconomyParams, InvestorParams, derive_aggregates
from ivoleq.riccati import solve_pair


def small(n_paths=2000, **over) -> SimConfig:
    base = dict(n_paths=n_paths, seed=11, antithetic=False)
    base.update(over)
    return SimConfig(**base)


class TestSimulate:
    def test_deterministic_given_seed(self, econ2):
        a = simulate(econ2, small())
        b = simulate(econ2, small())
        assert np.array_equal(a.v, b.v)
        assert np.array_equal(a.dW, b.dW)
        assert np.array_equal(a.dZ, b.dZ)

    def test_seed_changes_paths(self, econ2):
        a = simulate(econ2, small())
        b = simulate(econ2, small(seed=12))
        assert not np.array_equal(a.v, b.v)

    def test_state_stays_nonnegative(self, econ2):
        for scheme in ("euler", "exact"):
            bundle = simulate(econ2, small(scheme=scheme, antithetic=False))
            assert bundle.v.min() >= 0.0

    def test_deflator_positive(self, econ2):
        bundle = simulate(econ2, small())
        assert bundle.xi_min().min() > 0.0

    def test_antithetic_mirrors_brownian_increments(self, econ2):
        bundle = simulate(econ2, small(antithetic=True))
        half = bundle.n_paths // 2
        assert np.array_equal(bundle.dW[:half], -bundle.dW[half:])
        assert bundle.antithetic_pairs

    def test_antithetic_needs_even_paths(self, econ2):
        with pytest.raises(ValueError):
            simulate(econ2, SimConfig(n_paths=1001, seed=1, antithetic=True))

    def test_exact_scheme_has_no_increments(self, econ2):
        bundle = simulate(econ2, small(scheme="exact"))
        assert bundle.dW is None
        with pytest.raises(ValueError):
            bundle.int_sqrt_v_dW()

    def test_forward_measure_needs_euler(self, econ2):
        with pytest.raises(ValueError):
            simulate(econ2, small(scheme="exact", measure="QU", horizon_U=1.0))

    def test_horizon_override(self, econ2):
        bundle = simulate(econ2, small(), horizon=0.5)
        assert bundle.times[-1] == pytest.approx(0.5, abs=1e-12)
        assert bundle.n_steps == 126


class TestStateMoments:
    def test_mean_matches_linear_ode(self, econ2):
        closed = cir_mean(REFERENCE_VOL.mu_v, REFERENCE_VOL.kappa_v, REFERENCE_VOL.v0, 1.0)
        for scheme in ("euler", "exact"):
            est = mc_state_mean(econ2, small(n_paths=20_000, scheme=scheme))
            assert abs(est.z(closed)) <= 3.0

    def test_zero_reversion_mean_is_affine(self):
        vol = dataclasses.replace(REFERENCE_VOL, kappa_v=0.0)
        assert cir_mean(vol.mu_v, 0.0, vol.v0, 2.0) == pytest.approx(
            vol.v0 + 2.0 * vol.mu_v, abs=1e-14
        )


class TestPricingOracles:
    def test_bond_at_zero_maturity(self, econ2):
        est = mc_bond_price(econ2, 0.0, small())
        assert est.value == 1.0 and est.standard_error == 0.0

    def test_bond_both_schemes(self, econ2):
        agg = derive_aggregates(econ2)
        sol, sol_rep = solve_pair(agg)
        closed = bond_price(sol, 0.0, 1.0, agg.vol.v0)
        for scheme in ("euler", "exact"):
            est = mc_bond_price(econ2, 1.0, small(n_paths=20_000, scheme=scheme))
            assert abs(est.z(closed)) <= 3.0
        closed_rep = bond_price(sol_rep, 0.0, 1.0, agg.vol.v0)
        est = mc_bond_price(econ2, 1.0, small(n_paths=20_000), benchmark=True)
        assert abs(est.z(closed_rep)) <= 3.0

    def test_annuity(self, econ2):
        agg = derive_aggregates(econ2)
        sol, _ = solve_pair(agg)
        est = mc_annuity(econ2, small(n_paths=20_000))
        assert abs(est.z(annuity_price(sol, 0.0, agg.vol.v0))) <= 3.0

    def test_chunked_run_is_deterministic(self, econ2):
        a = mc_bond_price(econ2, 1.0, small(n_paths=6000, chunk_size=1024))
        b = mc_bond_price(econ2, 1.0, small(n_paths=6000, chunk_size=1024))
        assert a.value == b.value and a.standard_error == b.standard_error


class TestMartingales:
    def test_density_means(self, econ_mixed):
        for label, est in martingale_checks(econ_mixed, small(n_paths=20_000)):
            assert abs(est.z(1.0)) <= 3.0, label


class TestClearing:
    def test_reference_and_mixed(self, econ2, econ_mixed):
        for econ in (econ2, econ_mixed):
            rep = verify_clearing(econ, small(n_paths=300))
            assert rep.max_residual <= 1e-10
            assert rep.passed

    def test_single_investor_constant_sum(self):
        econ = EconomyParams(
            vol=REFERENCE_VOL, horizon=1.0, investors=(REFERENCE_INVESTOR,)
        )
        rep = verify_clearing(econ, small(n_paths=300))
        assert rep.max_residual <= 1e-10


class TestFirstOrderConditions:
    def test_residual_at_discretization_level(self, econ_mixed):
        rep = verify_foc(econ_mixed, small(), investor=1)
        assert rep.max_insured <= rep.dt
        assert rep.max_raw <= rep.dt
        assert rep.route_split <= 1e-12

    def test_no_unspanned_loading_merges_routes(self):
        econ = EconomyParams(
            vol=REFERENCE_VOL,
            horizon=1.0,
            investors=(
                dataclasses.replace(REFERENCE_INVESTOR, beta_Y=0.0),
                dataclasses.replace(REFERENCE_INVESTOR, beta_Y=0.0),
            ),
        )
        rep = verify_foc(econ, small(), investor=0)
        assert rep.route_split == 0.0

    def test_first_order_in_step_size(self, econ_mixed):
        rep = foc_order(econ_mixed, small(steps_per_year=63), doublings=2)
        assert 0.7 <= rep.order <= 1.3

    def test_rejects_grid_the_levels_cannot_nest(self):
        econ = dataclasses.replace(reference_economy(2), horizon=0.3)
        # 1008 steps a year over 0.3 years is 302 steps, not a multiple of 4
        with pytest.raises(ValueError, match=r"302 steps.*doublings=2"):
            foc_order(econ, small(n_paths=200), doublings=2)


class TestForwardMeasure:
    def test_bond_and_annuity_centered(self, econ2):
        for security in ("bond", "annuity"):
            est = verify_forward_measure(econ2, 0.5, small(n_paths=20_000), security=security)
            assert abs(est.z()) <= 3.0


class TestRiskPremium:
    def test_identity_and_sign(self, econ2):
        for security in ("bond", "annuity"):
            rep = mc_risk_premium(econ2, 0.5, security, small(n_paths=20_000))
            assert abs(rep.identity_gap.z()) <= 3.0
            band = 3.0 * (rep.premium.standard_error + rep.identity_gap.standard_error)
            assert abs(rep.premium.value - rep.covariance_side) <= band
            # countercyclical-variance calibration: both assets hedge, so
            # expected returns sit below the riskless benchmark
            assert rep.premium.value < 0.0
            assert rep.covariance_side < 0.0


class TestMultipliers:
    def test_sum_clears_goods_at_time_zero(self, econ_mixed):
        ms = solve_multipliers(econ_mixed, small(n_paths=8000))
        assert abs(ms.c0.sum()) <= 1e-12

    def test_homogeneous_investors_split_evenly(self, econ2):
        ms = solve_multipliers(econ2, small(n_paths=8000))
        assert ms.c0[0] == ms.c0[1]

    def test_symmetric_wealth_split(self):
        x = 0.3
        econ = EconomyParams(
            vol=REFERENCE_VOL,
            horizon=1.0,
            investors=(
                dataclasses.replace(REFERENCE_INVESTOR, X0=x),
                dataclasses.replace(REFERENCE_INVESTOR, X0=-x),
            ),
        )
        ms = solve_multipliers(econ, small(n_paths=8000))
        assert ms.c0[0] - ms.c0[1] == pytest.approx(2 * x / ms.annuity_mc.value, abs=1e-12)

    def test_annuity_cross_check(self, econ2):
        ms = solve_multipliers(econ2, small(n_paths=8000))
        assert abs(ms.annuity_mc.z(ms.annuity_closed)) <= 3.0


class TestBudgetMartingale:
    def test_deflated_wealth_is_flat(self, econ_mixed):
        rep = verify_budget_martingale(
            econ_mixed, small(n_paths=256), investor=0, inner_paths=128
        )
        assert rep.max_z <= 3.0
        assert rep.wealth_at_zero == pytest.approx(rep.budget_x0, abs=0.05)


class TestWeakConvergence:
    def test_observed_order(self, econ2):
        rep = weak_convergence_study(
            econ2, 1.0, small(n_paths=40_000, steps_per_year=16, antithetic=True), doublings=3
        )
        assert 0.7 <= rep.order <= 1.3
        diffs = np.asarray(rep.level_diffs)
        assert np.all(diffs[1:] < diffs[:-1])

    def test_rejects_grid_the_levels_cannot_nest(self, econ2):
        # 128 steps a year over 0.3 years is 38 steps, not a multiple of 8
        with pytest.raises(ValueError, match=r"38 steps.*doublings=3"):
            weak_convergence_study(econ2, 0.3, SimConfig(n_paths=200, steps_per_year=16))


class TestRandomEconomies:
    def test_clearing_and_positivity_hold_off_reference(self):
        rng = np.random.default_rng(2026)
        for _ in range(3):
            econ = draw_valid_economy(rng, with_wealth=True)
            bundle = simulate(econ, small(n_paths=200))
            assert bundle.v.min() >= 0.0
            rep = verify_clearing(econ, small(n_paths=200))
            assert rep.max_residual <= 1e-10
