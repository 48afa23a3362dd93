"""Monte Carlo engine: determinism, positivity, identity verification."""

from __future__ import annotations

import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    REFERENCE_INVESTOR,
    REFERENCE_VOL,
    draw_valid_economy,
    heterogeneous_economy,
    reference_economy,
)
from ivoleq import dynamics
from ivoleq.config import load_config
from ivoleq.dynamics import (
    SimConfig,
    cir_mean,
    martingale_checks,
    mc_annuity,
    mc_bond_price,
    mc_risk_premium,
    mc_state_mean,
    simulate,
    solve_multipliers,
    verify_clearing,
    verify_foc,
    verify_forward_measure,
    weak_convergence_study,
)
from ivoleq.equilibrium import annuity_price, bond_price
from ivoleq.model import EconomyParams, InvestorParams, derive_aggregates
from ivoleq.riccati import solve_pair

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


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

    @pytest.mark.parametrize("horizon", [-0.5, -1.0, math.nan, -math.inf])
    def test_negative_or_nonfinite_horizon_is_refused(self, econ2, horizon):
        message = f"simulation horizon {horizon} must be finite and nonnegative"
        with pytest.raises(ValueError, match=message):
            mc_bond_price(econ2, horizon, small())
        with pytest.raises(ValueError, match=message):
            mc_state_mean(econ2, small(), horizon=horizon)

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


class TestExactSchemeControl:
    """The exact-scheme oracles add ``exp(-m_k) (int_r - m_k)``, where ``m_k``
    is the exact mean of the trapezoid rate integral ``int_r`` at t_k."""

    @pytest.mark.parametrize(("name", "measure"), [("oscillatory", "P"), ("table1", "P"),
                                                   ("table1", "Qmin")])
    def test_mean_is_the_trapezoid_of_the_state_mean(self, name, measure):
        econ = load_config(CONFIG_DIR / f"{name}.json")
        ctx = dynamics._SimContext(econ, small(steps_per_year=48, measure=measure), 1.0)
        # oscillatory has no mean reversion under P: the affine branch of cir_mean
        assert (ctx.kappa_eff == 0.0) == (name == "oscillatory")
        vol, agg = econ.vol, ctx.agg
        state = [cir_mean(vol.mu_v, ctx.kappa_eff, vol.v0, t) for t in ctx.times]
        want = [agg.rate_intercept * t
                + ctx.rate_slope * sum(0.5 * (state[j] + state[j + 1]) * ctx.dt for j in range(k))
                for k, t in enumerate(ctx.times)]
        np.testing.assert_allclose(dynamics._mean_int_rate(ctx), want, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize(("name", "measure"), [("oscillatory", "P"), ("table1", "Qmin")])
    def test_mean_matches_the_exact_walk(self, name, measure):
        econ = load_config(CONFIG_DIR / f"{name}.json")
        # four grid points: a 3-SE band at each of dozens would fail by chance
        # at about one seed in five (the first, short-time sums are nearly independent)
        sim = small(n_paths=4000, steps_per_year=4, measure=measure, scheme="exact")
        int_r = simulate(econ, sim).int_rate()
        m = dynamics._mean_int_rate(dynamics._SimContext(econ, sim, econ.horizon))
        assert m[0] == 0.0 and not int_r[:, 0].any()
        se = int_r[:, 1:].std(axis=0, ddof=1) / math.sqrt(sim.n_paths)
        assert np.all(np.abs(int_r[:, 1:].mean(axis=0) - m[1:]) <= 3.0 * se)

    @pytest.mark.parametrize("config", sorted(CONFIG_DIR.glob("*.json")), ids=lambda p: p.stem)
    def test_controlled_oracles_match_closed_forms(self, config):
        econ = load_config(config)
        agg = derive_aggregates(econ)
        sol, sol_rep = solve_pair(agg)
        sim = small(n_paths=20_000, seed=0, scheme="exact")
        for U in (0.25, 0.5, 1.0):
            for benchmark, s in ((False, sol), (True, sol_rep)):
                est = mc_bond_price(econ, U, sim, benchmark=benchmark)
                assert abs(est.z(bond_price(s, 0.0, U, agg.vol.v0))) <= 3.0, (U, benchmark)
        est = mc_annuity(econ, sim)
        assert abs(est.z(annuity_price(sol, 0.0, agg.vol.v0))) <= 3.0

    def test_control_cuts_the_bond_error_thirtyfold(self):
        econ = load_config(CONFIG_DIR / "table1.json")
        plan = dynamics._bond_plan(econ, econ.horizon, small(n_paths=20_000, seed=1, scheme="exact"))
        plain = dynamics._mean_plan(plan.ctx, lambda ch: dynamics._then(ch, lambda ch: np.exp(-ch.int_r)))
        controlled, uncontrolled = dynamics._run(plan, plain)
        assert 30.0 * controlled.standard_error <= uncontrolled.standard_error


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
        assert rep.investor == 1
        assert rep.max_insured <= rep.dt

    def test_no_unspanned_loading_merges_routes(self):
        # without an unspanned loading raw income is insured income and the
        # belief density is one, on the full-path reference bit for bit
        econ = EconomyParams(
            vol=REFERENCE_VOL,
            horizon=1.0,
            investors=(
                dataclasses.replace(REFERENCE_INVESTOR, beta_Y=0.0),
                dataclasses.replace(REFERENCE_INVESTOR, beta_Y=0.0),
            ),
        )
        bundle = simulate(econ, small(n_paths=200))
        for i in range(econ.n_investors):
            raw, insured = bundle.income_paths(i)
            assert np.array_equal(raw, insured)
            assert not np.any(bundle.log_belief_density(i))
        rep = verify_foc(econ, small(), investor=0)
        assert rep.max_insured <= rep.dt


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


class TestWeakConvergence:
    def test_observed_order(self, econ2):
        rep = weak_convergence_study(
            econ2, 1.0, small(n_paths=40_000, steps_per_year=16, antithetic=True), doublings=3
        )
        assert 0.7 <= rep.order <= 1.3
        diffs = np.asarray(rep.level_diffs)
        assert np.all(diffs[1:] < diffs[:-1])

    def test_runs_euler_whatever_the_scheme(self, econ2):
        sim = SimConfig(n_paths=200, steps_per_year=16, seed=3)
        exact = weak_convergence_study(econ2, 0.5, dataclasses.replace(sim, scheme="exact"))
        assert exact == weak_convergence_study(econ2, 0.5, sim)

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
