"""Parameter containers, aggregation and assumption checks."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import REFERENCE_INVESTOR, REFERENCE_VOL, limit_as_finite, reference_economy
from ivoleq.model import (
    EconomyParams,
    GroupSpec,
    InvestorParams,
    TwoGroupLimit,
    VolParams,
    aggregates_from_arrays,
    derive_aggregates,
    limit_aggregates,
    replicate_investor,
    validate,
)


class TestDerivedAggregates:
    """Frozen aggregate values for the two-investor reference economy."""

    def test_sums(self):
        agg = derive_aggregates(reference_economy(2))
        assert agg.tau_total == 1.0
        assert agg.sigma_total == 0.6
        assert agg.kappa_total == 0.0
        assert agg.mu_total == 0.0
        assert agg.beta_sq_over_tau == pytest.approx(0.16, abs=1e-15)
        assert agg.beta_sq_total == pytest.approx(0.08, abs=1e-15)

    def test_rate_and_mpr_coefficients(self):
        agg = derive_aggregates(reference_economy(2))
        assert agg.mpr_loading == pytest.approx(0.6, abs=1e-15)
        assert agg.beta_dispersion == pytest.approx(0.08, abs=1e-15)
        assert agg.rate_intercept == 0.0
        assert agg.rate_slope == pytest.approx(-0.26, abs=1e-15)
        assert agg.rate_slope_rep == pytest.approx(-0.22, abs=1e-15)

    def test_ode_coefficients(self):
        agg = derive_aggregates(reference_economy(2))
        assert agg.ode_const == pytest.approx(0.26, abs=1e-15)
        assert agg.ode_const_rep == pytest.approx(0.22, abs=1e-15)
        assert agg.ode_linear == pytest.approx(-0.52, abs=1e-15)
        assert agg.ode_quad == pytest.approx(0.045, abs=1e-16)
        assert agg.discriminant == pytest.approx(0.2236, abs=1e-15)

    def test_more_investors_widen_the_gaps(self):
        gaps = []
        for n in (2, 5, 10, 100):
            agg = derive_aggregates(reference_economy(n))
            gaps.append(agg.beta_dispersion)
        assert gaps == sorted(gaps)
        assert gaps[0] == pytest.approx(0.08, abs=1e-15)


class TestPermutationInvariance:
    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=50, deadline=None)
    def test_aggregates_ignore_investor_order(self, seed):
        rng = np.random.default_rng(seed)
        n = 6
        tau = rng.uniform(0.3, 1.5, n)
        sigma = rng.uniform(0.0, 0.5, n)
        kappa = rng.uniform(-0.3, 0.3, n)
        mu = rng.uniform(-0.2, 0.2, n)
        beta = rng.uniform(0.0, 0.5, n)
        base = aggregates_from_arrays(REFERENCE_VOL, 1.0, tau, sigma, kappa, mu, beta)
        perm = rng.permutation(n)
        shuffled = aggregates_from_arrays(
            REFERENCE_VOL, 1.0, tau[perm], sigma[perm], kappa[perm], mu[perm], beta[perm]
        )
        for field in (
            "tau_total",
            "sigma_total",
            "kappa_total",
            "mu_total",
            "beta_sq_over_tau",
            "beta_sq_total",
        ):
            assert getattr(base, field) == getattr(shuffled, field)


def finite_check(report):
    return next(c for c in report.checks if c.name == "exponents_finite_on_horizon")


class TestValidation:
    def test_reference_passes(self):
        report = validate(reference_economy(2))
        assert report.passed
        names = [c.name for c in report.checks]
        assert "state_positivity" in names
        assert "exponents_finite_on_horizon" in names

    def test_state_positivity_gate(self):
        vol = dataclasses.replace(REFERENCE_VOL, mu_v=0.01)
        econ = EconomyParams(
            vol=vol, horizon=1.0, investors=replicate_investor(REFERENCE_INVESTOR, 2)
        )
        report = validate(econ)
        assert not report.passed
        failed = {c.name for c in report.checks if not c.passed}
        assert "state_positivity" in failed

    def test_discriminant_gate(self):
        # moderate mean-reversion with a large squared loading pushes the
        # discriminant negative; the exponents are computable until they
        # explode at s = 5.15 (market) and 5.94 (benchmark)
        vol = VolParams(mu_v=0.05, kappa_v=0.0, sigma_v=-0.3, v0=1.0)
        inv = InvestorParams(tau=1 / 3, sigma_Y=0.3, beta_Y=0.4)
        short = validate(EconomyParams(vol=vol, horizon=1.0, investors=(inv,) * 2))
        assert short.aggregates.discriminant < 0.0
        assert short.passed
        assert "explosion margin 4.15164" in finite_check(short).detail
        long = validate(EconomyParams(vol=vol, horizon=6.0, investors=(inv,) * 2))
        failed = {c.name for c in long.checks if not c.passed}
        assert failed == {"exponents_finite_on_horizon"}
        assert finite_check(long).detail.startswith("slope exponent explodes at s = 5.15164")

    def test_unrepresentable_exponents_fail(self):
        # a zero constant term with linear term 1 never explodes, but w is
        # evaluated over exp(s / 2) as exp(-s), which underflows past s = 745
        vol = VolParams(mu_v=0.05, kappa_v=1.0, sigma_v=0.3, v0=1.0)
        investors = (InvestorParams(tau=0.5), InvestorParams(tau=1.0))
        assert validate(EconomyParams(vol=vol, horizon=700.0, investors=investors)).passed
        report = validate(EconomyParams(vol=vol, horizon=1400.0, investors=investors))
        assert report.aggregates.ode_const == 0.0
        assert report.aggregates.ode_linear == 1.0
        failed = {c.name for c in report.checks if not c.passed}
        assert failed == {"exponents_finite_on_horizon"}
        assert finite_check(report).detail.startswith("exponents not representable")

    @pytest.mark.parametrize(
        "investors",
        [
            (InvestorParams(tau=0.5, sigma_Y=0.3, beta_Y=0.2),),
            (InvestorParams(tau=0.5, sigma_Y=0.3), InvestorParams(tau=1.0, sigma_Y=0.1)),
            (InvestorParams(tau=0.5), InvestorParams(tau=1.0)),
        ],
        ids=["one_investor", "zero_beta", "zero_const_term"],
    )
    def test_edge_economies_pass(self, investors):
        report = validate(EconomyParams(vol=REFERENCE_VOL, horizon=1.0, investors=investors))
        assert report.passed
        assert finite_check(report).detail.endswith("explosion margin none")

    def test_net_supply_gate(self):
        econ = EconomyParams(
            vol=REFERENCE_VOL,
            horizon=1.0,
            investors=(
                dataclasses.replace(REFERENCE_INVESTOR, X0=0.1),
                dataclasses.replace(REFERENCE_INVESTOR, X0=-0.1 + 1e-6),
            ),
        )
        report = validate(econ)
        failed = {c.name for c in report.checks if not c.passed}
        assert "zero_net_supply" in failed

    def test_degenerate_vol_of_vol_fails_validation(self):
        vol = VolParams(mu_v=0.05, kappa_v=-0.7, sigma_v=0.0, v0=1.0)
        econ = EconomyParams(
            vol=vol, horizon=1.0, investors=replicate_investor(REFERENCE_INVESTOR, 2)
        )
        failed = {c.name for c in validate(econ).checks if not c.passed}
        assert "state_positivity" in failed

    def test_initial_state_positive_enforced_on_construction(self):
        with pytest.raises(ValueError):
            VolParams(mu_v=0.05, kappa_v=-0.7, sigma_v=-0.3, v0=-1.0)


class TestReplication:
    def test_expansion(self):
        group = replicate_investor(REFERENCE_INVESTOR, 5)
        assert len(group) == 5
        assert all(i == REFERENCE_INVESTOR for i in group)

    def test_rejects_nonzero_wealth(self):
        rich = dataclasses.replace(REFERENCE_INVESTOR, X0=0.5)
        with pytest.raises(ValueError):
            replicate_investor(rich, 3)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            replicate_investor(REFERENCE_INVESTOR, 0)


class TestTwoGroupLimit:
    def test_weight_range(self):
        g = GroupSpec(tau=0.5, beta_Y=0.2)
        with pytest.raises(ValueError):
            TwoGroupLimit(w=1.5, group_a=g, group_b=g)

    def test_idiosyncratic_share_vanishes(self):
        g = GroupSpec(tau=0.5, beta_Y=0.2, sigma_Y=0.3)
        agg = limit_aggregates(REFERENCE_VOL, 1.0, TwoGroupLimit(w=1.0, group_a=g, group_b=g))
        assert agg.beta_sq_total == 0.0
        assert agg.beta_sq_over_tau == pytest.approx(0.08, abs=1e-15)

    @given(
        seed=st.integers(0, 2**31),
        w=st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),
    )
    @settings(max_examples=10, deadline=None)
    def test_limit_matches_large_replicated_economy(self, seed, w):
        rng = np.random.default_rng(seed)

        def group() -> GroupSpec:
            return GroupSpec(
                tau=rng.uniform(0.35, 1.5),
                beta_Y=rng.uniform(0.0, 0.3),
                sigma_Y=rng.uniform(0.0, 0.5),
                kappa_Y=rng.uniform(-0.3, 0.3),
                mu_Y=rng.uniform(-0.2, 0.2),
            )

        lim = TwoGroupLimit(w=w, group_a=group(), group_b=group())
        agg_lim = limit_aggregates(REFERENCE_VOL, 1.0, lim)
        n = 100_000
        agg_fin = derive_aggregates(limit_as_finite(REFERENCE_VOL, 1.0, lim, n))
        # scale-free coefficients converge at rate 1/n
        assert agg_lim.mpr_loading == pytest.approx(agg_fin.mpr_loading, abs=1e-12)
        assert agg_lim.rate_slope == pytest.approx(agg_fin.rate_slope, abs=1e-4)
        assert agg_lim.rate_slope_rep == pytest.approx(agg_fin.rate_slope_rep, abs=1e-4)
        assert agg_lim.ode_const == pytest.approx(agg_fin.ode_const, abs=1e-4)
        assert agg_lim.beta_dispersion == pytest.approx(agg_fin.beta_dispersion, abs=1e-4)
