"""Spot rates, bond and annuity pricing, price-of-risk curves.

Frozen pricing constants come from the same independent RK4 oracle as the
exponent values in test_riccati (closed forms evaluated only after the
integrator agreed with them to 1e-15).
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import draw_valid_economy, heterogeneous_economy, reference_economy
from ivoleq.equilibrium import (
    annuity_price,
    annuity_vol,
    bond_price,
    discrete_mpr,
    discrete_mpr_gap,
    mpr_curve,
    mpr_instantaneous,
    optimal_consumption_coeffs,
    quad_nodes,
    rate_gap,
    spot_rate,
    spot_rate_rep,
    term_structure,
)
from ivoleq.equilibrium import _legendre_rule
from ivoleq.model import derive_aggregates
from ivoleq.riccati import constant_rate_solution, solve_pair

BOND_1 = 1.232281560781
BOND_05 = 1.123069860379
BOND_025 = 1.063276799988
BOND_REP_1 = 1.193216646760
ANNUITY_0 = 1.120754478613
ANNUITY_VOL_0 = -0.038258573747
MPR_WINDOW_0 = 0.6610059285989207
MPR_WINDOW_REP_0 = 0.6515963700606435


@pytest.fixture
def agg2():
    return derive_aggregates(reference_economy(2))


@pytest.fixture
def sols(agg2):
    return solve_pair(agg2)


class TestSpotRate:
    def test_reference_values(self, agg2):
        assert spot_rate(agg2, 1.0) == pytest.approx(-0.26, abs=1e-15)
        assert spot_rate_rep(agg2, 1.0) == pytest.approx(-0.22, abs=1e-15)

    @given(seed=st.integers(0, 2**31), v=st.floats(0.01, 3.0))
    @settings(max_examples=50, deadline=None)
    def test_gap_identity(self, seed, v):
        agg = derive_aggregates(draw_valid_economy(np.random.default_rng(seed)))
        gap = spot_rate_rep(agg, v) - spot_rate(agg, v)
        assert gap == pytest.approx(0.5 * agg.beta_dispersion * v, abs=1e-13)
        assert rate_gap(agg, v) == pytest.approx(gap, abs=1e-15)
        assert gap >= -1e-13


class TestBondPrice:
    def test_reference_values(self, sols):
        sol, sol_rep = sols
        assert bond_price(sol, 0.0, 1.0, 1.0) == pytest.approx(BOND_1, abs=1e-10)
        assert bond_price(sol, 0.0, 0.5, 1.0) == pytest.approx(BOND_05, abs=1e-10)
        assert bond_price(sol, 0.0, 0.25, 1.0) == pytest.approx(BOND_025, abs=1e-10)
        assert bond_price(sol_rep, 0.0, 1.0, 1.0) == pytest.approx(BOND_REP_1, abs=1e-10)

    def test_expiry_is_par(self, sols):
        sol, _ = sols
        assert bond_price(sol, 0.7, 0.7, 1.3) == 1.0

    def test_vectorized_maturities(self, sols):
        sol, _ = sols
        grid = np.array([0.0, 0.25, 0.5, 1.0])
        vals = bond_price(sol, 0.0, grid, 1.0)
        assert vals.shape == grid.shape
        assert vals[0] == 1.0
        assert vals[3] == pytest.approx(BOND_1, abs=1e-10)

    def test_maturity_before_valuation_rejected(self, sols):
        sol, _ = sols
        with pytest.raises(ValueError):
            bond_price(sol, 0.5, 0.25, 1.0)

    def test_negative_rates_make_prices_exceed_par(self, sols):
        # spot rate is negative at the reference calibration, so zero-coupon
        # prices sit above one and grow with maturity
        sol, _ = sols
        grid = np.linspace(0.1, 1.0, 10)
        vals = bond_price(sol, 0.0, grid, 1.0)
        assert np.all(np.diff(vals) > 0.0)
        assert np.all(vals > 1.0)


class TestAnnuity:
    def test_reference_value(self, agg2, sols):
        sol, _ = sols
        assert annuity_price(sol, 0.0, 1.0) == pytest.approx(ANNUITY_0, abs=1e-10)

    def test_empty_tail_is_zero(self, sols):
        sol, _ = sols
        assert annuity_price(sol, 1.0, 1.0) == 0.0

    def test_quadrature_doubling(self, sols):
        sol, _ = sols
        coarse = annuity_price(sol, 0.0, 1.0, nodes_per_panel=64)
        fine = annuity_price(sol, 0.0, 1.0, nodes_per_panel=128)
        assert abs(coarse - fine) <= 1e-9

    def test_constant_rate_cross_check(self):
        rate, horizon = 0.03, 2.0
        sol = constant_rate_solution(rate, horizon)
        expected = (1.0 - math.exp(-rate * horizon)) / rate
        assert annuity_price(sol, 0.0, 1.0, horizon=horizon) == pytest.approx(
            expected, abs=1e-12
        )

    def test_legendre_rule_is_shared_and_read_only(self):
        nodes, weights = quad_nodes(0.0, 1.0)
        x, w = np.polynomial.legendre.leggauss(64)
        assert np.array_equal(nodes, 0.5 + 0.5 * x) and np.array_equal(weights, 0.5 * w)
        rule = _legendre_rule(64)
        assert rule is _legendre_rule(64)
        with pytest.raises(ValueError):
            rule[0][0] = 0.0

    def test_panels_cover_long_spans(self):
        lo, hi = 0.0, 3.7
        nodes, weights = quad_nodes(lo, hi)
        assert nodes.min() > lo and nodes.max() < hi
        assert weights.sum() == pytest.approx(hi - lo, abs=1e-12)

    def test_vol_reference_value(self, agg2, sols):
        sol, _ = sols
        assert annuity_vol(sol, agg2, 0.0, 1.0) == pytest.approx(ANNUITY_VOL_0, abs=1e-10)

    def test_vol_matches_state_sensitivity(self, agg2, sols):
        # dual route: the quadrature formula against a finite difference of
        # the price in the state, scaled by the state diffusion
        sol, _ = sols
        v, h = 1.0, 1e-6
        slope = (annuity_price(sol, 0.0, v + h) - annuity_price(sol, 0.0, v - h)) / (2 * h)
        expected = slope * agg2.vol.sigma_v * math.sqrt(v)
        assert annuity_vol(sol, agg2, 0.0, v) == pytest.approx(expected, abs=1e-7)

    def test_vol_negative_in_reference_economy(self, agg2, sols):
        sol, _ = sols
        assert annuity_vol(sol, agg2, 0.0, 1.0) < 0.0


class TestPriceOfRisk:
    def test_window_reference_values(self, agg2, sols):
        sol, sol_rep = sols
        assert discrete_mpr(sol, agg2, 0.0, 1.0) == pytest.approx(MPR_WINDOW_0, abs=1e-12)
        assert discrete_mpr(sol_rep, agg2, 0.0, 1.0) == pytest.approx(
            MPR_WINDOW_REP_0, abs=1e-12
        )
        assert discrete_mpr_gap(agg2, 1.0) == pytest.approx(
            MPR_WINDOW_0 - MPR_WINDOW_REP_0, abs=1e-13
        )

    def test_window_collapses_to_instantaneous(self, agg2, sols):
        sol, _ = sols
        assert discrete_mpr(sol, agg2, 1.0, 1.0) == agg2.mpr_loading
        assert mpr_instantaneous(agg2, 1.0) == agg2.mpr_loading

    def test_vectorization_matches_scalars(self, agg2, sols):
        sol, _ = sols
        grid = np.linspace(0.0, 1.0, 11)
        vec = discrete_mpr(sol, agg2, grid, 1.0)
        scalars = np.array([discrete_mpr(sol, agg2, float(t), 1.0) for t in grid])
        assert np.array_equal(vec, scalars)

    def test_out_of_window_rejected(self, agg2, sols):
        sol, _ = sols
        with pytest.raises(ValueError):
            discrete_mpr(sol, agg2, 1.2, 1.0)

    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=40, deadline=None)
    def test_market_dominates_benchmark_when_vol_of_vol_negative(self, seed):
        econ = draw_valid_economy(
            np.random.default_rng(seed), require_negative_vol_of_vol=True
        )
        agg = derive_aggregates(econ)
        sol, sol_rep = solve_pair(agg)
        grid = np.linspace(0.0, 0.999, 64)
        diff = discrete_mpr(sol, agg, grid, 1.0) - discrete_mpr(sol_rep, agg, grid, 1.0)
        assert diff.min() >= -1e-14

    @given(seed=st.integers(0, 2**31), scale=st.floats(0.1, 4.0))
    @settings(max_examples=40, deadline=None)
    def test_instantaneous_ignores_unspanned_loadings(self, seed, scale):
        import dataclasses

        econ = draw_valid_economy(np.random.default_rng(seed))
        rescaled = dataclasses.replace(
            econ,
            investors=tuple(
                dataclasses.replace(inv, beta_Y=scale * inv.beta_Y)
                for inv in econ.investors
            ),
        )
        v_grid = np.linspace(0.05, 2.5, 7)
        for v in v_grid:
            before = mpr_instantaneous(derive_aggregates(econ), v)
            after = mpr_instantaneous(derive_aggregates(rescaled), v)
            assert before == after


class TestConsumptionCoefficients:
    def test_homogeneous_investors_consume_flat(self):
        econ = reference_economy(2)
        agg = derive_aggregates(econ)
        coeffs = optimal_consumption_coeffs(agg, econ.investors[0])
        assert coeffs.drift_const == pytest.approx(0.0, abs=1e-15)
        assert coeffs.drift_v == pytest.approx(0.0, abs=1e-15)
        assert coeffs.diffusion == pytest.approx(0.0, abs=1e-15)

    def test_coefficients_clear_in_reference_mixed_economy(self):
        econ = heterogeneous_economy()
        agg = derive_aggregates(econ)
        all_coeffs = [optimal_consumption_coeffs(agg, inv) for inv in econ.investors]
        assert sum(c.drift_const for c in all_coeffs) == pytest.approx(0.0, abs=1e-13)
        assert sum(c.drift_v for c in all_coeffs) == pytest.approx(0.0, abs=1e-13)
        assert sum(c.diffusion for c in all_coeffs) == pytest.approx(0.0, abs=1e-13)

    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=40, deadline=None)
    def test_coefficients_clear_everywhere(self, seed):
        econ = draw_valid_economy(np.random.default_rng(seed), with_wealth=True)
        agg = derive_aggregates(econ)
        all_coeffs = [optimal_consumption_coeffs(agg, inv) for inv in econ.investors]
        scale = max(1.0, max(abs(c.drift_v) for c in all_coeffs))
        assert sum(c.drift_const for c in all_coeffs) == pytest.approx(0.0, abs=1e-12)
        assert sum(c.drift_v for c in all_coeffs) == pytest.approx(0.0, abs=1e-12 * scale)
        assert sum(c.diffusion for c in all_coeffs) == pytest.approx(0.0, abs=1e-12)


class TestCurves:
    def test_term_structure_columns(self, agg2, sols):
        sol, sol_rep = sols
        grid = np.array([0.0, 0.5, 1.0])
        ts = term_structure(agg2, 0.0, grid)
        assert ts.incomplete[0] == 1.0
        assert ts.complete[0] == 1.0
        assert ts.incomplete[2] == pytest.approx(BOND_1, abs=1e-10)
        assert ts.complete[2] == pytest.approx(BOND_REP_1, abs=1e-10)
        assert np.array_equal(ts.incomplete, bond_price(sol, 0.0, grid, 1.0))
        assert np.array_equal(ts.complete, bond_price(sol_rep, 0.0, grid, 1.0))

    def test_mpr_curve_gap_shrinks_to_zero(self, agg2):
        times = np.linspace(0.0, 1.0, 5)
        curve = mpr_curve(agg2, 1.0, times)
        assert curve.gap[0] == pytest.approx(MPR_WINDOW_0 - MPR_WINDOW_REP_0, abs=1e-12)
        assert curve.gap[-1] == 0.0
        assert np.all(np.diff(curve.gap) < 0.0)
