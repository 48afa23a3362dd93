"""Terminal and time-integrated functionals from shared per-path integrals.

The martingale, multiplier and terminal-clearing estimators read each
investor's density at the horizon, deflated consumption integral and
terminal insured income as combinations of per-path integrals all investors
share.  These tests hold them to the explicit full-path forms and check that
the estimators never build the full per-investor paths.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import draw_valid_economy, heterogeneous_economy
from ivoleq import dynamics, terminal
from ivoleq.dynamics import SimConfig, martingale_checks, solve_multipliers
from ivoleq.equilibrium import optimal_consumption_coeffs
from ivoleq.riccati import market_coeffs, solve_closed_form

RTOL, ATOL = 1e-12, 1e-14


def _bundles(econ, sim: SimConfig):
    """Every chunk of the physical-measure stream the estimators read."""
    return dynamics._iter_chunks(dynamics._SimContext(econ, sim, econ.horizon))


def _trap_w(bundle) -> np.ndarray:
    w = np.full(bundle.n_steps + 1, bundle.dt)
    w[0] = w[-1] = 0.5 * bundle.dt
    return w


draws = dict(
    seed=st.integers(0, 2**31),
    antithetic=st.booleans(),
    chunk_size=st.integers(1, 15).map(lambda k: 2 * k + 1),  # odd: paired chunks round down
)


def _case(seed: int, antithetic: bool, chunk_size: int):
    econ = draw_valid_economy(np.random.default_rng(seed), with_wealth=True)
    sim = SimConfig(
        n_paths=40, steps_per_year=24, seed=seed, antithetic=antithetic, chunk_size=chunk_size
    )
    return econ, sim


class TestRowsMatchFullPaths:
    @given(**draws)
    @settings(max_examples=20, deadline=None)
    def test_density_rows(self, seed, antithetic, chunk_size):
        econ, sim = _case(seed, antithetic, chunk_size)
        rows = dynamics._martingale_plan(econ, sim).consumers[0].rows
        for bundle in _bundles(econ, sim):
            got = rows(bundle)
            want = [np.exp(bundle.log_density_min()[:, -1])]
            want += [np.exp(bundle.log_belief_density(i)[:, -1]) for i in range(econ.n_investors)]
            np.testing.assert_allclose(got, np.stack(want), rtol=RTOL, atol=ATOL)

    @given(**draws)
    @settings(max_examples=20, deadline=None)
    def test_deflated_consumption_rows(self, seed, antithetic, chunk_size):
        econ, sim = _case(seed, antithetic, chunk_size)
        agg = dynamics._SimContext(econ, sim, econ.horizon).agg
        rows = dynamics._multipliers_plan(econ, sim).consumers[0].rows
        for bundle in _bundles(econ, sim):
            annuity, timed, v_sum, w_sum = rows(bundle)
            xi, trap_w = bundle.xi_min(), _trap_w(bundle)
            np.testing.assert_allclose(annuity, xi @ trap_w, rtol=RTOL, atol=ATOL)
            for i, inv in enumerate(econ.investors):
                k = optimal_consumption_coeffs(agg, inv)
                got = k.drift_const * timed + k.drift_v * v_sum + k.diffusion * w_sum
                want = (xi * bundle.consumption_cum(i)) @ trap_w
                np.testing.assert_allclose(got, want, rtol=RTOL, atol=ATOL)

    @given(**draws)
    @settings(max_examples=20, deadline=None)
    def test_terminal_rows(self, seed, antithetic, chunk_size):
        econ, sim = _case(seed, antithetic, chunk_size)
        agg = dynamics._SimContext(econ, sim, econ.horizon).agg
        sol = solve_closed_form(market_coeffs(agg), econ.horizon)
        for bundle in _bundles(econ, sim):
            coeff = terminal.terminal_mpr(sol, agg, bundle.times[:-1], econ.horizon)
            log_xi, income_end = terminal._terminal_paths(econ, agg, sol, bundle)
            root = np.sqrt(bundle.v[:, :-1])
            want = -np.cumsum(coeff * root * bundle.dW, axis=1)[:, -1] - 0.5 * np.cumsum(
                coeff**2 * bundle.v[:, :-1] * bundle.dt, axis=1
            )[:, -1]
            np.testing.assert_allclose(log_xi, want, rtol=RTOL, atol=ATOL)
            for i in range(econ.n_investors):
                want = bundle.insured_income(i)[:, -1]
                np.testing.assert_allclose(income_end[i], want, rtol=RTOL, atol=ATOL)


def _refuse(name: str):
    def refuse(self, *args):
        raise AssertionError(f"{name} built a full per-investor path")

    return refuse


_SIM = SimConfig(n_paths=64, steps_per_year=24, seed=5, antithetic=False)


@pytest.mark.parametrize(
    "check, refused",
    [
        (martingale_checks, ("log_belief_density", "log_density_min", "int_v", "int_sqrt_v_dW")),
        (solve_multipliers, ("consumption_cum",)),
        (terminal.verify_terminal_clearing, ("insured_income", "income_paths")),
    ],
    ids=["martingale_checks", "solve_multipliers", "verify_terminal_clearing"],
)
def test_estimators_build_no_investor_paths(monkeypatch, check, refused):
    for name in refused:
        monkeypatch.setattr(dynamics.PathBundle, name, _refuse(name))
    check(heterogeneous_economy(), _SIM)
