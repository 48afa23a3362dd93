"""Terminal and time-integrated functionals from shared per-path integrals.

The martingale, multiplier and terminal-clearing estimators read the pricing
density at the horizon, each investor's deflated consumption integral and
terminal insured income as combinations of per-path integrals all investors
share.  These tests hold them to the explicit full-path forms and check that
the estimators never build the full per-investor paths.  The belief
densities at the horizon are drawn conditionally on the variance path, one
normal per investor and path; they are held to that form exactly and to the
full-path sum in law.
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
        ratios = _ratios(econ)
        for bundle in _bundles(econ, sim):
            got = rows(bundle)
            want = np.exp(bundle.log_density_min()[:, -1])
            np.testing.assert_allclose(got[0], want, rtol=RTOL, atol=ATOL)
            # belief rows: exp(-r sqrt(int v dt) G - r**2 int v dt / 2), int v dt as int_v
            int_v = bundle.int_v()[:, -1]
            g = bundle._belief_normals()
            want = np.exp(-ratios * np.sqrt(int_v) * g - 0.5 * ratios**2 * int_v)
            np.testing.assert_allclose(got[1:], want, rtol=RTOL, atol=ATOL)

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


def _ratios(econ) -> np.ndarray:
    """Belief loadings ``beta_Y / tau`` as a column, one row per investor."""
    return np.array([[inv.beta_Y / inv.tau] for inv in econ.investors])


class TestConditionalBeliefDraw:
    """Given the paths, ``sum_k sqrt(v_k) dZ_k`` is N(0, int v dt): the
    conditional draw of the martingale rows and the discrete sum of
    ``log_belief_density`` agree in law on one fixed variance path set."""

    N_DRAWS = 3000

    def _draws(self):
        econ = heterogeneous_economy()
        sim = SimConfig(n_paths=8, steps_per_year=24, seed=11, antithetic=False)
        ctx = dynamics._SimContext(econ, sim, econ.horizon)
        fixed = next(dynamics._iter_chunks(ctx))
        rows = dynamics._martingale_plan(econ, sim).consumers[0].rows
        ratios = _ratios(econ)
        int_v = fixed.int_v()[:, -1]
        discrete, conditional = [], []
        for z_seed, g_seed in (np.random.SeedSequence(k).spawn(2) for k in range(self.N_DRAWS)):
            # the same v and dW, fresh idiosyncratic streams
            b = dynamics.PathBundle(ctx, fixed.v, fixed.dW, z_seed, g_seed, False)
            log_full = np.stack([b.log_belief_density(i)[:, -1] for i in range(econ.n_investors)])
            log_rows = np.log(rows(b)[1:])
            # recover int sqrt(v) dZ_i from each log density
            discrete.append(-(log_full + 0.5 * ratios**2 * int_v) / ratios)
            conditional.append(-(log_rows + 0.5 * ratios**2 * int_v) / ratios)
        return fixed, int_v, np.stack(discrete), np.stack(conditional)

    def test_same_law_given_the_paths(self):
        fixed, int_v, discrete, conditional = self._draws()
        # the conditional variance of the discrete sum is dt * sum_k v+_k
        cond_var = fixed.dt * np.maximum(fixed.v[:, :-1], 0.0).sum(axis=1)
        np.testing.assert_allclose(int_v, cond_var, rtol=1e-12)
        n = self.N_DRAWS
        for x in (discrete, conditional):
            # per path and investor: mean 0 and variance cond_var, within 5 SE
            assert np.all(np.abs(x.mean(axis=0)) < 5 * np.sqrt(cond_var / n))
            assert np.all(np.abs(x.var(axis=0, ddof=1) / cond_var - 1) < 5 * np.sqrt(2 / (n - 1)))
            # pooled standardized draws are N(0, 1)
            u = x / np.sqrt(cond_var)
            assert abs(u.mean()) < 5 / np.sqrt(u.size)
            assert abs(u.var(ddof=1) - 1) < 5 * np.sqrt(2 / (u.size - 1))
            assert abs(np.mean(u**4) - 3) < 5 * np.sqrt(96 / u.size)
        # the two samples' per-path variances match each other
        ratio = discrete.var(axis=0, ddof=1) / conditional.var(axis=0, ddof=1)
        assert np.all(np.abs(ratio - 1) < 5 * np.sqrt(4 / (n - 1)))


def _refuse(name: str):
    def refuse(self, *args):
        raise AssertionError(f"{name} built a full per-investor path or block")

    return refuse


_SIM = SimConfig(n_paths=64, steps_per_year=24, seed=5, antithetic=False)


@pytest.mark.parametrize(
    "check, refused",
    [
        (
            martingale_checks,
            ("log_belief_density", "log_density_min", "int_v", "int_sqrt_v_dW", "_dz_block", "dZ"),
        ),
        (solve_multipliers, ("consumption_cum",)),
        (terminal.verify_terminal_clearing, ("insured_income", "income_paths")),
    ],
    ids=["martingale_checks", "solve_multipliers", "verify_terminal_clearing"],
)
def test_estimators_build_no_investor_paths(monkeypatch, check, refused):
    for name in refused:
        refuse = _refuse(name)
        if isinstance(vars(dynamics.PathBundle)[name], property):
            refuse = property(refuse)
        monkeypatch.setattr(dynamics.PathBundle, name, refuse)
    check(heterogeneous_economy(), _SIM)
