"""Terminal, time-integrated and pathwise functionals from one walk over steps.

Every streaming estimator and pathwise check walks each chunk once and keeps
(paths,) running sums: the shared integrals of ``v dt``, ``sqrt(v) dW`` and
the spot rate, plus each consumer's own.  These tests hold every walked
consumer to its explicit full-path form on the same chunk, check that no
check builds full paths, and hold the terminal check's walked deflator and
income to its full paths.  Per-investor paths are affine maps of the walk's
sums, so they meet the Euler reference of ``PathBundle`` up to the
reassociation of sums.  The identities the clearing and first-order-condition
checks rest on are held directly: the consumption rows sum to zero, the
residual is the telescoped discount, and the raw route of the reference
equals the insured one for any ``dZ``.  The belief densities at the horizon
are drawn conditionally on the variance path, one normal per investor and
path; they are held to that form exactly and to the full-path sum in law.
"""

from __future__ import annotations

import dataclasses
import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import draw_valid_economy, heterogeneous_economy
from ivoleq import dynamics, terminal
from ivoleq.config import load_config
from ivoleq.dynamics import (
    SimConfig,
    foc_order,
    martingale_checks,
    mc_annuity,
    mc_bond_price,
    mc_risk_premium,
    solve_multipliers,
    verify_budget_martingale,
    verify_clearing,
    verify_foc,
    verify_forward_measure,
)
from ivoleq.equilibrium import (
    annuity_price,
    bond_price,
    discrete_mpr,
    optimal_consumption_coeffs,
    quad_nodes,
)
from ivoleq.model import validate
from ivoleq.riccati import market_coeffs, solve_closed_form

RTOL, ATOL = 1e-12, 1e-14
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _walked(plan):
    """Each chunk of a plan's stream: its consumer's rows, the chunk and its full paths."""
    for chunk in dynamics._iter_chunks(plan.ctx):
        rows = dynamics._walk_rows(chunk, [plan.rows])
        yield rows, chunk, dynamics._bundle(chunk)


def _close(got, want):
    np.testing.assert_allclose(got, want, rtol=RTOL, atol=ATOL)


def _trap_w(n_steps: int, dt: float) -> np.ndarray:
    """Trapezoid weights over n_steps steps of length dt."""
    w = np.full(n_steps + 1, dt)
    w[0] = w[-1] = 0.5 * dt
    return w


def _trapezoid(disc, dt):
    return 0.5 * (disc[:, :-1] + disc[:, 1:]).sum(axis=1) * dt


def _security_values(bundle, sol, security: str, U: float):
    """Time-U value of the bond or of the dividend-reinvested annuity, from full paths."""
    T = bundle.econ.horizon
    v_U = bundle.v[:, -1]
    if security == "bond":
        return np.exp(sol.eval_b(T - U) * v_U - sol.eval_a(T - U))
    disc = np.exp(-bundle.int_rate())
    accrued = _trapezoid(disc, bundle.dt) / disc[:, -1]
    nodes, weights = quad_nodes(U, T)
    node_prices = np.exp(np.outer(v_U, sol.eval_b(nodes - U)) - sol.eval_a(nodes - U))
    return node_prices @ weights + accrued


def _x0(sol, econ, security: str) -> float:
    v0 = econ.vol.v0
    if security == "bond":
        return bond_price(sol, 0.0, econ.horizon, v0)
    return annuity_price(sol, 0.0, v0, econ.horizon)


draws = dict(
    seed=st.integers(0, 2**31),
    antithetic=st.booleans(),
    chunk_size=st.integers(1, 15).map(lambda k: 2 * k + 1),  # odd: paired chunks round down
)


def _case(seed: int, antithetic: bool, chunk_size: int, **over):
    econ = draw_valid_economy(np.random.default_rng(seed), with_wealth=True)
    base = dict(
        n_paths=40, steps_per_year=24, seed=seed, antithetic=antithetic, chunk_size=chunk_size
    )
    base.update(over)
    agg = dynamics._SimContext(econ, SimConfig(n_paths=2), econ.horizon).agg
    return econ, SimConfig(**base), agg, solve_closed_form(market_coeffs(agg), econ.horizon)


class TestRowsMatchFullPaths:
    @given(**draws)
    @settings(max_examples=20, deadline=None)
    def test_density_rows(self, seed, antithetic, chunk_size):
        econ, sim, _, _ = _case(seed, antithetic, chunk_size)
        ratios = _ratios(econ)
        for (got,), chunk, bundle in _walked(dynamics._martingale_plan(econ, sim)):
            _close(got[0], np.exp(bundle.log_density_min()[:, -1]))
            # belief rows: exp(-r sqrt(int v dt) G - r**2 int v dt / 2), int v dt as int_v
            int_v = bundle.int_v()[:, -1]
            g = chunk._belief_normals()
            _close(got[1:], np.exp(-ratios * np.sqrt(int_v) * g - 0.5 * ratios**2 * int_v))

    @given(**draws)
    @settings(max_examples=20, deadline=None)
    def test_deflated_consumption_rows(self, seed, antithetic, chunk_size):
        econ, sim, agg, _ = _case(seed, antithetic, chunk_size)
        for (got,), _, bundle in _walked(dynamics._multipliers_plan(econ, sim)):
            annuity, timed, v_sum, w_sum = got
            xi, trap_w = bundle.xi_min(), _trap_w(bundle.n_steps, bundle.dt)
            _close(annuity, xi @ trap_w)
            for i, inv in enumerate(econ.investors):
                k = optimal_consumption_coeffs(agg, inv)
                got_i = k.drift_const * timed + k.drift_v * v_sum + k.diffusion * w_sum
                _close(got_i, (xi * bundle.consumption_cum(i)) @ trap_w)

    @given(benchmark=st.booleans(), scheme=st.sampled_from(["euler", "exact"]), **draws)
    @settings(max_examples=20, deadline=None)
    def test_bond_and_annuity_rows(self, benchmark, scheme, seed, antithetic, chunk_size):
        econ, sim, _, _ = _case(seed, antithetic, chunk_size, scheme=scheme)
        U = 0.5 * econ.horizon
        for (got,), _, bundle in _walked(dynamics._bond_plan(econ, U, sim, benchmark)):
            _close(got, np.exp(-bundle.int_rate(benchmark)[:, -1]))
        for (got,), _, bundle in _walked(dynamics._annuity_plan(econ, sim, benchmark)):
            _close(got, _trapezoid(np.exp(-bundle.int_rate(benchmark)), bundle.dt))

    @given(seed=st.integers(0, 2**31), c0=st.sampled_from([None, 0.3]))
    @settings(max_examples=10, deadline=None)
    def test_budget_checkpoints(self, seed, c0):
        # unsorted and repeated checkpoints, both ends of the horizon
        econ, sim = heterogeneous_economy(), SimConfig(n_paths=16, steps_per_year=24, seed=seed,
                                                       antithetic=False)
        checkpoints, inner = (0.5, 0.0, 1.0, 0.5), 4
        rep = verify_budget_martingale(econ, sim, investor=1, checkpoints=checkpoints,
                                       inner_paths=inner, c0=c0)
        if c0 is None:
            c0 = float(solve_multipliers(econ, dataclasses.replace(sim, n_paths=4096)).c0[1])
        bundle = dynamics.simulate(econ, sim)
        xi, c = bundle.xi_min(), c0 + bundle.consumption_cum(1)
        cons = dynamics._affine_coeffs(bundle.agg, econ.investors)[0, 1]
        seeds = np.random.SeedSequence(seed + 7_777_777).spawn(1 + len(checkpoints))
        for idx, t in enumerate((0.0,) + checkpoints):
            k = round(t / bundle.dt)
            a_hat, c_hat = dynamics._nested_budget_tail(
                econ, sim, bundle.v[:, k], econ.horizon - bundle.times[k], inner, seeds[idx], cons)
            wealth = c[:, k] * a_hat + c_hat
            spend = (xi[:, : k + 1] * c[:, : k + 1]) @ _trap_w(k, bundle.dt) if k else 0.0
            stat = xi[:, k] * wealth + spend
            _close(rep.values[idx], stat.mean())
            _close(rep.standard_errors[idx], stat.std(ddof=1) / math.sqrt(stat.size))
            if idx == 0:
                _close(rep.wealth_at_zero, wealth.mean())

    @given(scheme=st.sampled_from(["euler", "exact"]), **draws)
    @settings(max_examples=10, deadline=None)
    def test_state_rows(self, scheme, seed, antithetic, chunk_size):
        econ, sim, _, _ = _case(seed, antithetic, chunk_size, scheme=scheme)
        plans = []
        with mock.patch.object(dynamics, "_run", lambda *p: plans.extend(p) or [None]):
            dynamics.mc_state_mean(econ, sim)
        for (got,), chunk, bundle in _walked(plans[0]):
            assert np.array_equal(got, bundle.v[:, -1])
            # the running integrals equal the full-path columns bit for bit
            full = [bundle.v, bundle.int_v(), bundle.int_rate()]
            names = ["v", "int_v", "int_r"]
            if scheme == "euler":
                full.append(bundle.int_sqrt_v_dW())
                names.append("int_sqrt_v_dW")
            for k, _ in enumerate(chunk.walk()):
                for name, cols in zip(names, full):
                    assert np.array_equal(getattr(chunk, name), cols[:, k]), (name, k)

    @given(security=st.sampled_from(["bond", "annuity"]), **draws)
    @settings(max_examples=20, deadline=None)
    def test_forward_rows(self, security, seed, antithetic, chunk_size):
        econ, sim, _, sol = _case(seed, antithetic, chunk_size)
        U = 0.5 * econ.horizon
        x0, b_0U = _x0(sol, econ, security), bond_price(sol, 0.0, U, econ.vol.v0)
        target = (1.0 - b_0U) / b_0U
        for (got,), _, bundle in _walked(dynamics._forward_plan(econ, U, sim, security)):
            _close(got, (_security_values(bundle, sol, security, U) - x0) / x0 - target)

    @given(security=st.sampled_from(["bond", "annuity"]), **draws)
    @settings(max_examples=20, deadline=None)
    def test_premium_rows(self, security, seed, antithetic, chunk_size):
        econ, sim, agg, sol = _case(seed, antithetic, chunk_size)
        U = 0.5 * econ.horizon
        x0, b_0U = _x0(sol, econ, security), bond_price(sol, 0.0, U, econ.vol.v0)
        for (got,), _, bundle in _walked(dynamics._premium_plan(econ, U, security, sim)):
            coeff = discrete_mpr(sol, agg, bundle.times[:-1], U)
            vp = bundle.v[:, :-1]
            log_m = -np.cumsum(coeff * np.sqrt(vp) * bundle.dW, axis=1)[:, -1] - 0.5 * np.cumsum(
                coeff**2 * vp * bundle.dt, axis=1
            )[:, -1]
            m, x_U = np.exp(log_m), _security_values(bundle, sol, security, U)
            _close(got[0], (x_U - x0) / x0 - (1.0 - b_0U) / b_0U)
            _close(got[1], m * x_U / x0 - 1.0 / b_0U)
            _close(got[2:], np.stack([m, x_U, m * x_U]))

    @given(**draws)
    @settings(max_examples=20, deadline=None)
    def test_terminal_rows(self, seed, antithetic, chunk_size):
        econ, sim, agg, sol = _case(seed, antithetic, chunk_size)
        for chunk in dynamics._iter_chunks(dynamics._SimContext(econ, sim, econ.horizon)):
            bundle = dynamics._bundle(chunk)
            coeff = terminal.terminal_mpr(sol, agg, bundle.times[:-1], econ.horizon)
            income, log_xi, basis_end = terminal._terminal_paths(econ, agg, sol, chunk)
            root = np.sqrt(bundle.v[:, :-1])
            want = -np.cumsum(coeff * root * bundle.dW, axis=1)[:, -1] - 0.5 * np.cumsum(
                coeff**2 * bundle.v[:, :-1] * bundle.dt, axis=1
            )[:, -1]
            _close(log_xi, want)
            for i in range(econ.n_investors):
                _close(income[i] @ basis_end, bundle.insured_income(i)[:, -1])


def _full_clearing(bundle) -> np.ndarray:
    """Per path, the largest |summed cumulative consumption| of the full paths."""
    total = bundle.consumption_cum(0)
    for i in range(1, bundle.econ.n_investors):
        total += bundle.consumption_cum(i)
    return np.abs(total).max(axis=1)


def _full_foc(bundle, i: int, c0: float, raw: bool = True):
    """Investor i's insured residual paths, and raw ones with ``raw``, from full paths."""
    inv = bundle.econ.investors[i]
    c_path = c0 + bundle.consumption_cum(i)
    log_alpha = -(c0 + inv.Y0) / inv.tau - math.log(inv.tau)
    log_xi = -bundle.int_rate() + bundle.log_density_min()

    def residual(income, log_belief=0.0):
        return -math.log(inv.tau) - (c_path + income) / inv.tau - (log_alpha + log_belief + log_xi)

    r_ins = residual(bundle.insured_income(i))
    if not raw:
        return r_ins
    return r_ins, residual(bundle.income_paths(i)[0], bundle.log_belief_density(i))


pathwise = dict(
    n_investors=st.sampled_from([1, 4]),
    last=st.booleans(),
    zero_beta=st.booleans(),
    c0=st.sampled_from([0.0, 0.3]),  # of the reference only: the walked check has none
    **draws,
)


def _pathwise_case(seed, antithetic, chunk_size, n_investors, zero_beta):
    """A valid economy of ``n_investors`` and 40 paths, more than one chunk holds."""
    rng = np.random.default_rng(seed)
    while True:
        econ = draw_valid_economy(rng, with_wealth=True)
        if zero_beta:
            econ = dataclasses.replace(econ, investors=tuple(
                dataclasses.replace(inv, beta_Y=0.0) for inv in econ.investors))
        if econ.n_investors == n_investors and validate(econ).passed:
            break
    sim = SimConfig(
        n_paths=40, steps_per_year=24, seed=seed, antithetic=antithetic, chunk_size=chunk_size
    )
    return econ, sim


# The walked clearing and first-order-condition rows evaluate a summed
# coefficient row on the walk's sums, while the Euler reference of
# ``PathBundle`` adds each investor's increments a step at a time.  The two
# differ by the reassociation of sums of O(1) terms over the 24 steps of these
# cases; ROUNDOFF bounds the absolute difference (the largest seen on 240
# drawn cases was 1.5e-15).
ROUNDOFF = 1e-13


def _roundoff_close(got, want):
    np.testing.assert_allclose(got, want, rtol=0.0, atol=ROUNDOFF)


class TestPathwiseReports:
    """The walked clearing and first-order-condition checks against the
    Euler reference of full paths, within ROUNDOFF; the reference's initial
    consumption level, its raw route and its ``dZ`` leave the residual as is."""

    @given(**pathwise)
    @settings(max_examples=20, deadline=None)
    def test_rows_equal_full_paths(self, seed, antithetic, chunk_size, n_investors, last,
                                   zero_beta, c0):
        econ, sim = _pathwise_case(seed, antithetic, chunk_size, n_investors, zero_beta)
        i = n_investors - 1 if last else 0
        for (got,), _, bundle in _walked(dynamics._clearing_plan(econ, sim)):
            _roundoff_close(got, _full_clearing(bundle))
        g = dynamics._foc_coeffs(dynamics.require_valid(econ), econ.investors[i])
        for (got,), chunk, bundle in _walked(dynamics._foc_plan(econ, sim, i)):
            r_ins = _full_foc(bundle, i, c0, raw=False)
            _roundoff_close(got, np.abs(r_ins).max(axis=1))
            # foc_order's row: the same coefficients at the horizon
            (end,) = dynamics._walk_rows(chunk, [lambda ch: dynamics._then(
                ch, lambda ch: dynamics._affine_residual(ch, g, 1.0))])
            _roundoff_close(end, np.abs(r_ins[:, -1]))

    @given(**pathwise)
    @settings(max_examples=20, deadline=None)
    def test_reports_are_the_largest_over_chunks(self, seed, antithetic, chunk_size,
                                                 n_investors, last, zero_beta, c0):
        econ, sim = _pathwise_case(seed, antithetic, chunk_size, n_investors, zero_beta)
        ctx = dynamics._SimContext(econ, sim, econ.horizon)
        bundles = [dynamics._bundle(chunk) for chunk in dynamics._iter_chunks(ctx)]
        assert len(bundles) > 1
        rep = verify_clearing(econ, sim)
        _roundoff_close(rep.max_residual, max(_full_clearing(b).max() for b in bundles))
        assert (rep.n_paths, rep.n_steps) == (40, 24)
        i = n_investors - 1 if last else 0
        foc = verify_foc(econ, sim, investor=-1 if last else 0)
        _roundoff_close(foc.max_insured, max(np.abs(_full_foc(b, i, c0, raw=False)).max()
                                             for b in bundles))
        assert (foc.investor, foc.n_paths, foc.dt) == (i, 40, ctx.dt)

    @given(scale=st.sampled_from([0.0, 1.0, 50.0]), **pathwise)
    @settings(max_examples=20, deadline=None)
    def test_raw_route_equals_insured_route(self, scale, seed, antithetic, chunk_size,
                                            n_investors, last, zero_beta, c0):
        # raw income adds beta**2 / (2 tau) int v dt + beta int sqrt(v) dZ and the
        # belief density takes the same terms back, so the routes agree for any dZ
        econ, sim = _pathwise_case(seed, antithetic, chunk_size, n_investors, zero_beta)
        i = n_investors - 1 if last else 0
        bundle = dynamics.simulate(econ, sim)
        if scale != 1.0:
            rng = np.random.default_rng(seed)
            bundle._dZ = scale * rng.standard_normal(bundle.dZ.shape)
        r_ins, r_raw = _full_foc(bundle, i, c0)
        # the cancelled dZ terms, and so their roundoff, grow with the scale
        np.testing.assert_allclose(r_raw, r_ins, rtol=0.0, atol=ROUNDOFF * (1.0 + scale))

    @given(**draws)
    @settings(max_examples=20, deadline=None)
    def test_residual_is_the_telescoped_discount(self, seed, antithetic, chunk_size):
        # at t_k the residual is (dt / 2) (r(v_k) - r(v_0)) for every investor:
        # the trapezoid discount less the left-point drift of log marginal
        # utility; so foc_max_residual <= dt wherever |rate_slope| |v_k - v_0| <= 2
        econ, sim, agg, _ = _case(seed, antithetic, chunk_size)
        for i in range(econ.n_investors):
            for (got,), _, bundle in _walked(dynamics._foc_plan(econ, sim, i)):
                telescoped = 0.5 * agg.rate_slope * (bundle.v - bundle.v[:, :1]) * bundle.dt
                _roundoff_close(_full_foc(bundle, i, 0.0, raw=False), telescoped)
                _roundoff_close(got, np.abs(telescoped).max(axis=1))

    @given(**draws)
    @settings(max_examples=10, deadline=None)
    def test_order_levels_equal_full_paths(self, seed, antithetic, chunk_size):
        econ, sim, _, _ = _case(seed, antithetic, chunk_size, steps_per_year=6)
        rep = foc_order(econ, sim, investor=-1, doublings=2)
        i = econ.n_investors - 1
        ctxs = [dynamics._SimContext(econ, dataclasses.replace(sim, steps_per_year=6 * 2**k),
                                     econ.horizon) for k in range(3)]
        sums, n = np.zeros(3), 0
        for chunk in dynamics._iter_chunks(ctxs[-1]):
            for level, ctx in enumerate(ctxs):
                factor = 2 ** (2 - level)
                lv = chunk if factor == 1 else dynamics._coarse(ctx, chunk.dW, factor)
                r_ins = _full_foc(dynamics._bundle(lv), i, 0.0, raw=False)
                sums[level] += float(np.abs(r_ins[:, -1]).sum())
            n += chunk.m
        _roundoff_close(rep.residuals, sums / n)
        assert rep.steps_per_year == (6, 12, 24)


@pytest.mark.parametrize("config", sorted(CONFIGS.glob("*.json")), ids=lambda p: p.stem)
def test_consumption_coefficients_sum_to_zero_on_configs(config):
    econ = load_config(config)
    coeffs = dynamics._affine_coeffs(dynamics.require_valid(econ), econ.investors)[0]
    np.testing.assert_allclose(coeffs.sum(axis=0), 0.0, rtol=0.0, atol=1e-15)


@given(seed=st.integers(0, 2**31))
@settings(max_examples=50, deadline=None)
def test_consumption_coefficients_sum_to_zero_on_drawn_economies(seed):
    econ = draw_valid_economy(np.random.default_rng(seed), with_wealth=True)
    coeffs = dynamics._affine_coeffs(dynamics.require_valid(econ), econ.investors)[0]
    np.testing.assert_allclose(coeffs.sum(axis=0), 0.0, rtol=0.0, atol=1e-15)

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
        fixed = dynamics._bundle(next(dynamics._iter_chunks(ctx)))
        rows = dynamics._martingale_plan(econ, sim).rows
        ratios = _ratios(econ)
        int_v = fixed.int_v()[:, -1]
        discrete, conditional = [], []
        for z_seed, g_seed in (np.random.SeedSequence(k).spawn(2) for k in range(self.N_DRAWS)):
            # the same v and dW, fresh idiosyncratic streams
            b = dynamics.PathBundle(ctx, fixed.v, fixed.dW, z_seed, False)
            chunk = dynamics._Chunk(ctx, fixed.n_paths, fixed.dW, (None, None, g_seed))
            log_full = np.stack([b.log_belief_density(i)[:, -1] for i in range(econ.n_investors)])
            log_rows = np.log(dynamics._walk_rows(chunk, [rows])[0][1:])
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
            ("log_belief_density", "log_density_min", "int_v", "int_sqrt_v_dW", "dZ"),
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


_WALKED = [
    lambda econ: martingale_checks(econ, _SIM),
    lambda econ: solve_multipliers(econ, _SIM),
    lambda econ: mc_bond_price(econ, 1.0, _SIM),
    lambda econ: mc_annuity(econ, _SIM),
    lambda econ: verify_forward_measure(econ, 0.5, _SIM, "annuity"),
    lambda econ: mc_risk_premium(econ, 0.5, "annuity", _SIM),
    lambda econ: terminal.verify_terminal_clearing(econ, _SIM),
    lambda econ: verify_clearing(econ, _SIM),
    lambda econ: verify_foc(econ, _SIM, investor=1),
    lambda econ: foc_order(econ, _SIM, doublings=2),
    lambda econ: verify_budget_martingale(econ, _SIM, inner_paths=8),
]


@pytest.mark.parametrize(
    "check",
    _WALKED,
    ids=["martingale_checks", "solve_multipliers", "mc_bond_price", "mc_annuity",
         "verify_forward_measure", "mc_risk_premium", "verify_terminal_clearing",
         "verify_clearing", "verify_foc", "foc_order", "verify_budget_martingale"],
)
def test_walked_estimators_build_no_full_paths(monkeypatch, check):
    for name in ("int_rate", "xi_min", "log_density_min", "int_v", "int_sqrt_v_dW", "__init__"):
        monkeypatch.setattr(dynamics.PathBundle, name, _refuse(name))
    check(heterogeneous_economy())


@pytest.mark.parametrize(
    "check",
    [martingale_checks, solve_multipliers, terminal.solve_terminal_multipliers,
     lambda econ, sim: mc_risk_premium(econ, 0.5, "annuity", sim)],
    ids=["martingale_checks", "solve_multipliers", "solve_terminal_multipliers",
         "mc_risk_premium"],
)
def test_walked_functionals_of_increments_refuse_the_exact_scheme(check):
    sim = SimConfig(n_paths=16, steps_per_year=12, seed=5, scheme="exact")
    with pytest.raises(ValueError, match="exact scheme does not produce"):
        check(heterogeneous_economy(), sim)
