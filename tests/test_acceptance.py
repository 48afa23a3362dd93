"""End-to-end acceptance run: ten criteria, one pass/fail line each.

Every criterion prints a single summary line whether it passes or fails,
then asserts.  Reference table values are frozen at the four-decimal
precision they are published with; Monte Carlo criteria use fixed seeds,
so every number below is reproducible bit for bit.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from conftest import draw_valid_economy, heterogeneous_economy, reference_economy
from ivoleq.dynamics import (
    SimConfig,
    mc_bond_price,
    verify_clearing,
    verify_foc,
    verify_forward_measure,
)
from ivoleq.equilibrium import (
    bond_price,
    discrete_mpr,
    mpr_instantaneous,
)
from ivoleq.model import (
    EconomyParams,
    GroupSpec,
    TwoGroupLimit,
    VolParams,
    derive_aggregates,
    limit_aggregates,
    replicate_investor,
    require_valid,
)
from ivoleq.riccati import market_coeffs, rep_agent_coeffs, solve_numerical, solve_pair
from ivoleq.terminal import terminal_mpr, verify_terminal_clearing

# (investor count, short-rate gap, window price-of-risk gap), four decimals
FINITE_INVESTOR_ROWS = (
    (2, 0.0400, 0.0094),
    (5, 0.0640, 0.0151),
    (10, 0.0720, 0.0169),
    (100, 0.0792, 0.0186),
    (1000, 0.0799, 0.0188),
    (None, 0.0800, 0.0188),
)

# two-group grid: rows by weight on group A, columns by the tolerance pair
TWO_GROUP_PAIRS = ((0.5, 0.5), (0.5, 1.0 / 3.0), (1.0 / 3.0, 0.5), (1.0 / 3.0, 1.0 / 3.0))
TWO_GROUP_ROWS = (
    (1.00, (0.0047, 0.0047, 0.0111, 0.0111)),
    (0.75, (0.0223, 0.0349, 0.0332, 0.0528)),
    (0.50, (0.0400, 0.0720, 0.0504, 0.0946)),
    (0.25, (0.0577, 0.1186, 0.0642, 0.1367)),
    (0.00, (0.0755, 0.1789, 0.0755, 0.1789)),
)

TABLE_TOL = 1e-4


def _report(cid: str, label: str, ok: bool, detail: str) -> None:
    print(f"[{cid}] {label}: {'PASS' if ok else 'FAIL'} ({detail})")


def _gaps(agg) -> tuple[float, float]:
    rate = (agg.rate_slope_rep - agg.rate_slope) * agg.vol.v0
    sol, sol_rep = solve_pair(agg)
    root_v = np.sqrt(agg.vol.v0)
    mpr = (
        discrete_mpr(sol, agg, 0.0, agg.horizon)
        - discrete_mpr(sol_rep, agg, 0.0, agg.horizon)
    ) * root_v
    return rate, float(mpr)


def test_c01_finite_investor_gap_table():
    t0 = time.perf_counter()
    econ = reference_economy(2)
    vol, horizon = econ.vol, econ.horizon
    template = econ.investors[0]
    group = GroupSpec(tau=template.tau, beta_Y=template.beta_Y, sigma_Y=template.sigma_Y)

    worst = 0.0
    for n, want_rate, want_mpr in FINITE_INVESTOR_ROWS:
        if n is None:
            agg = limit_aggregates(
                vol, horizon, TwoGroupLimit(w=1.0, group_a=group, group_b=group)
            )
        else:
            agg = derive_aggregates(
                EconomyParams(
                    vol=vol, horizon=horizon, investors=replicate_investor(template, n)
                )
            )
        rate, mpr = _gaps(agg)
        worst = max(worst, abs(rate - want_rate), abs(mpr - want_mpr))
    elapsed = time.perf_counter() - t0
    ok = worst <= TABLE_TOL and elapsed < 1.0
    _report("C01", "finite-investor gap table", ok, f"max err {worst:.2e}, {elapsed:.2f}s")
    assert worst <= TABLE_TOL
    assert elapsed < 1.0


def test_c02_two_group_gap_grid():
    t0 = time.perf_counter()
    econ = reference_economy(2)
    vol, horizon = econ.vol, econ.horizon
    sigma_Y = econ.investors[0].sigma_Y

    worst = 0.0
    for w, want_cells in TWO_GROUP_ROWS:
        for (tau_a, tau_b), want in zip(TWO_GROUP_PAIRS, want_cells):
            lim = TwoGroupLimit(
                w=w,
                group_a=GroupSpec(tau=tau_a, beta_Y=0.1, sigma_Y=sigma_Y),
                group_b=GroupSpec(tau=tau_b, beta_Y=0.4, sigma_Y=sigma_Y),
            )
            _, mpr = _gaps(limit_aggregates(vol, horizon, lim))
            worst = max(worst, abs(mpr - want))
    elapsed = time.perf_counter() - t0
    ok = worst <= TABLE_TOL and elapsed < 1.0
    _report("C02", "two-group gap grid (20 cells)", ok, f"max err {worst:.2e}, {elapsed:.2f}s")
    assert worst <= TABLE_TOL
    assert elapsed < 1.0


def test_c03_closed_form_vs_rk4():
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    grid = np.linspace(0.0, 1.0, 1001)
    worst = 0.0
    for _ in range(50):
        agg = require_valid(draw_valid_economy(rng, horizon=1.0))
        closed, closed_rep = solve_pair(agg)
        for coeffs, ref in (
            (market_coeffs(agg), closed),
            (rep_agent_coeffs(agg), closed_rep),
        ):
            num = solve_numerical(coeffs, 1.0, step=1e-4)
            worst = max(
                worst,
                float(np.abs(num.eval_b(grid) - ref.eval_b(grid)).max()),
                float(np.abs(num.eval_a(grid) - ref.eval_a(grid)).max()),
            )
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 10.0
    _report(
        "C03",
        "closed form vs fixed-step RK4, 50 draws",
        ok,
        f"sup err {worst:.2e}, {elapsed:.1f}s",
    )
    assert worst <= 1e-8
    assert elapsed < 10.0


def test_c04_bond_price_oracle():
    t0 = time.perf_counter()
    econ = reference_economy(2)
    agg = require_valid(econ)
    sol, _ = solve_pair(agg)
    # only the Euler leg is plain (no antithetics, no control): its state
    # bias at 252 steps must stay inside the Monte Carlo band, which variance
    # reduction would shrink past it; the exact leg carries the rate-integral
    # control, which is exactly unbiased under the transition law
    worst_z = 0.0
    for scheme in ("euler", "exact"):
        for U in (0.25, 0.5, 1.0):
            est = mc_bond_price(
                econ,
                U,
                SimConfig(
                    n_paths=100_000,
                    steps_per_year=252,
                    seed=0,
                    scheme=scheme,
                    antithetic=False,
                ),
            )
            z = est.z(bond_price(sol, 0.0, U, agg.vol.v0))
            worst_z = max(worst_z, abs(z))
    elapsed = time.perf_counter() - t0
    ok = worst_z <= 3.0 and elapsed < 60.0
    _report(
        "C04",
        "bond Monte Carlo vs closed form, both schemes",
        ok,
        f"max |z| {worst_z:.2f}, {elapsed:.1f}s",
    )
    assert worst_z <= 3.0
    assert elapsed < 60.0


def test_c05_clearing_on_random_economies():
    t0 = time.perf_counter()
    rng = np.random.default_rng(505)
    worst = 0.0
    for k in range(10):
        econ = draw_valid_economy(rng, with_wealth=True)
        rep = verify_clearing(
            econ,
            SimConfig(n_paths=1000, steps_per_year=252, seed=k, antithetic=False),
        )
        worst = max(worst, rep.max_residual)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10
    _report(
        "C05",
        "pathwise clearing, 10 random economies",
        ok,
        f"max residual {worst:.2e}, {elapsed:.1f}s",
    )
    assert worst <= 1e-10


def test_c06_foc_residual():
    t0 = time.perf_counter()
    econ = heterogeneous_economy()
    rep = verify_foc(econ, SimConfig(n_paths=2000, seed=6, antithetic=False), investor=1)
    bound = 1.0 * rep.dt
    elapsed = time.perf_counter() - t0
    ok = rep.max_insured <= bound
    _report(
        "C06",
        "pricing first-order condition",
        ok,
        f"residual {rep.max_insured:.2e} vs {bound:.2e}, {elapsed:.1f}s",
    )
    assert rep.max_insured <= bound


def test_c07_forward_measure_identity():
    t0 = time.perf_counter()
    econ = reference_economy(2)
    # U strictly inside the horizon so the repriced security keeps real
    # variance at the check date
    zs = {}
    for security in ("bond", "annuity"):
        est = verify_forward_measure(
            econ,
            0.5,
            SimConfig(n_paths=100_000, seed=0, antithetic=False),
            security=security,
        )
        zs[security] = est.z()
    worst_z = max(abs(z) for z in zs.values())
    elapsed = time.perf_counter() - t0
    ok = worst_z <= 3.0
    _report(
        "C07",
        "forward-measure repricing, bond and annuity",
        ok,
        f"|z| bond {abs(zs['bond']):.2f}, annuity {abs(zs['annuity']):.2f}, {elapsed:.1f}s",
    )
    assert worst_z <= 3.0


def test_c08_ordering_properties():
    t0 = time.perf_counter()
    rng = np.random.default_rng(808)
    grid = np.linspace(0.0, 1.0, 101)
    worst_slope = np.inf
    worst_gap = np.inf
    for _ in range(100):
        econ = draw_valid_economy(rng, horizon=1.0)
        agg = require_valid(econ)
        sol, sol_rep = solve_pair(agg)
        diff = sol.eval_b(grid) - sol_rep.eval_b(grid)
        worst_slope = min(worst_slope, float(diff.min()))
        if agg.vol.sigma_v < 0.0:
            gap = discrete_mpr(sol, agg, grid, 1.0) - discrete_mpr(sol_rep, agg, grid, 1.0)
            worst_gap = min(worst_gap, float(gap.min()))
    elapsed = time.perf_counter() - t0
    ok = worst_slope >= -1e-14 and worst_gap >= -1e-14
    _report(
        "C08",
        "benchmark ordering on 100 random economies",
        ok,
        f"min slope diff {worst_slope:.1e}, min gap {worst_gap:.1e}, {elapsed:.1f}s",
    )
    assert worst_slope >= -1e-14
    assert worst_gap >= -1e-14


def test_c09_mpr_invariant_to_unspanned_rescaling():
    t0 = time.perf_counter()
    rng = np.random.default_rng(909)
    v_grid = np.array([0.2, 1.0, 1.7])
    violations = 0
    for _ in range(100):
        econ = draw_valid_economy(rng)
        base = mpr_instantaneous(derive_aggregates(econ), v_grid)
        for factor in (0.5, 2.0):
            scaled = EconomyParams(
                vol=econ.vol,
                horizon=econ.horizon,
                investors=tuple(
                    inv.__class__(
                        tau=inv.tau,
                        mu_Y=inv.mu_Y,
                        kappa_Y=inv.kappa_Y,
                        sigma_Y=inv.sigma_Y,
                        beta_Y=factor * inv.beta_Y,
                        Y0=inv.Y0,
                        X0=inv.X0,
                    )
                    for inv in econ.investors
                ),
            )
            got = mpr_instantaneous(derive_aggregates(scaled), v_grid)
            if not np.array_equal(base, got):
                violations += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0
    _report(
        "C09",
        "instantaneous price of risk invariant to unspanned rescaling",
        ok,
        f"{violations} violations on 100 economies, {elapsed:.1f}s",
    )
    assert violations == 0


def test_c10_terminal_variant():
    t0 = time.perf_counter()
    econ = reference_economy(2)
    agg = require_valid(econ)
    sol, _ = solve_pair(agg)
    start_gap = abs(
        terminal_mpr(sol, agg, 0.0, econ.horizon) - discrete_mpr(sol, agg, 0.0, econ.horizon)
    )

    rng = np.random.default_rng(1010)
    for _ in range(10):
        d_econ = draw_valid_economy(rng)
        d_agg = require_valid(d_econ)
        d_sol, _ = solve_pair(d_agg)
        start_gap = max(
            start_gap,
            abs(
                terminal_mpr(d_sol, d_agg, 0.0, d_econ.horizon)
                - discrete_mpr(d_sol, d_agg, 0.0, d_econ.horizon)
            ),
        )

    rep = verify_terminal_clearing(
        econ, SimConfig(n_paths=1000, steps_per_year=252, seed=10, antithetic=False)
    )
    bound = 1.0 * rep.dt
    elapsed = time.perf_counter() - t0
    ok = start_gap == 0.0 and rep.max_residual <= bound
    _report(
        "C10",
        "terminal-wealth variant",
        ok,
        f"schedule gap {start_gap:.1e}, clearing {rep.max_residual:.2e} vs {bound:.2e}, "
        f"{elapsed:.1f}s",
    )
    assert start_gap == 0.0
    assert rep.max_residual <= bound
