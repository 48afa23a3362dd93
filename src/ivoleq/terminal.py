"""Terminal-wealth variant: deterministic price-of-risk schedule, zero rate.

When investors consume only at the final date the market clears with the
short rate pinned at zero and the price of traded risk following a
deterministic coefficient schedule: the instantaneous loading plus a
vol-of-vol correction through the same slope exponent ``b`` that prices
bonds in the flow-consumption economy.  This module builds that schedule,
checks it against the flow model's horizon coefficient, and verifies
clearing of terminal wealths by simulation.  The clearing check reads only
insured income at the horizon, so it never draws idiosyncratic increments.

The zero rate is a normalization, not a parameter; nothing here discounts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.typing import NDArray

from .dynamics import SimConfig, _affine_coeffs, _Chunk, _log_exp_martingale, _one_chunk, _walk_rows
from .equilibrium import QUAD_NODES_PER_PANEL, discrete_mpr, quad_nodes
from .model import AggregateParams, EconomyParams, require_valid
from .riccati import RiccatiSolution, market_coeffs, solve_closed_form


@dataclass(frozen=True)
class TerminalEquilibrium:
    """Equilibrium of the terminal-wealth economy.

    ``price_of_risk`` maps time to the deterministic coefficient of the
    traded-risk price (the process value is the coefficient times
    ``sqrt(v_t)``); it ends at the instantaneous loading because the slope
    exponent vanishes at zero remaining time.  The short rate is identically
    zero.  ``riccati`` is the flow economy's market solution, reused as is.
    """

    price_of_risk: Callable[[float], float]
    riccati: RiccatiSolution
    horizon: float


def terminal_mpr(sol: RiccatiSolution, agg: AggregateParams, t, horizon: float):
    """Price-of-risk coefficient of the terminal-wealth economy at time t.

    Same arithmetic as the flow economy's window coefficient with the window
    end pinned at the final date, so the two agree exactly at ``t = 0``.
    Vectorizes over ``t``.
    """
    t_arr = np.asarray(t, dtype=float)
    if t_arr.size and (t_arr.min() < 0.0 or t_arr.max() > horizon):
        raise ValueError(f"need 0 <= t <= horizon={horizon}")
    out = agg.mpr_loading - sol.eval_b(horizon - t_arr) * agg.vol.sigma_v
    return float(out) if np.ndim(t) == 0 else out


def terminal_equilibrium(
    agg: AggregateParams, horizon: float | None = None
) -> TerminalEquilibrium:
    """Solve the terminal-wealth economy for its price-of-risk schedule."""
    T = agg.horizon if horizon is None else horizon
    sol = solve_closed_form(market_coeffs(agg), T)
    return TerminalEquilibrium(
        price_of_risk=lambda t: terminal_mpr(sol, agg, t, T),
        riccati=sol,
        horizon=T,
    )


def wealth_sum_loading(
    sol: RiccatiSolution,
    agg: AggregateParams,
    t: float,
    horizon: float | None = None,
    nodes_per_panel: int = QUAD_NODES_PER_PANEL,
) -> float:
    """Brownian loading of expected aggregate terminal wealth at time t.

    Summing the terminal wealths leaves a conditional-expectation process
    whose Brownian coefficient combines the deflator's direct loading with
    the sensitivity of expected future variance.  The slope ODE makes the two
    cancel; the returned coefficient (per unit ``sqrt(v_t)``) measures the
    leftover and should vanish identically.

    The time integrand is assembled from the squared price-of-risk schedule,
    not from the ODE right-hand side, so this is a genuine cross-check of the
    cancellation rather than a restatement of it.
    """
    T = sol.horizon if horizon is None else horizon
    if not 0.0 <= t <= T:
        raise ValueError(f"need 0 <= t <= horizon={T}")
    kv = agg.vol.kappa_v
    direct = agg.tau_total * sol.eval_b(T - t)
    if t == T:
        return agg.vol.sigma_v * (0.0 - direct)
    u, w = quad_nodes(t, T, nodes_per_panel)
    m = terminal_mpr(sol, agg, u, T)
    integrand = (
        0.5 * agg.tau_total * m**2
        - agg.kappa_total
        + 0.5 * agg.beta_sq_over_tau
    ) * np.exp(kv * (u - t))
    return agg.vol.sigma_v * (float(w @ integrand) - direct)


@dataclass(frozen=True)
class TerminalMultipliers:
    """Marginal-utility multipliers implied by the terminal budget.

    ``intercept`` holds the wealth-intercept form of each multiplier (the
    tolerance times the negative log of the scaled multiplier), which is the
    quantity the budget constraint is affine in; ``alpha`` recovers the
    multiplier itself.  ``deflator_mean`` is the sample mean of the terminal
    deflator and should sit near one.
    """

    intercept: NDArray[np.float64]
    alpha: NDArray[np.float64]
    deflator_mean: float


@dataclass(frozen=True)
class TerminalClearingReport:
    """Pathwise clearing check of aggregate terminal wealth.

    ``max_residual`` is the worst absolute deviation of the wealth sum from
    zero across paths; the construction cancels the sum exactly in continuous
    time, so the residual is pure time-discretization error and shrinks
    linearly in the step size.  ``loading_gap`` is the worst Brownian-loading
    coefficient of expected aggregate wealth over a time grid, a quadrature
    identity independent of the simulation.
    """

    max_residual: float
    mean_residual: float
    loading_gap: float
    multipliers: TerminalMultipliers
    n_paths: int
    dt: float


def _terminal_paths(
    econ: EconomyParams, agg: AggregateParams, sol: RiccatiSolution, chunk: _Chunk
):
    """Log terminal deflator and each investor's terminal insured income, per path.

    One walk of the chunk gives both.  The deflator is the left-point
    exponential martingale loading the terminal price of risk on the traded
    shock.  Insured income carries no idiosyncratic term, so nothing here
    draws idiosyncratic increments: its terminal value is the insured-income
    row of ``dynamics._affine_coeffs`` times the basis the walk ends with,
    ``Y0 + mu_Y T + (kappa_Y - beta_Y**2 / (2 tau)) int v dt + sigma_Y int sqrt(v) dW``.
    """
    coeff = terminal_mpr(sol, agg, chunk.times[:-1], econ.horizon)
    (log_xi,) = _walk_rows(chunk, [lambda ch: _log_exp_martingale(ch, coeff)])
    return log_xi, _affine_coeffs(agg, econ.investors)[1] @ chunk.basis()


def _multipliers(econ: EconomyParams, log_xi, income_end) -> TerminalMultipliers:
    xi = np.exp(log_xi)
    xi_mean = float(xi.mean())
    xi_log = float((xi * log_xi).mean())
    intercept = np.empty(econ.n_investors)
    for i, inv in enumerate(econ.investors):
        intercept[i] = (
            inv.X0 + inv.tau * xi_log + float((xi * income_end[i]).mean())
        ) / xi_mean
    taus = np.array([inv.tau for inv in econ.investors])
    alpha = np.exp(-intercept / taus) / taus
    if not np.all(np.isfinite(alpha)):
        raise ArithmeticError("terminal multiplier estimate is not finite")
    return TerminalMultipliers(
        intercept=intercept, alpha=alpha, deflator_mean=xi_mean
    )


def solve_terminal_multipliers(econ: EconomyParams, sim: SimConfig) -> TerminalMultipliers:
    """Back the multipliers out of the terminal budget constraints.

    The budget pins the deflator-weighted expectation of terminal wealth to
    the initial endowment, and terminal wealth is affine in the multiplier's
    log, so each multiplier solves a one-line linear equation in three Monte
    Carlo moments, on one walk of the paths ``sim`` sets.
    """
    agg = require_valid(econ)
    if sim.measure != "P":
        raise ValueError("terminal multipliers are estimated on physical-measure paths")
    sol = solve_closed_form(market_coeffs(agg), econ.horizon)
    return _multipliers(econ, *_terminal_paths(econ, agg, sol, _one_chunk(econ, sim)))


def verify_terminal_clearing(
    econ: EconomyParams, sim: SimConfig, loading_grid: int = 17
) -> TerminalClearingReport:
    """Check that terminal wealths sum to zero path by path.

    Builds each investor's terminal wealth from the solved multiplier, the
    shared terminal deflator and its terminal insured income, then reports the worst
    pathwise deviation of the sum.  Everything is assembled from one walk of
    shared paths so the cancellation fails only through the first-order bias
    of the left-point sums.
    """
    agg = require_valid(econ)
    if sim.measure != "P":
        raise ValueError("terminal clearing is checked on physical-measure paths")
    if sim.scheme != "euler":
        raise ValueError("terminal clearing needs Brownian increments; use the euler scheme")
    sol = solve_closed_form(market_coeffs(agg), econ.horizon)
    chunk = _one_chunk(econ, sim)
    log_xi, income_end = _terminal_paths(econ, agg, sol, chunk)
    mult = _multipliers(econ, log_xi, income_end)
    total = np.zeros(chunk.m)
    for i, inv in enumerate(econ.investors):
        total += mult.intercept[i] - inv.tau * log_xi - income_end[i]
    t_grid = np.linspace(0.0, econ.horizon, loading_grid)
    gap = max(abs(wealth_sum_loading(sol, agg, t, econ.horizon)) for t in t_grid)
    return TerminalClearingReport(
        max_residual=float(np.max(np.abs(total))),
        mean_residual=float(total.mean()),
        loading_gap=gap,
        multipliers=mult,
        n_paths=chunk.m,
        dt=chunk.dt,
    )
