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

from .dynamics import (
    SimConfig, _affine_coeffs, _Chunk, _log_exp_martingale, _Max, _Moments, _Plan, _run,
    _SimContext, _then,
)
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

    The flow economy's window coefficient (:func:`discrete_mpr`) with the
    window end pinned at the final date, so the two agree exactly at
    ``t = 0``.  Vectorizes over ``t``.
    """
    return discrete_mpr(sol, agg, t, horizon)


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


class _MeansAndRange(_Moments):
    """Chunk-merged means of every row, and the running maximum of the last two."""

    def __init__(self) -> None:
        super().__init__()
        self.peak = _Max()

    def add(self, vals, paired: bool = False) -> None:
        super().add(vals, paired)
        self.peak.add(vals[-2:])


def _terminal_plan(
    econ: EconomyParams, agg: AggregateParams, sol: RiccatiSolution, sim: SimConfig
) -> _Plan:
    """Plan of the terminal checks: its result is the multipliers and the merged rows.

    One walk per chunk gives, per path, the log terminal deflator
    ``log xi_T``, the left-point exponential martingale loading the terminal
    price of risk on the traded shock, and the walk's basis at the horizon.
    Insured income carries no idiosyncratic term, so nothing here draws
    idiosyncratic increments: investor i's terminal insured income is its
    row ``y_i`` of ``dynamics._affine_coeffs`` times the basis,
    ``Y0 + mu_Y T + (kappa_Y - beta_Y**2 / (2 tau)) int v dt + sigma_Y int sqrt(v) dW``.
    The rows are ``xi``, ``xi log xi`` and the four rows of ``xi basis_T``,
    whose means give the multipliers, then
    ``f = tau_total log xi_T + (sum_i y_i) . basis_T`` and ``-f``, whose
    running maxima bound the clearing residual.
    """
    ctx = _SimContext(econ, sim, econ.horizon)
    coeff = terminal_mpr(sol, agg, ctx.times[:-1], econ.horizon)
    income = _affine_coeffs(agg, econ.investors)[1]
    loading = income.sum(axis=0)

    def rows(ch: _Chunk, log_xi):
        xi, basis = np.exp(log_xi), ch.basis()
        f = agg.tau_total * log_xi + loading @ basis
        return np.vstack([xi, xi * log_xi, xi * basis, f, -f])

    return _Plan(ctx, lambda ch: _then(ch, rows, _log_exp_martingale(ch, coeff)),
                 lambda acc: (_multipliers(econ, income, acc), acc), _MeansAndRange)


def _multipliers(econ: EconomyParams, income, acc: _MeansAndRange) -> TerminalMultipliers:
    """Multipliers from the terminal budgets, on :func:`_terminal_plan`'s merged
    rows: ``E[xi Y_i(T)] = y_i . E[xi basis_T]``."""
    xi_mean, xi_log = float(acc.mean[0]), float(acc.mean[1])
    x0 = np.array([inv.X0 for inv in econ.investors])
    taus = np.array([inv.tau for inv in econ.investors])
    intercept = (x0 + taus * xi_log + income @ acc.mean[2:6]) / xi_mean
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
    Carlo moments, merged over the chunks of the paths ``sim`` sets.
    """
    agg = require_valid(econ)
    if sim.measure != "P":
        raise ValueError("terminal multipliers are estimated on physical-measure paths")
    sol = solve_closed_form(market_coeffs(agg), econ.horizon)
    return _run(_terminal_plan(econ, agg, sol, sim))[0][0]


def verify_terminal_clearing(
    econ: EconomyParams, sim: SimConfig, loading_grid: int = 17
) -> TerminalClearingReport:
    """Check that terminal wealths sum to zero path by path.

    Each investor's terminal wealth is its solved multiplier's intercept
    less ``tau log xi_T`` and its terminal insured income, so the sum is
    ``sum_i intercept_i - tau_total log xi_T - (sum_i y_i) . basis_T``: no
    per-investor path is formed.  The worst pathwise deviation of the sum is
    reported.  Everything is assembled from one walk of each chunk of shared
    paths, so the cancellation fails only through the first-order bias of
    the left-point sums; the walk keeps only the running extremes of the
    path-dependent part of the sum.
    """
    agg = require_valid(econ)
    if sim.measure != "P":
        raise ValueError("terminal clearing is checked on physical-measure paths")
    if sim.scheme != "euler":
        raise ValueError("terminal clearing needs Brownian increments; use the euler scheme")
    sol = solve_closed_form(market_coeffs(agg), econ.horizon)
    plan = _terminal_plan(econ, agg, sol, sim)
    mult, acc = _run(plan)[0]
    # the residual A - f is monotone in f, so its largest size is at f's extremes
    total = mult.intercept.sum()
    f_max, f_min = acc.peak.value[0], -acc.peak.value[1]
    t_grid = np.linspace(0.0, econ.horizon, loading_grid)
    gap = max(abs(wealth_sum_loading(sol, agg, t, econ.horizon)) for t in t_grid)
    return TerminalClearingReport(
        max_residual=float(max(abs(total - f_min), abs(total - f_max))),
        mean_residual=float(total - acc.mean[-2]),
        loading_gap=gap,
        multipliers=mult,
        n_paths=sim.n_paths,
        dt=plan.ctx.dt,
    )
