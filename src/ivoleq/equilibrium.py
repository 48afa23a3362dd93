"""Closed-form equilibrium quantities: rates, bonds, annuity, price of risk.

Everything here is a pure function of :class:`~ivoleq.model.AggregateParams`
and a solved exponent pair from :mod:`ivoleq.riccati`.  The "rep" variants
price the full-insurance benchmark economy that shares the market economy's
aggregates but pools idiosyncratic income risk; differences between the two
are the incompleteness gaps reported by the CLI tables.

Sign conventions.  The spot rate is affine in the variance state,
``r = rate_intercept + rate_slope * v``, and in the empirically relevant
calibration (negative vol-of-vol, procyclical income) ``rate_slope < 0``:
rates fall when variance rises, bond prices rise in ``v``, and the annuity's
return volatility is negative.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from ivoleq.model import AggregateParams, InvestorParams
from ivoleq.riccati import RiccatiSolution, solve_pair

__all__ = [
    "TermStructure",
    "MprCurve",
    "ConsumptionCoeffs",
    "spot_rate",
    "spot_rate_rep",
    "rate_gap",
    "bond_price",
    "annuity_price",
    "annuity_vol",
    "discrete_mpr",
    "mpr_instantaneous",
    "discrete_mpr_gap",
    "optimal_consumption_coeffs",
    "quad_nodes",
    "term_structure",
    "mpr_curve",
]

QUAD_NODES_PER_PANEL = 64


# ---------------------------------------------------------------------------
# spot rate


def spot_rate(agg: AggregateParams, v) -> float:
    """Market equilibrium short rate at variance level ``v``."""
    return agg.rate_intercept + agg.rate_slope * v


def spot_rate_rep(agg: AggregateParams, v) -> float:
    """Short rate of the full-insurance benchmark at variance ``v``."""
    return agg.rate_intercept + agg.rate_slope_rep * v


def rate_gap(agg: AggregateParams, v) -> float:
    """Benchmark rate minus market rate; half the dispersion statistic times v."""
    return 0.5 * agg.beta_dispersion * v


# ---------------------------------------------------------------------------
# bond and annuity prices


def bond_price(sol: RiccatiSolution, t: float, maturity: float, v_t) -> float:
    """Zero-coupon price at time ``t`` for the given maturity date.

    Exponential-affine in the variance state: ``exp(b(s) v - a(s))`` with
    ``s = maturity - t``.  Pass the market or benchmark solution to price the
    corresponding economy.
    """
    s = np.asarray(maturity, dtype=float) - t
    if t < 0.0 or (s.size and s.min() < 0.0):
        raise ValueError(f"need 0 <= t <= maturity, got t={t}, maturity={maturity}")
    return np.exp(sol.eval_b(s) * v_t - sol.eval_a(s))


@functools.lru_cache(maxsize=None)
def _legendre_rule(n: int) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per order."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def quad_nodes(
    lo: float, hi: float, nodes_per_panel: int = QUAD_NODES_PER_PANEL
) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Composite Gauss-Legendre nodes and weights on ``[lo, hi]``.

    The range is split into equal panels of at most one unit of time each
    (the integrands are smooth, so a fixed spectral rule per panel converges
    to machine precision long before the default node count).
    """
    if hi < lo:
        raise ValueError(f"empty quadrature range [{lo}, {hi}]")
    n_panels = max(1, math.ceil(hi - lo - 1e-12))
    x, w = _legendre_rule(nodes_per_panel)
    edges = np.linspace(lo, hi, n_panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


def annuity_price(
    sol: RiccatiSolution,
    t: float,
    v_t: float,
    horizon: float | None = None,
    nodes_per_panel: int = QUAD_NODES_PER_PANEL,
) -> float:
    """Price of the unit-dividend annuity: integral of bond prices over maturity."""
    end = sol.horizon if horizon is None else horizon
    if t > end:
        raise ValueError(f"valuation time {t} past horizon {end}")
    if t == end:
        return 0.0
    nodes, weights = quad_nodes(t, end, nodes_per_panel)
    vals = bond_price(sol, t, nodes, v_t)
    return float(weights @ vals)


def annuity_vol(
    sol: RiccatiSolution,
    agg: AggregateParams,
    t: float,
    v_t: float,
    horizon: float | None = None,
    nodes_per_panel: int = QUAD_NODES_PER_PANEL,
) -> float:
    """Diffusion coefficient of the annuity price.

    Equals ``sigma_v sqrt(v) * integral of B(t,U) b(U - t) dU``; with
    negative vol-of-vol and a positive slope exponent this is negative, the
    annuity losing value exactly when variance jumps up.  Tends to zero as
    ``t`` approaches the horizon.
    """
    end = sol.horizon if horizon is None else horizon
    if t > end:
        raise ValueError(f"valuation time {t} past horizon {end}")
    if t == end:
        return 0.0
    nodes, weights = quad_nodes(t, end, nodes_per_panel)
    s = nodes - t
    integrand = np.exp(sol.eval_b(s) * v_t - sol.eval_a(s)) * sol.eval_b(s)
    return agg.vol.sigma_v * math.sqrt(v_t) * float(weights @ integrand)


# ---------------------------------------------------------------------------
# market price of risk


def mpr_instantaneous(agg: AggregateParams, v) -> float:
    """Instantaneous price of traded risk, ``mpr_loading * sqrt(v)``.

    Independent of the unspanned loadings by construction; the same in the
    market and benchmark economies.
    """
    return agg.mpr_loading * np.sqrt(v)


def discrete_mpr(sol: RiccatiSolution, agg: AggregateParams, t, U: float):
    """Horizon-``[t, U]`` price-of-risk coefficient.

    Returns the deterministic coefficient ``mpr_loading - b(U - t) sigma_v``;
    the process value is the coefficient times ``sqrt(v_t)``.  At ``t = U``
    it collapses to the instantaneous loading.  Vectorizes over ``t``.
    """
    t_arr = np.asarray(t, dtype=float)
    if t_arr.size and (t_arr.min() < 0.0 or t_arr.max() > U):
        raise ValueError(f"need 0 <= t <= U={U}")
    out = agg.mpr_loading - sol.eval_b(U - t_arr) * agg.vol.sigma_v
    return float(out) if np.ndim(t) == 0 else out


def discrete_mpr_gap(agg: AggregateParams, U: float) -> float:
    """Market minus benchmark discrete price-of-risk coefficient at time 0.

    This is the headline incompleteness statistic of the CLI tables:
    ``-sigma_v * (b(U) - b_rep(U))``, nonnegative whenever vol-of-vol is
    negative because the market slope exponent dominates the benchmark one.
    """
    sol, sol_rep = solve_pair(agg, U)
    return -agg.vol.sigma_v * (sol.eval_b(U) - sol_rep.eval_b(U))


# ---------------------------------------------------------------------------
# optimal consumption


@dataclass(frozen=True)
class ConsumptionCoeffs:
    """Coefficients of one investor's optimal consumption increment.

    ``d(consumption) = (drift_const + drift_v * v) dt + diffusion * sqrt(v) dW``.
    Summed over all investors each coefficient vanishes, which is goods-market
    clearing in differential form.
    """

    drift_const: float
    drift_v: float
    diffusion: float

    def drift(self, v) -> float:
        return self.drift_const + self.drift_v * v


def optimal_consumption_coeffs(
    agg: AggregateParams, investor: InvestorParams
) -> ConsumptionCoeffs:
    """Consumption-increment coefficients for one investor of the economy."""
    tau = investor.tau
    mpr = agg.mpr_loading
    return ConsumptionCoeffs(
        drift_const=tau * agg.rate_intercept - investor.mu_Y,
        drift_v=(
            tau * agg.rate_slope
            + 0.5 * tau * mpr**2
            + 0.5 * investor.beta_Y**2 / tau
            - investor.kappa_Y
        ),
        diffusion=tau * mpr - investor.sigma_Y,
    )


# ---------------------------------------------------------------------------
# curves


@dataclass(frozen=True)
class TermStructure:
    """Bond prices for both economies on a maturity grid at one valuation date."""

    t: float
    v_t: float
    maturities: NDArray[np.float64]
    incomplete: NDArray[np.float64]
    complete: NDArray[np.float64]


def term_structure(
    agg: AggregateParams,
    t: float,
    maturities,
    v_t: float | None = None,
) -> TermStructure:
    """Price the maturity grid in the market and benchmark economies."""
    v = agg.vol.v0 if v_t is None else v_t
    grid = np.asarray(maturities, dtype=float)
    sol, sol_rep = solve_pair(agg, max(grid.max() - t, np.finfo(float).tiny))
    return TermStructure(
        t=t,
        v_t=v,
        maturities=grid,
        incomplete=bond_price(sol, t, grid, v),
        complete=bond_price(sol_rep, t, grid, v),
    )


@dataclass(frozen=True)
class MprCurve:
    """Discrete price-of-risk coefficients over time for a fixed horizon.

    ``discrete`` and ``discrete_rep`` are the deterministic coefficients;
    multiply by ``sqrt(v)`` for process values (``v`` records the level used
    by the emitters).  ``instantaneous`` is the constant loading both curves
    collapse to at ``t = U``.
    """

    U: float
    v: float
    times: NDArray[np.float64]
    instantaneous: float
    discrete: NDArray[np.float64]
    discrete_rep: NDArray[np.float64]

    @property
    def gap(self) -> NDArray[np.float64]:
        return self.discrete - self.discrete_rep


def mpr_curve(
    agg: AggregateParams,
    U: float,
    times,
    v: float | None = None,
) -> MprCurve:
    """Evaluate both discrete price-of-risk coefficient curves on a time grid."""
    grid = np.asarray(times, dtype=float)
    sol, sol_rep = solve_pair(agg, U)
    return MprCurve(
        U=U,
        v=agg.vol.v0 if v is None else v,
        times=grid,
        instantaneous=agg.mpr_loading,
        discrete=discrete_mpr(sol, agg, grid, U),
        discrete_rep=discrete_mpr(sol_rep, agg, grid, U),
    )
