"""Monte Carlo engine and numerical verification of the closed forms.

Simulation runs under one of three measures: the physical measure ("P"),
the pricing measure that corrects only the traded shock ("Qmin"), or the
forward measure attached to a bond maturity ("QU").  They differ only in
the drift of the variance state; all derived paths are built from one
shared set of increments so that algebraic identities (goods clearing,
first-order conditions) cancel at floating-point precision rather than at
Monte Carlo precision.

Discretization conventions, chosen so each verification has a sharp
discrete analogue:

* dt-integrals inside exponential martingales use left-endpoint sums,
  which makes the discrete densities exact martingales (their sample
  means differ from 1 only by sampling error, never by bias);
* the discount integral of the spot rate uses the trapezoid rule;
* state and income paths advance by left-endpoint Euler steps.

Each convention has one implementation: ``_euler_step`` is the only
full-truncation Euler update (chunked simulation, the coupled coarse grids
and the nested budget simulation call it); ``_log_exp_martingale`` is the
left-point density with one coefficient per step on the traded shock, used
by the forward-measure premium and the terminal deflator of
:mod:`ivoleq.terminal`; ``_Moments`` is the one mean and standard-error
accumulator, taking antithetic pair means as the sample unit and merging
chunks by the pairwise update of Chan, Golub and LeVeque (1979).

The mismatch between the trapezoid discount and the left-endpoint
consumption drift telescopes into a first-order-condition residual of
exactly ``(dt / 2) * (r_t - r_0)`` per unit tolerance, which is what the
order-of-convergence check measures.

Paths are generated in fixed-size chunks, each from its own counter-based
stream spawned from the run seed, so estimates do not depend on how the
chunks are scheduled and any chunk can be regenerated in isolation.

Every random block is drawn once, and only when a functional reads it.  A
chunk's idiosyncratic increments come from one stream, drawn one investor
block at a time in investor order into one reused buffer, so per-investor
functionals hold one block rather than all investors'; the terminal-wealth
checks read only insured income and draw none.  Each estimator is a plan of
consumers fed by ``_run``, the one chunk loop; plans that read the same
stream share one loop, so the ``verify`` command generates each distinct
path set once.

Terminal and time-integrated per-investor functionals never build
per-investor paths.  Every per-investor path is affine in ``t``,
``int v dt`` and ``int sqrt(v) dW``, which all investors share; a belief
density adds the investor's own ``int sqrt(v) dZ_i``.  So the pricing
density at the horizon and terminal insured income are combinations of
per-path row reductions (``PathBundle._terminal_integrals``), and the budget
integral of consumption
``C_i(t_k) = sum_{j<k} (a_i dt + b_i v_j dt + d_i sqrt(v_j) dW_j)`` follows
by summation by parts: with ``R_k = sum_{k' >= k} w_k' xi_k'`` for
trapezoid weights ``w``,

    sum_k w_k xi_k C_i(t_k) = a_i sum_k w_k xi_k t_k
                              + b_i dt sum_j v_j R_{j+1}
                              + d_i sum_j sqrt(v_j) dW_j R_{j+1},

three per-path sums shared by every investor.

The martingale check samples the belief densities at the horizon
conditionally (Glasserman, Monte Carlo Methods in Financial Engineering,
section 4.5): the increments ``dZ_i`` are independent of ``v`` and ``dW``,
so given the paths the discrete ``sum_k sqrt(v_k) dZ_i,k`` is exactly
normal with variance ``int v dt``, independently across investors.  One
standard normal ``G_i`` per investor and path, scaled by
``sqrt(int v dt)``, therefore has the joint law of the full sum, and each
investor costs work in the number of paths only.  ``G`` comes from its own
stream, the third child of the chunk seed (``PathBundle._belief_normals``).
The ``dZ`` blocks serve only the full paths of ``income_paths`` and
``log_belief_density``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Any, Callable

import numpy as np
from numpy.typing import NDArray

from ivoleq.equilibrium import (
    annuity_price,
    bond_price,
    discrete_mpr,
    optimal_consumption_coeffs,
    quad_nodes,
)
from ivoleq.model import AggregateParams, EconomyParams, require_valid
from ivoleq.riccati import RiccatiSolution, market_coeffs, solve_closed_form

__all__ = [
    "SimConfig",
    "PathBundle",
    "McEstimate",
    "MultiplierSolution",
    "ClearingReport",
    "FocReport",
    "FocOrderReport",
    "WeakOrderReport",
    "BudgetReport",
    "simulate",
    "mc_state_mean",
    "cir_mean",
    "mc_bond_price",
    "mc_annuity",
    "verify_forward_measure",
    "mc_risk_premium",
    "verify_clearing",
    "solve_multipliers",
    "verify_foc",
    "foc_order",
    "martingale_checks",
    "weak_convergence_study",
    "verify_budget_martingale",
]

MEASURES = ("P", "Qmin", "QU")
SCHEMES = ("euler", "exact")


@dataclass(frozen=True)
class SimConfig:
    """Simulation settings.

    ``steps_per_year`` fixes the grid density; the actual step count is
    rounded from the simulated horizon.  ``measure`` picks the drift of the
    variance state; "QU" additionally needs ``horizon_U``.  The "exact"
    scheme replaces the Euler state update with sampling from the exact
    square-root transition law; it provides no Brownian increments, so only
    functionals of the state path are available under it, and the
    antithetic flag is ignored.
    """

    n_paths: int = 100_000
    steps_per_year: int = 252
    seed: int = 0
    measure: str = "P"
    horizon_U: float | None = None
    scheme: str = "euler"
    antithetic: bool = True
    chunk_size: int = 8192

    def __post_init__(self) -> None:
        if self.n_paths < 1 or self.steps_per_year < 1 or self.chunk_size < 2:
            raise ValueError("n_paths, steps_per_year >= 1 and chunk_size >= 2")
        if self.measure not in MEASURES:
            raise ValueError(f"measure must be one of {MEASURES}, got {self.measure!r}")
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        if self.measure == "QU" and self.horizon_U is None:
            raise ValueError("measure 'QU' needs horizon_U")

    def n_steps(self, horizon: float) -> int:
        return max(1, round(self.steps_per_year * horizon))


@dataclass(frozen=True)
class McEstimate:
    value: float
    standard_error: float
    n_paths: int
    measure: str

    def z(self, target: float = 0.0) -> float:
        """Standardized distance from ``target``; with zero SE, 0 at the target, else infinite."""
        if self.standard_error == 0.0:
            return 0.0 if self.value == target else math.inf
        return (self.value - target) / self.standard_error


# ---------------------------------------------------------------------------
# simulation core


class _SimContext:
    """Precomputed per-run constants shared by every chunk."""

    def __init__(self, econ: EconomyParams, sim: SimConfig, horizon: float):
        if horizon > econ.horizon + 1e-12:
            raise ValueError(
                f"simulation horizon {horizon} exceeds economy horizon {econ.horizon}"
            )
        self.econ = econ
        self.agg: AggregateParams = require_valid(econ)
        self.sim = sim
        self.horizon = float(horizon)
        self.n_steps = sim.n_steps(horizon)
        self.dt = self.horizon / self.n_steps
        self.times = np.linspace(0.0, self.horizon, self.n_steps + 1)

        vol = econ.vol
        kappa_eff = vol.kappa_v
        if sim.measure in ("Qmin", "QU"):
            kappa_eff = vol.kappa_v - self.agg.mpr_loading * vol.sigma_v
        if sim.measure == "QU":
            U = float(sim.horizon_U)
            if U > econ.horizon + 1e-12:
                raise ValueError(f"forward horizon {U} exceeds economy horizon")
            if sim.scheme == "exact":
                raise ValueError("exact scheme supports measures 'P' and 'Qmin' only")
            sol = solve_closed_form(market_coeffs(self.agg), max(U, self.dt))
            # drift coefficient varies along the grid through b(U - t)
            self.kappa_grid = kappa_eff + vol.sigma_v**2 * sol.eval_b(
                np.maximum(U - self.times[:-1], 0.0)
            )
        else:
            self.kappa_grid = np.full(self.n_steps, kappa_eff)
        self.kappa_eff = kappa_eff

        if sim.antithetic and sim.scheme == "euler" and sim.n_paths % 2:
            raise ValueError("antithetic sampling needs an even n_paths")

    def chunk_counts(self) -> list[int]:
        unit = self.sim.chunk_size
        if self.sim.antithetic and self.sim.scheme == "euler":
            unit -= unit % 2  # mirrored pairs never straddle two chunks
        full, rest = divmod(self.sim.n_paths, unit)
        return [unit] * full + ([rest] if rest else [])


class PathBundle:
    """Jointly simulated paths plus lazily derived processes.

    ``v`` has shape (paths, steps + 1); increment arrays have shape
    (paths, steps).  ``dW`` holds increments of the Brownian motion of the
    simulation measure and is ``None`` under the exact scheme.  The
    idiosyncratic increments ``dZ`` come from a dedicated stream, drawn one
    investor block at a time and in investor order, so the per-investor
    functionals hold one block instead of all investors' and a bundle no
    functional asks for them never draws them.  The ``dZ`` property draws
    the whole (investors, paths, steps) block from the same stream; its
    slices equal the streamed blocks bit for bit.  Only the full paths of
    ``income_paths`` and ``log_belief_density`` read ``dZ``.  The public
    methods build full paths; the estimators read terminal and integrated
    values through ``_terminal_integrals`` instead, and the martingale check
    reads each belief density at the horizon through one conditional normal
    per investor and path (``_belief_normals``, from a third stream).
    """

    def __init__(self, ctx: _SimContext, v, dW, z_seed, g_seed, antithetic_pairs: bool):
        self.econ = ctx.econ
        self.agg = ctx.agg
        self.measure = ctx.sim.measure
        self.scheme = ctx.sim.scheme
        self.times = ctx.times
        self.dt = ctx.dt
        self.v = v
        self.dW = dW
        self.antithetic_pairs = antithetic_pairs
        self._z_seed = z_seed
        self._g_seed = g_seed
        self._dZ: NDArray[np.float64] | None = None
        self._z_gen = None  # stream position: the generator after block _z_index
        self._z_index = -1
        self._z_block: NDArray[np.float64] | None = None

    @property
    def n_paths(self) -> int:
        return self.v.shape[0]

    @property
    def n_steps(self) -> int:
        return self.v.shape[1] - 1

    @staticmethod
    def _stream(seed) -> np.random.Generator:
        if seed is None:
            raise ValueError("bundle was built without idiosyncratic increments")
        return np.random.Generator(np.random.Philox(seed))

    def _belief_normals(self) -> NDArray[np.float64]:
        """One standard normal per investor and path, shape (investors, paths).

        Scaled by ``sqrt(int v dt)`` at the horizon, row i has the law of
        investor i's ``int sqrt(v) dZ_i`` given the paths (see the module
        docstring).  Every call draws the same values.
        """
        return self._stream(self._g_seed).standard_normal((self.econ.n_investors, self.n_paths))

    def _draw_dz(self, gen: np.random.Generator, out: NDArray[np.float64]) -> NDArray[np.float64]:
        gen.standard_normal(out=out)
        out *= math.sqrt(self.dt)
        return out

    @property
    def dZ(self) -> NDArray[np.float64]:
        if self._dZ is None:
            shape = (self.econ.n_investors, self.n_paths, self.n_steps)
            self._dZ = self._draw_dz(self._stream(self._z_seed), np.empty(shape))
        return self._dZ

    def _dz_block(self, i: int) -> NDArray[np.float64]:
        """Investor i's idiosyncratic increments, streamed from ``dZ``'s stream.

        Blocks are drawn forward in investor order into the one buffer the
        bundle keeps, so a returned block stays valid until another investor
        is requested; asking for an earlier investor replays the stream from
        the start.  A bundle whose full ``dZ`` is already set reads it instead.
        """
        if self._dZ is not None:
            return self._dZ[i]
        i = range(self.econ.n_investors)[i]
        if i < self._z_index or self._z_gen is None:
            self._z_gen, self._z_index = self._stream(self._z_seed), -1
        if self._z_block is None:
            self._z_block = np.empty((self.n_paths, self.n_steps))
        while self._z_index < i:
            self._draw_dz(self._z_gen, self._z_block)
            self._z_index += 1
        return self._z_block

    def _need_dw(self) -> NDArray[np.float64]:
        if self.dW is None:
            raise ValueError("this functional needs Brownian increments; "
                             "the exact scheme does not produce them")
        return self.dW

    # -- running integrals (cumulative, shape (paths, steps + 1)) -------

    def int_v(self) -> NDArray[np.float64]:
        """Left-endpoint cumulative integral of v dt."""
        out = np.zeros_like(self.v)
        np.cumsum(self.v[:, :-1] * self.dt, axis=1, out=out[:, 1:])
        return out

    def int_sqrt_v_dW(self) -> NDArray[np.float64]:
        dW = self._need_dw()
        out = np.zeros_like(self.v)
        np.cumsum(np.sqrt(self.v[:, :-1]) * dW, axis=1, out=out[:, 1:])
        return out

    def int_rate(self, benchmark: bool = False) -> NDArray[np.float64]:
        """Trapezoid cumulative integral of the affine spot rate."""
        slope = self.agg.rate_slope_rep if benchmark else self.agg.rate_slope
        r = self.agg.rate_intercept + slope * self.v
        out = np.zeros_like(self.v)
        np.cumsum(0.5 * (r[:, :-1] + r[:, 1:]) * self.dt, axis=1, out=out[:, 1:])
        return out

    def _terminal_integrals(self):
        """``int v dt`` and ``int sqrt(v) dW`` at the horizon, per path.

        The last columns of :meth:`int_v` and :meth:`int_sqrt_v_dW`, taken
        by row reductions.
        """
        vp = self.v[:, :-1]
        return vp.sum(axis=1) * self.dt, np.einsum("ij,ij->i", np.sqrt(vp), self._need_dw())

    # -- densities ------------------------------------------------------

    def log_density_min(self) -> NDArray[np.float64]:
        """Log of the martingale part of the pricing density, under P paths."""
        if self.measure != "P":
            raise ValueError("density of the pricing measure is defined on P paths")
        mpr = self.agg.mpr_loading
        return -mpr * self.int_sqrt_v_dW() - 0.5 * mpr**2 * self.int_v()

    def xi_min(self) -> NDArray[np.float64]:
        """State-price density: discount times pricing-measure density."""
        return np.exp(-self.int_rate() + self.log_density_min())

    def log_belief_density(self, i: int) -> NDArray[np.float64]:
        """Log density reweighting investor i's idiosyncratic shock."""
        if self.measure != "P":
            raise ValueError("belief densities are defined on P paths")
        inv = self.econ.investors[i]
        ratio = inv.beta_Y / inv.tau
        dZ = self._dz_block(i)
        cum = np.zeros_like(self.v)
        np.cumsum(np.sqrt(self.v[:, :-1]) * dZ, axis=1, out=cum[:, 1:])
        return -ratio * cum - 0.5 * ratio**2 * self.int_v()

    # -- income and consumption ----------------------------------------

    def insured_income(self, i: int) -> NDArray[np.float64]:
        """Euler path of investor i's insured income.

        The insured path drops the idiosyncratic diffusion and compensates
        the drift by half the squared loading per unit tolerance, so it
        needs no idiosyncratic increments.
        """
        inv = self.econ.investors[i]
        dW = self._need_dw()
        vp = self.v[:, :-1]
        comp = 0.5 * inv.beta_Y**2 / inv.tau
        dY_ins = (inv.mu_Y + (inv.kappa_Y - comp) * vp) * self.dt + np.sqrt(vp) * (
            inv.sigma_Y * dW
        )
        Y_ins = np.full_like(self.v, inv.Y0)
        np.cumsum(dY_ins, axis=1, out=Y_ins[:, 1:])
        Y_ins[:, 1:] += inv.Y0
        return Y_ins

    def income_paths(self, i: int) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
        """Euler paths of investor i's income and its insured counterpart.

        Both paths start at the same level; the second is
        :meth:`insured_income`.
        """
        inv = self.econ.investors[i]
        Y_ins = self.insured_income(i)
        vp = self.v[:, :-1]
        dY = (inv.mu_Y + inv.kappa_Y * vp) * self.dt + np.sqrt(vp) * (
            inv.sigma_Y * self.dW + inv.beta_Y * self._dz_block(i)
        )
        Y = np.full_like(self.v, inv.Y0)
        np.cumsum(dY, axis=1, out=Y[:, 1:])
        Y[:, 1:] += inv.Y0
        return Y, Y_ins

    def consumption_cum(self, i: int) -> NDArray[np.float64]:
        """Cumulative optimal-consumption increments (zero initial level)."""
        coeffs = optimal_consumption_coeffs(self.agg, self.econ.investors[i])
        dW = self._need_dw()
        vp = self.v[:, :-1]
        dc = (coeffs.drift_const + coeffs.drift_v * vp) * self.dt + (
            coeffs.diffusion * np.sqrt(vp) * dW
        )
        out = np.zeros_like(self.v)
        np.cumsum(dc, axis=1, out=out[:, 1:])
        return out


def _euler_step(vol, x, kappa, dt, dW):
    """One full-truncation Euler step of the variance state.

    The raw state ``x`` may dip below zero but only its positive part enters
    drift and diffusion.  Returns the next raw state, the clipped current
    state and its square root.
    """
    vp = np.maximum(x, 0.0)
    root = np.sqrt(vp)
    return x + (vol.mu_v + kappa * vp) * dt + vol.sigma_v * root * dW, vp, root


def _euler_bundle(
    ctx: _SimContext, dW, z_seed=None, g_seed=None, antithetic_pairs=False
) -> PathBundle:
    """Euler bundle on the context's grid; only the clipped state is stored."""
    vol = ctx.econ.vol
    x = np.full(dW.shape[0], vol.v0)
    v = np.empty((dW.shape[0], dW.shape[1] + 1))
    v[:, 0] = vol.v0
    for k in range(dW.shape[1]):
        x, _, _ = _euler_step(vol, x, ctx.kappa_grid[k], ctx.dt, dW[:, k])
        v[:, k + 1] = np.maximum(x, 0.0)
    return PathBundle(ctx, v, dW, z_seed, g_seed, antithetic_pairs)


def _simulate_chunk(ctx: _SimContext, seed, m: int) -> PathBundle:
    # a child depends only on its index, so the first two equal spawn(2)'s
    w_seed, z_seed, g_seed = seed.spawn(3)
    gen = np.random.Generator(np.random.Philox(w_seed))
    vol = ctx.econ.vol
    K = ctx.n_steps
    dt = ctx.dt

    if ctx.sim.scheme == "exact":
        v = np.empty((m, K + 1))
        v[:, 0] = vol.v0
        sig2 = vol.sigma_v**2
        df = 4.0 * vol.mu_v / sig2
        kt = -ctx.kappa_eff  # reversion speed of the transition law
        if kt == 0.0:
            c = 2.0 / (sig2 * dt)
            decay = 1.0
        else:
            c = 2.0 * kt / (sig2 * -math.expm1(-kt * dt))
            decay = math.exp(-kt * dt)
        for k in range(K):
            nonc = 2.0 * c * v[:, k] * decay
            v[:, k + 1] = gen.noncentral_chisquare(df, nonc) / (2.0 * c)
        return PathBundle(ctx, v, None, z_seed, g_seed, antithetic_pairs=False)

    if ctx.sim.antithetic:
        base = gen.standard_normal((m // 2, K))
        dW = math.sqrt(dt) * np.concatenate([base, -base], axis=0)
    else:
        dW = math.sqrt(dt) * gen.standard_normal((m, K))
    return _euler_bundle(ctx, dW, z_seed, g_seed, antithetic_pairs=ctx.sim.antithetic)


def _iter_chunks(ctx: _SimContext):
    counts = ctx.chunk_counts()
    seeds = np.random.SeedSequence(ctx.sim.seed).spawn(len(counts))
    for seed, m in zip(seeds, counts):
        yield _simulate_chunk(ctx, seed, m)


def simulate(
    econ: EconomyParams, sim: SimConfig, horizon: float | None = None
) -> PathBundle:
    """Simulate one bundle of paths over ``[0, horizon]``.

    Materializes everything in a single chunk, so it is meant for the
    pathwise identity checks at moderate path counts; the estimator
    functions below stream chunks instead and never hold all paths at once.
    """
    ctx = _SimContext(econ, sim, econ.horizon if horizon is None else horizon)
    seed = np.random.SeedSequence(sim.seed).spawn(1)[0]
    return _simulate_chunk(ctx, seed, sim.n_paths)


class _Moments:
    """Streaming mean and standard error over the last axis of each sample.

    A paired sample holds antithetic mirrors in its two halves and its pair
    means are the sample unit.  The mean is the running sum over the count.
    Squared deviations are taken in two passes about a fixed shift (the
    first sample's mean) and merged by the pairwise update of Chan, Golub
    and LeVeque (1979), so nothing cancels when the mean is large against
    the spread.
    """

    def __init__(self) -> None:
        self.n = 0
        self.total = np.zeros(())
        self.shift = None
        self.shifted_total = np.zeros(())
        self.m2 = np.zeros(())

    @property
    def mean(self):
        return self.total / max(self.n, 1)

    def add(self, vals, paired: bool = False) -> None:
        vals = np.asarray(vals, dtype=float)
        if paired:
            half = vals.shape[-1] // 2
            vals = 0.5 * (vals[..., :half] + vals[..., half:])
        if self.shift is None:
            self.shift = vals.mean(axis=-1, keepdims=True)
        k = vals.shape[-1]
        y = vals - self.shift
        y_mean = y.mean(axis=-1)
        dev = y - y_mean[..., None]
        delta = y_mean - self.shifted_total / max(self.n, 1)
        self.m2 = self.m2 + (dev * dev).sum(axis=-1) + delta * delta * (self.n * k / (self.n + k))
        self.total = self.total + vals.sum(axis=-1)
        self.shifted_total = self.shifted_total + y.sum(axis=-1)
        self.n += k

    def estimate(self, sim: SimConfig, j=()) -> McEstimate:
        """Estimate of row ``j`` (of the only row for one-dimensional samples)."""
        se = np.sqrt(self.m2 / max(self.n - 1, 1) / self.n)
        return McEstimate(float(self.mean[j]), float(se[j]), sim.n_paths, sim.measure)


@dataclass
class _Consumer:
    """Per-path rows of one estimator and the moments they accumulate.

    ``rows`` maps a bundle to one value per path, or to stacked rows of
    them; ``paired`` folds antithetic mirrors into pair means when the
    bundle has them.
    """

    rows: Callable[[PathBundle], NDArray[np.float64]]
    paired: bool = True
    acc: _Moments = field(default_factory=_Moments)


@dataclass
class _Plan:
    """An estimator as a path stream, its consumers and a finishing step."""

    ctx: _SimContext
    consumers: tuple[_Consumer, ...]
    finish: Callable[[], Any]


def _run(*plans: _Plan) -> list:
    """The one chunk loop: each chunk of a shared stream feeds every consumer.

    The plans must simulate the same stream (economy, settings, horizon).
    Consumers run one after another on each bundle, so peak memory is that
    of the largest consumer, not their sum.  Returns each plan's result.
    """
    ctx = plans[0].ctx
    key = (ctx.econ, ctx.sim, ctx.horizon)
    if any((p.ctx.econ, p.ctx.sim, p.ctx.horizon) != key for p in plans[1:]):
        raise ValueError("plans on different path streams cannot share a chunk loop")
    consumers = [c for p in plans for c in p.consumers]
    for bundle in _iter_chunks(ctx):
        for c in consumers:
            c.acc.add(c.rows(bundle), c.paired and bundle.antithetic_pairs)
        del bundle  # free this chunk's paths before the next chunk is simulated
    return [p.finish() for p in plans]


def _mean_plan(ctx: _SimContext, rows) -> _Plan:
    """Plan of one estimate: the mean of a per-path functional."""
    c = _Consumer(rows)
    return _Plan(ctx, (c,), lambda: c.acc.estimate(ctx.sim))


def _log_exp_martingale(bundle: PathBundle, coeff) -> NDArray[np.float64]:
    """Terminal log of the left-point exponential martingale, per path.

    ``coeff`` holds one deterministic coefficient per step; the martingale
    loads ``-coeff * sqrt(v)`` on the traded shock.
    """
    vp = bundle.v[:, :-1]
    stoch = np.einsum("ij,ij,j->i", np.sqrt(vp), bundle._need_dw(), coeff)
    return -stoch - 0.5 * bundle.dt * np.einsum("ij,j->i", vp, coeff**2)


# ---------------------------------------------------------------------------
# state-law checks


def cir_mean(mu: float, kappa: float, v0: float, t) -> float:
    """Mean of the square-root process: solution of m' = mu + kappa m."""
    if kappa == 0.0:
        return v0 + mu * t
    theta = -mu / kappa
    return theta + (v0 - theta) * np.exp(kappa * t)


def mc_state_mean(econ: EconomyParams, sim: SimConfig, horizon: float | None = None) -> McEstimate:
    """Sample mean of the terminal variance state."""
    ctx = _SimContext(econ, sim, econ.horizon if horizon is None else horizon)
    return _run(_mean_plan(ctx, lambda b: b.v[:, -1]))[0]


# ---------------------------------------------------------------------------
# pricing oracles


def _require_measure(sim: SimConfig, measure: str) -> SimConfig:
    return sim if sim.measure == measure else replace(sim, measure=measure)


def mc_bond_price(
    econ: EconomyParams, U: float, sim: SimConfig, benchmark: bool = False
) -> McEstimate:
    """Estimate the zero-coupon price as a discounted expectation.

    Simulates the state under the pricing measure to the bond maturity and
    averages the trapezoid discount factor; ``benchmark=True`` discounts at
    the full-insurance rate instead (the state law is the same because both
    economies share the instantaneous price of risk).
    """
    if U == 0.0:
        return McEstimate(1.0, 0.0, sim.n_paths, sim.measure)
    return _run(_bond_plan(econ, U, sim, benchmark))[0]


def _bond_plan(econ: EconomyParams, U: float, sim: SimConfig, benchmark: bool = False) -> _Plan:
    ctx = _SimContext(econ, _require_measure(sim, "Qmin"), U)
    return _mean_plan(ctx, lambda b: np.exp(-b.int_rate(benchmark)[:, -1]))


def mc_annuity(
    econ: EconomyParams, sim: SimConfig, benchmark: bool = False
) -> McEstimate:
    """Estimate the annuity price: time-integrated discounted unit dividend."""
    return _run(_annuity_plan(econ, sim, benchmark))[0]


def _annuity_plan(econ: EconomyParams, sim: SimConfig, benchmark: bool = False) -> _Plan:
    ctx = _SimContext(econ, _require_measure(sim, "Qmin"), econ.horizon)

    def pathwise(b: PathBundle):
        disc = np.exp(-b.int_rate(benchmark))
        return 0.5 * (disc[:, :-1] + disc[:, 1:]).sum(axis=1) * b.dt

    return _mean_plan(ctx, pathwise)


# ---------------------------------------------------------------------------
# forward measure and risk premia


def _terminal_security_values(
    bundle: PathBundle, sol: RiccatiSolution, security: str, U: float
):
    """Time-U value of a self-financing test security, per path.

    "bond": the longest-maturity zero-coupon bond, valued by the closed
    form at the simulated terminal state.  "annuity": the dividend-paying
    annuity with dividends swept into the money market, so the position is
    self-financing; its value adds the accrued, rolled-up dividend account
    to the closed-form ex-dividend price.
    """
    T = bundle.econ.horizon
    v_U = bundle.v[:, -1]
    if security == "bond":
        s = T - U
        return np.exp(sol.eval_b(s) * v_U - sol.eval_a(s))
    if security == "annuity":
        disc = np.exp(-bundle.int_rate())
        accrued = 0.5 * (disc[:, :-1] + disc[:, 1:]).sum(axis=1) * bundle.dt / disc[:, -1]
        if U == T:
            spot = np.zeros_like(v_U)
        else:
            # ex-dividend price, affine in the terminal state per quadrature node
            nodes, weights = quad_nodes(U, T)
            s = nodes - U
            node_prices = np.exp(np.outer(v_U, sol.eval_b(s)) - sol.eval_a(s))
            spot = np.einsum("ij,j->i", node_prices, weights)
        return spot + accrued
    raise ValueError(f"security must be 'bond' or 'annuity', got {security!r}")


def verify_forward_measure(
    econ: EconomyParams, U: float, sim: SimConfig, security: str = "bond"
) -> McEstimate:
    """Expected simple return under the forward measure, centered at its target.

    Under the U-forward measure every self-financing value process earns
    the deterministic return of the U-bond, ``(1 - B(0,U)) / B(0,U)``.
    Returns the centered sample mean, which should be zero within noise.
    The U-bond itself would produce a deterministic return (a vacuous
    check), so the securities offered are the horizon-T bond and the
    dividend-reinvested annuity.
    """
    return _run(_forward_plan(econ, U, sim, security))[0]


def _forward_plan(econ: EconomyParams, U: float, sim: SimConfig, security: str) -> _Plan:
    agg = require_valid(econ)
    sol = solve_closed_form(market_coeffs(agg), econ.horizon)
    x0 = (
        bond_price(sol, 0.0, econ.horizon, agg.vol.v0)
        if security == "bond"
        else annuity_price(sol, 0.0, agg.vol.v0, econ.horizon)
    )
    target = (1.0 - bond_price(sol, 0.0, U, agg.vol.v0)) / bond_price(
        sol, 0.0, U, agg.vol.v0
    )
    ctx = _SimContext(econ, replace(sim, measure="QU", horizon_U=U), U)

    def pathwise(b: PathBundle):
        x_U = _terminal_security_values(b, sol, security, U)
        return (x_U - x0) / x0 - target

    return _mean_plan(ctx, pathwise)


@dataclass(frozen=True)
class RiskPremiumReport:
    """Both sides of the covariance decomposition of a holding-period premium.

    ``premium`` estimates the expected excess return over the riskless
    U-horizon return; ``covariance_side`` is the negated covariance of the
    forward-measure density with the security value, scaled by the initial
    price; ``identity_gap`` estimates their difference directly on the same
    paths and should be zero within noise.
    """

    security: str
    U: float
    premium: McEstimate
    covariance_side: float
    identity_gap: McEstimate


def mc_risk_premium(
    econ: EconomyParams, U: float, security: str, sim: SimConfig
) -> RiskPremiumReport:
    """Estimate the U-horizon risk premium and check its covariance form."""
    return _run(_premium_plan(econ, U, security, sim))[0]


def _premium_plan(econ: EconomyParams, U: float, security: str, sim: SimConfig) -> _Plan:
    agg = require_valid(econ)
    sol = solve_closed_form(market_coeffs(agg), econ.horizon)
    b_0U = bond_price(sol, 0.0, U, agg.vol.v0)
    x0 = (
        bond_price(sol, 0.0, econ.horizon, agg.vol.v0)
        if security == "bond"
        else annuity_price(sol, 0.0, agg.vol.v0, econ.horizon)
    )
    riskless = (1.0 - b_0U) / b_0U
    ctx = _SimContext(econ, _require_measure(sim, "P"), U)
    # the forward-measure density loads the discrete price of risk
    coeff = discrete_mpr(sol, agg, ctx.times[:-1], U)
    paths = {}  # excess_rows stores the bundle's density and value; raw_rows, run next, reads them

    def excess_rows(bundle: PathBundle):  # simple excess return and identity gap
        x_U = _terminal_security_values(bundle, sol, security, U)
        m = np.exp(_log_exp_martingale(bundle, coeff))
        paths.update(m=m, x_U=x_U)
        return np.stack([(x_U - x0) / x0 - riskless, m * x_U / x0 - 1.0 / b_0U])

    def raw_rows(bundle: PathBundle):  # density, value and their product, unpaired
        m, x_U = paths["m"], paths["x_U"]
        return np.stack([m, x_U, m * x_U])

    excess, raw = _Consumer(excess_rows), _Consumer(raw_rows, paired=False)

    def finish() -> RiskPremiumReport:
        mean_m, mean_x, mean_mx = raw.acc.mean
        return RiskPremiumReport(
            security=security,
            U=U,
            premium=excess.acc.estimate(ctx.sim, 0),
            covariance_side=float(-(mean_mx - mean_m * mean_x) / x0),
            identity_gap=excess.acc.estimate(ctx.sim, 1),
        )

    return _Plan(ctx, (excess, raw), finish)


# ---------------------------------------------------------------------------
# clearing, multipliers, first-order conditions


@dataclass(frozen=True)
class ClearingReport:
    max_residual: float
    n_paths: int
    n_steps: int

    @property
    def passed(self) -> bool:
        return self.max_residual <= 1e-10


def verify_clearing(econ: EconomyParams, sim: SimConfig) -> ClearingReport:
    """Pathwise goods-market clearing of summed consumption increments.

    Every investor's consumption path is driven by the same state and
    Brownian increments, and the increment coefficients sum to zero across
    investors, so the aggregate is constant up to floating-point roundoff
    on every path and date.
    """
    return _clearing_report(simulate(econ, _require_measure(sim, "P")))


def _clearing_report(bundle: PathBundle) -> ClearingReport:
    total = bundle.consumption_cum(0)
    for i in range(1, bundle.econ.n_investors):
        total += bundle.consumption_cum(i)
    return ClearingReport(
        max_residual=float(np.abs(total).max()),
        n_paths=bundle.n_paths,
        n_steps=bundle.n_steps,
    )


@dataclass(frozen=True)
class MultiplierSolution:
    """Per-investor utility weights implied by the time-zero budgets.

    ``c0`` are initial consumption levels, ``alpha`` the matching
    multipliers; ``annuity_mc`` estimates the expected discounted dividend
    stream (one per unit of initial consumption) and should agree with the
    closed-form annuity price within noise.
    """

    c0: NDArray[np.float64]
    alpha: NDArray[np.float64]
    annuity_mc: McEstimate
    annuity_closed: float


def solve_multipliers(econ: EconomyParams, sim: SimConfig) -> MultiplierSolution:
    """Back out initial consumption from each investor's lifetime budget.

    Consumption is initial level plus a level-independent increment
    process, so the budget constraint is affine in the initial level:
    ``c0 = (X0 - E[int xi * cum-increments dt]) / E[int xi dt]``.  Both
    expectations are estimated on shared paths; the numerator combines three
    per-path sums every investor shares (summation by parts, see the module
    docstring), and the denominator doubles as a Monte Carlo annuity check.
    """
    return _run(_multipliers_plan(econ, sim))[0]


def _multipliers_plan(econ: EconomyParams, sim: SimConfig) -> _Plan:
    ctx = _SimContext(econ, _require_measure(sim, "P"), econ.horizon)
    trap_w = np.full(ctx.n_steps + 1, ctx.dt)
    trap_w[0] = trap_w[-1] = 0.5 * ctx.dt

    def rows(bundle: PathBundle):
        # the deflated annuity and the three sums every investor's deflated
        # consumption combines (summation by parts, see the module docstring)
        tail = bundle.xi_min()
        tail *= trap_w
        timed = np.einsum("ij,j->i", tail, bundle.times)
        np.cumsum(tail[:, ::-1], axis=1, out=tail[:, ::-1])  # tail[:, k] = R_k
        vp = bundle.v[:, :-1]
        return np.stack([
            tail[:, 0],
            timed,
            bundle.dt * np.einsum("ij,ij->i", vp, tail[:, 1:]),
            np.einsum("ij,ij,ij->i", np.sqrt(vp), bundle.dW, tail[:, 1:]),
        ])

    c = _Consumer(rows)

    def finish() -> MultiplierSolution:
        agg = ctx.agg
        x0 = np.array([inv.X0 for inv in econ.investors])
        coeffs = [optimal_consumption_coeffs(agg, inv) for inv in econ.investors]
        a, b, d = np.array([(k.drift_const, k.drift_v, k.diffusion) for k in coeffs]).T
        annuity, timed, v_sum, w_sum = c.acc.mean
        c0 = (x0 - (a * timed + b * v_sum + d * w_sum)) / annuity
        y0 = np.array([inv.Y0 for inv in econ.investors])
        tau = np.array([inv.tau for inv in econ.investors])
        alpha = np.exp(-(c0 + y0) / tau) / tau
        sol = solve_closed_form(market_coeffs(agg), econ.horizon)
        return MultiplierSolution(
            c0=c0,
            alpha=alpha,
            annuity_mc=c.acc.estimate(ctx.sim, 0),
            annuity_closed=annuity_price(sol, 0.0, agg.vol.v0, econ.horizon),
        )

    return _Plan(ctx, (c,), finish)


@dataclass(frozen=True)
class FocReport:
    """Pathwise first-order-condition residuals for one investor.

    ``max_insured`` uses the insured income path against the pricing
    density alone; ``max_raw`` uses raw income against the pricing density
    tilted by the investor's belief density.  The two routes are exact
    continuous-time identities; their discrete residuals are pure
    time-discretization error.
    """

    investor: int
    max_insured: float
    max_raw: float
    route_split: float
    n_paths: int
    dt: float


def _foc_terms(bundle: PathBundle, i: int, c0: float):
    """Consumption path, log multiplier and log state price of investor i."""
    inv = bundle.econ.investors[i]
    c_path = c0 + bundle.consumption_cum(i)
    log_alpha = -(c0 + inv.Y0) / inv.tau - math.log(inv.tau)
    log_xi = -bundle.int_rate() + bundle.log_density_min()
    return c_path, log_alpha, log_xi


def _foc_residual(tau: float, terms, income, log_belief=0.0):
    """One route's residual: log marginal utility against its log price."""
    c_path, log_alpha, log_xi = terms
    # marginal utility in logs: -log tau - (c + income) / tau
    return -math.log(tau) - (c_path + income) / tau - (log_alpha + log_belief + log_xi)


def _foc_residuals(bundle: PathBundle, i: int, c0: float):
    tau = bundle.econ.investors[i].tau
    Y, Y_ins = bundle.income_paths(i)
    terms = _foc_terms(bundle, i, c0)
    r_ins = _foc_residual(tau, terms, Y_ins)
    return r_ins, _foc_residual(tau, terms, Y, bundle.log_belief_density(i))


def verify_foc(
    econ: EconomyParams,
    sim: SimConfig,
    investor: int = 0,
    c0: float | None = None,
) -> FocReport:
    """Check the marginal-utility pricing identity along every path.

    The initial consumption level cancels between the consumption path and
    the multiplier, so any value gives the same residual; pass one to pin
    the paths to a solved budget.  Residuals shrink linearly in the step
    size (see the module docstring for the exact telescoped form).
    """
    return _foc_report(simulate(econ, _require_measure(sim, "P")), investor, c0)


def _foc_report(bundle: PathBundle, investor: int = 0, c0: float | None = None) -> FocReport:
    r_ins, r_raw = _foc_residuals(bundle, investor, 0.0 if c0 is None else c0)
    return FocReport(
        investor=investor,
        max_insured=float(np.abs(r_ins).max()),
        max_raw=float(np.abs(r_raw).max()),
        route_split=float(np.abs(r_ins - r_raw).max()),
        n_paths=bundle.n_paths,
        dt=bundle.dt,
    )


def _require_nested_grid(fine_steps: int, doublings: int) -> None:
    """Reject a fine grid that the coarse levels cannot aggregate evenly."""
    if fine_steps % 2**doublings:
        raise ValueError(
            f"the finest grid has {fine_steps} steps, which is not a multiple of "
            f"2**doublings = {2**doublings} (doublings={doublings}); choose "
            "steps_per_year so the horizon holds a whole number of coarse steps"
        )


@dataclass(frozen=True)
class FocOrderReport:
    steps_per_year: tuple[int, ...]
    residuals: tuple[float, ...]
    order: float


def foc_order(
    econ: EconomyParams,
    sim: SimConfig,
    investor: int = 0,
    doublings: int = 2,
) -> FocOrderReport:
    """Observed convergence order of the first-order-condition residual.

    Simulates at the finest grid once and aggregates the same increments
    onto coarser grids, so every level sees the same underlying noise and
    the residual ratio is nearly deterministic.  The insured route carries
    no idiosyncratic term, so no level draws ``dZ``.
    """
    fine_sim = replace(sim, steps_per_year=sim.steps_per_year * 2**doublings, measure="P")
    _require_nested_grid(fine_sim.n_steps(econ.horizon), doublings)
    fine = simulate(econ, fine_sim)
    tau = econ.investors[investor].tau
    levels = []
    residuals = []
    for level in range(doublings + 1):
        factor = 2 ** (doublings - level)
        steps = sim.steps_per_year * 2**level
        if factor == 1:
            bundle = fine
        else:
            K = fine.n_steps // factor
            dW = fine.dW.reshape(fine.n_paths, K, factor).sum(axis=2)
            ctx = _SimContext(econ, replace(sim, steps_per_year=steps, measure="P"), econ.horizon)
            bundle = _euler_bundle(ctx, dW)
        terms = _foc_terms(bundle, investor, 0.0)
        r_ins = _foc_residual(tau, terms, bundle.insured_income(investor))
        levels.append(steps)
        residuals.append(float(np.abs(r_ins[:, -1]).mean()))
    fit = np.polyfit(np.log2(levels), np.log2(residuals), 1)
    return FocOrderReport(tuple(levels), tuple(residuals), float(-fit[0]))


# ---------------------------------------------------------------------------
# martingale and budget checks


def martingale_checks(econ: EconomyParams, sim: SimConfig) -> list[tuple[str, McEstimate]]:
    """Sample means of the unit-mean densities at the horizon.

    Left-endpoint construction makes each discrete density an exact
    martingale, so the means should differ from one by sampling error only.
    The belief densities are sampled conditionally on the variance path
    (see the module docstring), with the law of the full-path ones.
    """
    return _run(_martingale_plan(econ, sim))[0]


def _martingale_plan(econ: EconomyParams, sim: SimConfig) -> _Plan:
    ctx = _SimContext(econ, _require_measure(sim, "P"), econ.horizon)
    n_inv = econ.n_investors
    labels = ["pricing_density"] + [f"belief_density_{i}" for i in range(n_inv)]
    mpr = ctx.agg.mpr_loading
    ratios = np.array([[inv.beta_Y / inv.tau] for inv in econ.investors])

    def rows(bundle: PathBundle):
        # the last column of log_density_min, and of log_belief_density(i) in
        # law: int sqrt(v) dZ_i is drawn as sqrt(int v dt) G_i (module docstring)
        int_v, int_sqrt_v_dW = bundle._terminal_integrals()
        out = np.empty((n_inv + 1, bundle.n_paths))
        out[0] = -mpr * int_sqrt_v_dW - 0.5 * mpr**2 * int_v
        int_sqrt_v_dZ = np.sqrt(int_v) * bundle._belief_normals()
        out[1:] = -ratios * int_sqrt_v_dZ - 0.5 * ratios**2 * int_v
        return np.exp(out, out=out)

    c = _Consumer(rows)
    return _Plan(
        ctx, (c,), lambda: [(label, c.acc.estimate(ctx.sim, j)) for j, label in enumerate(labels)]
    )


@dataclass(frozen=True)
class WeakOrderReport:
    """Weak-error study of the Euler state scheme for the bond functional.

    ``biases`` are the signed distances of each level's estimate from the
    closed form; ``order`` is measured from successive level differences,
    where the shared-noise contribution cancels (the raw biases keep the
    common Monte Carlo noise, the differences do not).
    """

    steps_per_year: tuple[int, ...]
    biases: tuple[float, ...]
    level_diffs: tuple[float, ...]
    order: float


def weak_convergence_study(
    econ: EconomyParams,
    U: float,
    sim: SimConfig,
    doublings: int = 3,
) -> WeakOrderReport:
    """Observed weak order of the Euler bond estimate against the closed form.

    All grid levels are coupled to the same fine Brownian increments, so
    consecutive-level differences of the estimates track the deterministic
    part of the discretization error with very little sampling noise.  A
    first-order scheme halves the error per doubling, so the differences
    halve too and their log-ratio slope is the observed order.
    """
    if doublings < 2:
        raise ValueError("need at least two doublings to measure an order")
    agg = require_valid(econ)
    sol = solve_closed_form(market_coeffs(agg), max(U, 1e-9))
    exact = bond_price(sol, 0.0, U, agg.vol.v0)
    base = replace(sim, measure="Qmin", scheme="euler")
    ctxs = [
        _SimContext(econ, replace(base, steps_per_year=sim.steps_per_year * 2**level), U)
        for level in range(doublings + 1)
    ]
    _require_nested_grid(ctxs[-1].n_steps, doublings)

    sums = np.zeros(doublings + 1)
    n = 0
    for bundle in _iter_chunks(ctxs[-1]):
        for level, ctx in enumerate(ctxs):
            factor = 2 ** (doublings - level)
            if factor == 1:
                lv = bundle
            else:
                K = bundle.n_steps // factor
                lv = _euler_bundle(ctx, bundle.dW.reshape(bundle.n_paths, K, factor).sum(axis=2))
            sums[level] += float(np.exp(-lv.int_rate()[:, -1]).sum())
        n += bundle.n_paths
    means = sums / n
    diffs = np.abs(np.diff(means))
    fit = np.polyfit(
        np.arange(diffs.size), np.log2(np.maximum(diffs, 1e-300)), 1
    )
    steps = tuple(sim.steps_per_year * 2**level for level in range(doublings + 1))
    return WeakOrderReport(
        steps_per_year=steps,
        biases=tuple(means - exact),
        level_diffs=tuple(diffs),
        order=float(-fit[0]),
    )


@dataclass(frozen=True)
class BudgetReport:
    """Constancy check of the expected deflated-wealth-plus-spending process."""

    investor: int
    times: tuple[float, ...]
    values: tuple[float, ...]
    standard_errors: tuple[float, ...]
    max_z: float
    wealth_at_zero: float
    budget_x0: float


def verify_budget_martingale(
    econ: EconomyParams,
    sim: SimConfig,
    investor: int = 0,
    checkpoints: tuple[float, ...] = (0.25, 0.5, 0.75),
    inner_paths: int = 256,
    c0: float | None = None,
) -> BudgetReport:
    """Deep verification of one investor's intertemporal budget.

    Reconstructs optimal wealth at each checkpoint by a nested simulation
    started from every outer path's state, then checks that deflated wealth
    plus cumulative deflated consumption has a constant expectation.  The
    time-zero reconstruction should also match the investor's initial
    wealth when ``c0`` comes from :func:`solve_multipliers`.  Quadratic
    cost in paths; defaults are sized for a smoke test, not for precision.
    """
    if c0 is None:
        c0 = float(solve_multipliers(econ, replace(sim, n_paths=4096)).c0[investor])
    base = _require_measure(sim, "P")
    outer = simulate(econ, base)
    xi = outer.xi_min()
    c_cum = outer.consumption_cum(investor)

    root = np.random.SeedSequence(sim.seed + 7_777_777)
    times = (0.0,) + tuple(checkpoints)
    values = []
    ses = []
    wealth0 = 0.0
    for idx, t_c in enumerate(times):
        k_c = int(round(t_c / outer.dt))
        t_c = outer.times[k_c]
        a_hat, c_hat = _nested_budget_tail(
            econ, base, outer.v[:, k_c], econ.horizon - t_c, inner_paths,
            root.spawn(1)[0], investor,
        )
        wealth = (c0 + c_cum[:, k_c]) * a_hat + c_hat
        if k_c:
            w = np.full(k_c + 1, outer.dt)
            w[0] = w[-1] = 0.5 * outer.dt
            spend = (xi[:, : k_c + 1] * (c0 + c_cum[:, : k_c + 1])) @ w
        else:
            spend = np.zeros(outer.n_paths)
        stat = xi[:, k_c] * wealth + spend
        values.append(float(stat.mean()))
        ses.append(float(stat.std(ddof=1) / math.sqrt(stat.size)))
        if idx == 0:
            wealth0 = float(wealth.mean())
    z = [
        abs(v - values[0]) / math.sqrt(s**2 + ses[0] ** 2 + 1e-300)
        for v, s in zip(values[1:], ses[1:])
    ]
    return BudgetReport(
        investor=investor,
        times=times,
        values=tuple(values),
        standard_errors=tuple(ses),
        max_z=max(z) if z else 0.0,
        wealth_at_zero=wealth0,
        budget_x0=econ.investors[investor].X0,
    )


def _nested_budget_tail(
    econ, sim: SimConfig, v_start, span: float, inner_paths: int, seed, investor: int
):
    """Inner expectations E[int xi du] and E[int xi * cum-increments du].

    One batched simulation covers all outer states: each outer path gets
    ``inner_paths`` fresh continuations started at its variance level, with
    the deflator restarted at one.  Trapezoid weights accumulate on the
    fly so no (paths, steps) matrix is ever held.  Returns per-outer-path
    inner means (a_hat, c_hat).
    """
    m_outer = v_start.shape[0]
    if span <= 0.0:
        zeros = np.zeros(m_outer)
        return zeros, zeros
    K = max(1, round(sim.steps_per_year * span))
    dt = span / K
    vol = econ.vol
    agg = require_valid(econ)
    coeffs = optimal_consumption_coeffs(agg, econ.investors[investor])
    mpr = agg.mpr_loading

    gen = np.random.Generator(np.random.Philox(seed))
    m = m_outer * inner_paths
    x = np.repeat(v_start, inner_paths)
    log_mart = np.zeros(m)
    int_r = np.zeros(m)
    r_prev = agg.rate_intercept + agg.rate_slope * np.maximum(x, 0.0)
    c_inc = np.zeros(m)
    xi = np.ones(m)

    trap_a = 0.5 * dt * xi
    trap_c = np.zeros(m)  # cum-increments start at zero
    for k in range(K):
        dW = math.sqrt(dt) * gen.standard_normal(m)
        x, vp, root = _euler_step(vol, x, vol.kappa_v, dt, dW)
        log_mart -= mpr * root * dW + 0.5 * mpr**2 * vp * dt
        c_inc = c_inc + (coeffs.drift_const + coeffs.drift_v * vp) * dt + coeffs.diffusion * root * dW
        r_new = agg.rate_intercept + agg.rate_slope * np.maximum(x, 0.0)
        int_r = int_r + 0.5 * (r_prev + r_new) * dt
        r_prev = r_new
        xi = np.exp(-int_r + log_mart)
        weight = dt if k < K - 1 else 0.5 * dt
        trap_a += weight * xi
        trap_c += weight * xi * c_inc

    a_hat = trap_a.reshape(m_outer, inner_paths).mean(axis=1)
    c_hat = trap_c.reshape(m_outer, inner_paths).mean(axis=1)
    return a_hat, c_hat
