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
full-truncation Euler update (only the chunk walk calls it);
``_log_exp_martingale`` is the left-point density with one coefficient per
step on the traded shock; ``_Moments`` is the one mean and standard-error
accumulator, taking antithetic pair means as the sample unit and merging
chunks by the pairwise update of Chan, Golub and LeVeque (1979).

The mismatch between the trapezoid discount and the left-endpoint
consumption drift telescopes into a first-order-condition residual of
exactly ``(dt / 2) * (r_{t_k} - r_0)`` at grid point t_k, for every
investor: the residual :func:`verify_foc` reports is first order in ``dt``
by this identity.

Paths are generated in fixed-size chunks, each from its own counter-based
stream spawned from the run seed, so estimates do not depend on how the
chunks are scheduled and any chunk can be regenerated in isolation.  Every
random block is drawn once, and only when a functional reads it.  A chunk's
increments are stored step-major, one row of paths per step, so a step of
the walk reads one contiguous row; the stream fills them in the order of a
(paths, steps) draw, so the layout moves no value.  The measures differ
only in the state drift, so a chunk's increments serve every measure,
forward horizon and discount rate: ``_run`` walks each chunk it draws once
per distinct context, and a one-slot memo (``_BLOCKS``) hands the last chunk
block a chunk loop drew, read-only, to the next chunk loop on the same
stream instead of drawing it again (common random numbers at no cost in
accuracy: every estimate equals that of a fresh draw).  :func:`simulate`
draws its own writable block.

Every check walks each chunk once per context (``_Chunk.walk``): the state
advances a step at a time, and the integrals the checks share,
``int v dt``, ``int sqrt(v) dW`` and the trapezoid ``int r dt``, run as one
value per path.  ``_run``, the one chunk loop, feeds each consumer an update
at every grid point and takes its per-path rows at the horizon (means for
estimators, maxima for the clearing and first-order-condition residuals), so
none holds a (paths, steps + 1) array and plans on one context share one
walk.  :func:`simulate` and ``PathBundle`` store full paths only as the Euler
reference the walked forms are tested against.

Every investor's consumption and insured income are affine in
``(1, t, int v dt, int sqrt(v) dW)``, the walk's ``_Chunk.basis()``, which
all investors share; :func:`_affine_coeffs` builds the coefficients once, and
every per-investor path is one product with the basis.  So goods clearing
and the first-order condition are identities in the coefficients, and both
checks are one consumer (``_affine_residual``) of a summed coefficient row:
the consumption rows summed over investors, and for investor i
``-(c_i + y_i - Y0 e_0) / tau + (0, 0, mpr**2 / 2, mpr)`` plus the discount
``int r dt`` (initial consumption and ``log tau`` cancel between the
consumption path and the multiplier).  Raw income, insured income plus
``beta_Y**2 / (2 tau) int v dt + beta_Y int sqrt(v) dZ_i``, meets the belief
density's ``-(beta_Y / tau) int sqrt(v) dZ_i - (beta_Y / tau)**2 int v dt / 2``
in an algebraic zero, so its route equals the insured one for every ``dZ``
and no check draws ``dZ``.  The budget integral of consumption
``C_i(t_k) = c_i . basis_k`` takes the forward form of summation by parts,
for trapezoid weights ``w``:

    sum_k w_k xi_k C_i(t_k) = c_i . sum_k w_k xi_k basis_k,

four running sums shared by every investor.  The martingale check samples
each belief density at the horizon conditionally (Glasserman, Monte Carlo
Methods in Financial Engineering, section 4.5): ``dZ`` is independent of
``v`` and ``dW``, so given the paths the discrete ``sum_k sqrt(v_k) dZ_i,k``
is exactly normal with variance ``int v dt``, independently across
investors, and one standard normal per investor and path from a third
chunk stream (``_Chunk._belief_normals``), scaled by ``sqrt(int v dt)``,
has the joint law of the full sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any, Callable, Iterator

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
    "WeakOrderReport",
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
    "martingale_checks",
    "weak_convergence_study",
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

    def __init__(self, econ: EconomyParams, sim: SimConfig, horizon: float, benchmark=False):
        if not 0.0 <= horizon < math.inf:
            raise ValueError(f"simulation horizon {horizon} must be finite and nonnegative")
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
        # the spot rate the walk discounts at: full insurance for the benchmark
        self.rate_slope = self.agg.rate_slope_rep if benchmark else self.agg.rate_slope
        # the exact walk's discount control, fixed here so that a walk calls
        # no public function (verify runs it on a worker thread)
        self.mean_int_rate = _mean_int_rate(self) if sim.scheme == "exact" else None

        if sim.antithetic and sim.scheme == "euler" and sim.n_paths % 2:
            raise ValueError("antithetic sampling needs an even n_paths")

    def chunk_counts(self) -> list[int]:
        unit = self.sim.chunk_size
        if self.sim.antithetic and self.sim.scheme == "euler":
            unit -= unit % 2  # mirrored pairs never straddle two chunks
        full, rest = divmod(self.sim.n_paths, unit)
        return [unit] * full + ([rest] if rest else [])


class PathBundle:
    """Full jointly simulated paths plus lazily derived processes.

    The Euler reference for the walked checks: :func:`simulate` builds one,
    and no check does.  ``v`` has shape (paths, steps + 1); increment arrays
    have shape (paths, steps).  ``dW`` holds increments of the Brownian
    motion of the simulation measure, as the chunk's transposed view of its
    step-major block (see ``_Chunk``), and is ``None`` under the exact
    scheme.  The ``dZ`` property draws the idiosyncratic increments of every
    investor, (investors, paths, steps), from the chunk's dedicated stream
    on first use; ``income_paths`` and ``log_belief_density`` read it.
    """

    def __init__(self, ctx: _SimContext, v, dW, z_seed, antithetic_pairs: bool):
        self.econ = ctx.econ
        self.agg = ctx.agg
        self.measure = ctx.sim.measure
        self.times = ctx.times
        self.dt = ctx.dt
        self.v = v
        self.dW = dW
        self.antithetic_pairs = antithetic_pairs
        self._z_seed = z_seed
        self._dZ: NDArray[np.float64] | None = None

    @property
    def n_paths(self) -> int:
        return self.v.shape[0]

    @property
    def n_steps(self) -> int:
        return self.v.shape[1] - 1

    @property
    def dZ(self) -> NDArray[np.float64]:
        if self._dZ is None:
            shape = (self.econ.n_investors, self.n_paths, self.n_steps)
            self._dZ = _draw_increments(_philox(self._z_seed), np.empty(shape), self.dt)
        return self._dZ

    # -- running integrals (cumulative, shape (paths, steps + 1)) -------

    def _path(self, increments, start: float = 0.0) -> NDArray[np.float64]:
        """Path from ``start`` at t_0 by the running sum of per-step increments."""
        out = np.full_like(self.v, start)
        np.cumsum(increments, axis=1, out=out[:, 1:])
        out[:, 1:] += start
        return out

    def int_v(self) -> NDArray[np.float64]:
        """Left-endpoint cumulative integral of v dt."""
        return self._path(self.v[:, :-1] * self.dt)

    def int_sqrt_v_dW(self) -> NDArray[np.float64]:
        return self._path(np.sqrt(self.v[:, :-1]) * _need_dw(self.dW))

    def int_rate(self, benchmark: bool = False) -> NDArray[np.float64]:
        """Trapezoid cumulative integral of the affine spot rate."""
        slope = self.agg.rate_slope_rep if benchmark else self.agg.rate_slope
        r = self.agg.rate_intercept + slope * self.v
        return self._path(0.5 * (r[:, :-1] + r[:, 1:]) * self.dt)

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
        cum = self._path(np.sqrt(self.v[:, :-1]) * self.dZ[i])
        return -ratio * cum - 0.5 * ratio**2 * self.int_v()

    # -- income and consumption ----------------------------------------

    def _steps(self):
        """The clipped left state of every step, its square root and the increments."""
        vp = self.v[:, :-1]
        return vp, np.sqrt(vp), _need_dw(self.dW), self.dt

    def insured_income(self, i: int) -> NDArray[np.float64]:
        """Euler path of investor i's insured income (see :func:`_income_step`)."""
        inv = self.econ.investors[i]
        return self._path(_income_step(inv, *self._steps()), inv.Y0)

    def income_paths(self, i: int) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
        """Euler paths of investor i's income and its insured counterpart.

        Both paths start at the same level; the second is
        :meth:`insured_income`.
        """
        inv = self.econ.investors[i]
        Y = self._path(_income_step(inv, *self._steps(), self.dZ[i]), inv.Y0)
        return Y, self.insured_income(i)

    def consumption_cum(self, i: int) -> NDArray[np.float64]:
        """Cumulative optimal-consumption increments (zero initial level)."""
        coeffs = optimal_consumption_coeffs(self.agg, self.econ.investors[i])
        return self._path(_consumption_step(coeffs, *self._steps()))


def _consumption_step(k, vp, root, dw, dt):
    """Elementwise optimal-consumption increments for ``ConsumptionCoeffs`` ``k``;
    with :func:`_income_step`, the Euler reference for :func:`_affine_coeffs`."""
    return (k.drift_const + k.drift_v * vp) * dt + k.diffusion * root * dw


def _income_step(inv, vp, root, dw, dt, dz=None):
    """Elementwise income increments of investor ``inv``: raw with idiosyncratic
    increments ``dz``, else insured, which drops the idiosyncratic diffusion
    and compensates the drift by half the squared loading per unit tolerance."""
    if dz is None:
        comp = 0.5 * inv.beta_Y**2 / inv.tau
        return (inv.mu_Y + (inv.kappa_Y - comp) * vp) * dt + root * (inv.sigma_Y * dw)
    return (inv.mu_Y + inv.kappa_Y * vp) * dt + root * (inv.sigma_Y * dw + inv.beta_Y * dz)


def _affine_coeffs(agg: AggregateParams, investors) -> NDArray[np.float64]:
    """Every investor's consumption and insured income as affine maps of the
    walk's basis ``(1, t, int v dt, int sqrt(v) dW)``: shape (2, investors, 4).

    Row 0 of investor i is cumulative consumption from a zero initial level,
    the sum of :func:`_consumption_step`; row 1 is insured income from
    ``Y0``, the sum of :func:`_income_step` without ``dz``.  Each equals its
    Euler path up to the reassociation of sums.
    """
    out = np.empty((2, len(investors), 4))
    for i, inv in enumerate(investors):
        k = optimal_consumption_coeffs(agg, inv)
        out[0, i] = 0.0, k.drift_const, k.drift_v, k.diffusion
        out[1, i] = inv.Y0, inv.mu_Y, inv.kappa_Y - 0.5 * inv.beta_Y**2 / inv.tau, inv.sigma_Y
    return out


def _philox(seed) -> np.random.Generator:
    if seed is None:
        raise ValueError("these paths were built without this random stream")
    return np.random.Generator(np.random.Philox(seed))


_TILE = 256  # paths per buffered tile of a draw into a strided ``out``


def _draw_increments(gen: np.random.Generator, out, dt: float) -> NDArray[np.float64]:
    """Fill ``out`` in place with Brownian increments over steps of length ``dt``.

    The stream fills ``out`` in the C order of its shape, last axis fastest.
    An ``out`` that is not C-contiguous, such as the (paths, steps) view of a
    step-major block, is filled through a C-ordered buffer of ``_TILE`` rows at
    a time, which draws the same stream and the same values.
    """
    if out.flags.c_contiguous:
        gen.standard_normal(out=out)
        out *= math.sqrt(dt)
        return out
    tile = np.empty((min(_TILE, out.shape[0]),) + out.shape[1:])
    for start in range(0, out.shape[0], _TILE):
        part = tile[: out.shape[0] - start]
        gen.standard_normal(out=part)
        part *= math.sqrt(dt)
        out[start : start + part.shape[0]] = part
    return out


def _need_dw(source):
    """Refuse a functional of the state increments on exact-scheme paths."""
    if source is None:
        raise ValueError("this functional needs Brownian increments; "
                         "the exact scheme does not produce them")
    return source


def _euler_step(vol, x, vp, root, kappa, dt, dW, out, scratch):
    """One full-truncation Euler step of the variance state, written to ``out``.

    The raw state ``x`` may dip below zero but only its positive part ``vp``
    and its square root ``root`` enter drift and diffusion.  ``out`` receives
    ``x + (mu + kappa vp) dt + (sigma root) dW`` operation by operation in
    that order, so the next raw state does not depend on the buffers;
    ``scratch`` holds the diffusion term.  ``out`` and ``scratch`` must not
    share memory with the inputs.  Returns ``out``.
    """
    np.multiply(vp, kappa, out=out)
    out += vol.mu_v
    out *= dt
    out += x
    np.multiply(root, vol.sigma_v, out=scratch)
    scratch *= dW
    out += scratch
    return out


class _Chunk:
    """One chunk of paths, advanced a step at a time by :meth:`walk`.

    ``dW`` is the (paths, steps) increment block, a transposed view of a
    step-major (steps, paths) block; a ``dW`` of another layout is copied
    into one such block.  ``draw(k)`` returns its row k, step k's state
    increments, without a copy; both are ``None`` under the exact scheme,
    whose walk draws the state itself.  Every walk starts at the economy's
    ``v0``.  Besides ``draw``, only full paths and coarser grids read ``dW``.
    At grid point ``k``, ``v`` is the clipped state at ``t_k``; ``int_v``,
    ``int_sqrt_v_dW`` and ``int_r`` are the left-point integrals of ``v dt``
    and ``sqrt(v) dW`` and the trapezoid integral of the spot rate to
    ``t_k``, per path, each equal bit for bit to the ``PathBundle`` column;
    ``vp``, ``root`` and ``dw`` are the last step's clipped left state (the
    ``v`` of the grid point before), its square root and its increment.  The
    walk never writes an array it handed out as ``v``, ``vp``, ``root`` or
    ``dw``, so a consumer may keep them; the running integrals are live and
    change at every step.  With increments, :meth:`basis` gives
    ``(1, t_k, int_v, int_sqrt_v_dW)`` as one (4, paths) array, whose last
    two rows are those integrals; :func:`_affine_coeffs` maps it to every
    investor's paths.
    """

    def __init__(self, ctx: _SimContext, m: int, dW=None, seeds=(None, None, None),
                 antithetic_pairs=False):
        self.ctx = ctx
        self.m = m
        self.n_steps, self.dt, self.times = ctx.n_steps, ctx.dt, ctx.times
        if dW is not None and not dW.T.flags.c_contiguous:
            dW = np.ascontiguousarray(dW.T).T  # one transposing copy into step-major rows
        self.dW = dW
        # step k's increments: row k, without a copy
        self.draw = None if dW is None else dW.T.__getitem__
        self.antithetic_pairs = antithetic_pairs
        self._w_seed, self.z_seed, self._g_seed = seeds

    def under(self, ctx: _SimContext) -> _Chunk:
        """This chunk's increments and streams, walked with ``ctx``'s drift and rate."""
        seeds = self._w_seed, self.z_seed, self._g_seed
        return _Chunk(ctx, self.m, self.dW, seeds, self.antithetic_pairs)

    def log_xi(self) -> NDArray[np.float64]:
        """Log of the state-price density ``xi_min`` at the current grid point."""
        mpr = self.ctx.agg.mpr_loading
        return -self.int_r + (-mpr * self.int_sqrt_v_dW - 0.5 * mpr**2 * self.int_v)

    def basis(self) -> NDArray[np.float64]:
        """The rows ``(1, t_k, int_v, int_sqrt_v_dW)`` at the current grid point
        t_k, live until the walk moves on; the time row is filled on request."""
        self._basis[1] = self.times[self.k]
        return self._basis

    def _belief_normals(self) -> NDArray[np.float64]:
        """One standard normal per investor and path, the same on every call;
        times ``sqrt(int v dt)``, row i has the law of ``int sqrt(v) dZ_i``."""
        return _philox(self._g_seed).standard_normal((self.ctx.econ.n_investors, self.m))

    def walk(self, sums: bool = True):
        """Advance the state one step at a time, yielding at t_0, ..., t_K;
        ``sums=False`` keeps no running integrals, for a walk that reads only ``v``.

        A step clips the state once (its ``vp`` is the last ``v``) and works in
        buffers of this walk, each expression's operations in order, so the
        values are bit for bit those of fresh arrays.
        """
        ctx, vol, dt, m = self.ctx, self.ctx.econ.vol, self.dt, self.m
        intercept, slope = ctx.agg.rate_intercept, ctx.rate_slope
        x = np.full(m, vol.v0)  # x is the raw Euler state
        self.v = np.maximum(x, 0.0)
        self.k = 0
        if sums:
            self.int_r = np.zeros(m)
            if self.draw is None:
                self.int_v = np.zeros(m)
            else:
                self._basis = np.zeros((4, m))
                self._basis[0] = 1.0
                self.int_v, self.int_sqrt_v_dW = self._basis[2], self._basis[3]
            r, r_next = intercept + slope * self.v, np.empty(m)
        term = np.empty(m)  # one integrand or the diffusion term at a time
        yield
        if self.draw is None:  # exact transition law: a scaled noncentral chi-square
            gen = _philox(self._w_seed)
            sig2 = vol.sigma_v**2
            df = 4.0 * vol.mu_v / sig2
            kt = -ctx.kappa_eff  # reversion speed of the transition law
            c = 2.0 / (sig2 * dt) if kt == 0.0 else 2.0 * kt / (sig2 * -math.expm1(-kt * dt))
            decay = math.exp(-kt * dt)
        else:
            raw = np.empty((2, m))  # alternate: a step never writes the x it reads
        for k in range(self.n_steps):
            self.vp = self.v
            if self.draw is None:
                self.v = gen.noncentral_chisquare(df, 2.0 * c * self.vp * decay) / (2.0 * c)
            else:
                self.dw = self.draw(k)
                self.root = np.sqrt(self.vp)
                x = _euler_step(vol, x, self.vp, self.root, ctx.kappa_grid[k], dt, self.dw,
                                raw[k % 2], term)
                self.v = np.maximum(x, 0.0)
                if sums:
                    self.int_sqrt_v_dW += np.multiply(self.root, self.dw, out=term)
            if sums:
                self.int_v += np.multiply(self.vp, dt, out=term)
                # r_next = intercept + slope v; int_r += 0.5 (r + r_next) dt
                np.multiply(self.v, slope, out=r_next)
                r_next += intercept
                np.add(r, r_next, out=term)
                term *= 0.5
                term *= dt
                self.int_r += term
                r, r_next = r_next, r
            self.k = k + 1
            yield


def _walk_rows(chunk: _Chunk, consumers) -> list:
    """Walk a chunk once, feeding every consumer in step; returns their rows.

    A consumer is a generator function of the chunk, resumed at each grid
    point t_0, ..., t_K once the walk stands there; it yields its rows at t_K.
    """
    gens = [c(chunk) for c in consumers]
    for _ in chunk.walk():
        rows = [next(g) for g in gens]
    return rows


def _then(chunk: _Chunk, fn, *parts):
    """Consumer yielding ``fn(chunk, *rows of parts)`` at t_K.

    The ``parts`` consumers are resumed in step with the walk; with none,
    ``fn`` reads only the walk's end state.
    """
    for _ in range(chunk.n_steps):
        for p in parts:
            next(p)
        yield
    yield fn(chunk, *(next(p) for p in parts))


class _BlockMemo:
    """The last increment block drawn, read-only, under the key that fixes it:
    a chunk's ``dW``, whose step-major rows are read-only through it as well.

    One slot: a hit returns the held block, and a miss empties the slot
    before drawing, so at most one block is held between calls and no two
    are alive at once.  A block drawn without a key (the single chunk of
    :func:`simulate`) is neither held nor read-only.
    """

    slot: tuple | None = None

    def get(self, key, draw: Callable[[], NDArray[np.float64]]) -> NDArray[np.float64]:
        held = self.slot
        if key is not None and held is not None and held[0] == key:
            return held[1]
        self.slot = held = None  # release the held block before drawing
        block = draw()
        if key is not None:
            block.flags.writeable = False
            self.slot = key, block
        return block


_BLOCKS = _BlockMemo()


def _simulate_chunk(ctx: _SimContext, seed, m: int, memo: bool = True) -> _Chunk:
    """A chunk with its state increments drawn in place, as a step-major block
    holding the stream of a (paths, steps) draw; its walk generates the state.

    With ``memo`` (the chunks of :func:`_iter_chunks`, at most ``chunk_size``
    paths) the block goes through ``_BLOCKS``: the held block when the last
    block drawn has the same key, else a fresh draw that the memo then holds.
    """
    # state, idiosyncratic (read only by PathBundle) and belief streams; a
    # child depends only on its index, so the belief stream stays child 2
    seeds = seed.spawn(3)
    if ctx.sim.scheme == "exact":
        return _Chunk(ctx, m, None, seeds)
    antithetic = ctx.sim.antithetic

    def draw() -> NDArray[np.float64]:
        # a step-major block, filled in the stream order of a (paths, steps) draw
        rows = np.empty((ctx.n_steps, m))
        half = m // 2 if antithetic else m
        _draw_increments(_philox(seeds[0]), rows[:, :half].T, ctx.dt)
        if antithetic:
            np.negative(rows[:, :half], out=rows[:, half:])
        return rows.T

    # everything the block depends on: the state stream's seed and the shape,
    # step length and mirroring of the draw
    w = seeds[0]
    key = (w.entropy, w.spawn_key, w.pool_size, m, ctx.n_steps, ctx.dt, antithetic)
    dW = _BLOCKS.get(key if memo else None, draw)
    return _Chunk(ctx, m, dW, seeds, antithetic)


def _bundle(chunk: _Chunk) -> PathBundle:
    """Full paths of a chunk: its walked state and its increments."""
    v = np.empty((chunk.m, chunk.n_steps + 1))
    for k, _ in enumerate(chunk.walk(sums=False)):
        v[:, k] = chunk.v
    return PathBundle(chunk.ctx, v, chunk.dW, chunk.z_seed, chunk.antithetic_pairs)


def _iter_chunks(ctx: _SimContext):
    counts = ctx.chunk_counts()
    seeds = np.random.SeedSequence(ctx.sim.seed).spawn(len(counts))
    for seed, m in zip(seeds, counts):
        yield _simulate_chunk(ctx, seed, m)


def simulate(
    econ: EconomyParams, sim: SimConfig, horizon: float | None = None
) -> PathBundle:
    """Simulate one bundle of full paths over ``[0, horizon]``.

    Materializes everything in a single chunk: the Euler reference at
    moderate path counts.  The checks below walk chunks instead and never
    hold full paths.
    """
    return _bundle(_one_chunk(econ, sim, horizon))


def _one_chunk(econ: EconomyParams, sim: SimConfig, horizon: float | None = None) -> _Chunk:
    """The paths of :func:`simulate` as one chunk, for a test to walk
    instead of store.

    Its block is always a fresh, writable draw: the memo serves only the
    chunk loops.
    """
    ctx = _SimContext(econ, sim, econ.horizon if horizon is None else horizon)
    seed = np.random.SeedSequence(sim.seed).spawn(1)[0]
    return _simulate_chunk(ctx, seed, sim.n_paths, memo=False)


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


class _Max:
    """Running maximum over the last axis of each sample, across chunks."""

    value = -np.inf

    def add(self, vals, paired: bool = False) -> None:
        self.value = np.maximum(self.value, np.max(vals, axis=-1))


@dataclass
class _Plan:
    """An estimator as a path stream, a consumer and a finishing step.

    ``rows`` is a consumer of the chunk walk (see :func:`_walk_rows`) whose
    rows hold one value per path, or stacked rows of them; ``finish`` maps
    their accumulator ``acc`` (moments, with antithetic mirrors folded into
    pair means, or maxima) to the estimator's result.
    """

    ctx: _SimContext
    rows: Callable[[_Chunk], Iterator]
    finish: Callable[[Any], Any]
    acc: Callable[[], Any] = _Moments


def _stream(ctx: _SimContext) -> tuple:
    """What fixes a context's chunks of increments and random streams."""
    sim = ctx.sim
    return (ctx.econ, sim.seed, sim.n_paths, sim.chunk_size, ctx.n_steps, ctx.horizon,
            sim.scheme, sim.antithetic)


def _run(*plans: _Plan) -> list:
    """The one chunk loop: each chunk of a shared stream is drawn once and
    walked once per context, and each walk feeds every consumer on that context.

    The plans must share one increment stream (:func:`_stream`: economy,
    seed, paths, chunk size, steps, horizon, scheme and antithetic flag);
    they may differ in measure, forward horizon or rate slope, which only
    the walk reads.  Every context walks the same increments, so each result
    equals that of its plan run alone.  Returns each plan's result.
    """
    key = _stream(plans[0].ctx)
    if any(_stream(p.ctx) != key for p in plans[1:]):
        raise ValueError("plans on different path streams cannot share a chunk loop")
    walks: dict[tuple, tuple[_SimContext, list[int]]] = {}  # plan indices by walk context
    for j, p in enumerate(plans):
        walks.setdefault((p.ctx.sim, p.ctx.rate_slope), (p.ctx, []))[1].append(j)
    accs = [p.acc() for p in plans]
    for chunk in _iter_chunks(plans[0].ctx):
        for ctx, idx in walks.values():
            for j, rows in zip(idx, _walk_rows(chunk.under(ctx), [plans[j].rows for j in idx])):
                accs[j].add(rows, chunk.antithetic_pairs)
        # drop the chunk before the next is drawn: then only _BLOCKS holds its
        # increments, and a miss there frees them before drawing new ones
        del chunk
    return [p.finish(acc) for p, acc in zip(plans, accs)]


def _mean_plan(ctx: _SimContext, rows) -> _Plan:
    """Plan of one estimate: the mean of a per-path functional."""
    return _Plan(ctx, rows, lambda acc: acc.estimate(ctx.sim))


def _mean_int_rate(ctx: _SimContext) -> NDArray[np.float64]:
    """``m_k = E[int_r(t_k)]`` on ``ctx.times`` under the exact transition law:
    the trapezoid integral of the affine rate at the state mean :func:`cir_mean`."""
    vol = ctx.econ.vol
    r = ctx.agg.rate_intercept + ctx.rate_slope * cir_mean(vol.mu_v, ctx.kappa_eff, vol.v0, ctx.times)
    m = np.zeros_like(r)
    np.cumsum(0.5 * (r[:-1] + r[1:]) * ctx.dt, out=m[1:])
    return m


def _discounter(chunk: _Chunk) -> Callable[[], NDArray[np.float64]]:
    """The discount factor ``exp(-int_r)`` per path at the walk's current grid point.

    An exact-scheme walk samples ``v`` from its transition law, so ``m_k``
    (:func:`_mean_int_rate`, computed once per context as
    ``ctx.mean_int_rate``) is the exact mean of ``int_r`` and the control
    ``exp(-m_k) (int_r - m_k)``, added here, has mean exactly 0: the rows keep
    their mean and lose the first-order term of ``exp(-int_r)`` about ``m_k``.
    Euler walks, whose state mean is biased, stay plain.
    """
    if chunk.draw is not None:
        return lambda: np.exp(-chunk.int_r)
    m = chunk.ctx.mean_int_rate
    return lambda: np.exp(-chunk.int_r) + math.exp(-m[chunk.k]) * (chunk.int_r - m[chunk.k])


def _discount(chunk: _Chunk):
    """Consumer: the trapezoid discount factor at the horizon (:func:`_discounter`)."""
    disc = _discounter(chunk)
    return _then(chunk, lambda ch: disc())


def _discount_integral(chunk: _Chunk):
    """Consumer: the trapezoid time integral of the discount factor (:func:`_discounter`)."""
    discounter = _discounter(chunk)
    disc, total = np.ones(chunk.m), np.zeros(chunk.m)
    for _ in range(chunk.n_steps):
        yield
        new = discounter()
        total += disc + new
        disc = new
    yield 0.5 * total * chunk.dt


def _log_exp_martingale(chunk: _Chunk, coeff):
    """Consumer: terminal log of the left-point exponential martingale that
    loads ``-coeff * sqrt(v)`` on the traded shock, one coefficient per step."""
    _need_dw(chunk.draw)
    stoch, quad = np.zeros(chunk.m), np.zeros(chunk.m)
    for k in range(chunk.n_steps):
        yield
        stoch += coeff[k] * chunk.root * chunk.dw
        quad += coeff[k] ** 2 * chunk.vp
    yield -stoch - 0.5 * chunk.dt * quad


# ---------------------------------------------------------------------------
# state-law checks


def cir_mean(
    mu: float, kappa: float, v0: float, t: float | NDArray[np.float64]
) -> float | NDArray[np.float64]:
    """Mean of the square-root process at ``t``: solution of m' = mu + kappa m.

    Elementwise: a float for a scalar ``t``, an array for an array.
    """
    if kappa == 0.0:
        return v0 + mu * t
    theta = -mu / kappa
    return theta + (v0 - theta) * np.exp(kappa * t)


def mc_state_mean(econ: EconomyParams, sim: SimConfig, horizon: float | None = None) -> McEstimate:
    """Sample mean of the terminal variance state."""
    ctx = _SimContext(econ, sim, econ.horizon if horizon is None else horizon)
    return _run(_mean_plan(ctx, lambda ch: _then(ch, lambda ch: ch.v)))[0]


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
    return _mean_plan(_SimContext(econ, _require_measure(sim, "Qmin"), U, benchmark), _discount)


def mc_annuity(
    econ: EconomyParams, sim: SimConfig, benchmark: bool = False
) -> McEstimate:
    """Estimate the annuity price: time-integrated discounted unit dividend."""
    return _run(_annuity_plan(econ, sim, benchmark))[0]


def _annuity_plan(econ: EconomyParams, sim: SimConfig, benchmark: bool = False) -> _Plan:
    ctx = _SimContext(econ, _require_measure(sim, "Qmin"), econ.horizon, benchmark)
    return _mean_plan(ctx, _discount_integral)


# ---------------------------------------------------------------------------
# forward measure and risk premia


def _closed_forms(econ: EconomyParams, security: str, U: float):
    """Aggregates, exponents, time-0 price of a test security and of the U-bond."""
    agg = require_valid(econ)
    sol = solve_closed_form(market_coeffs(agg), econ.horizon)
    v0 = agg.vol.v0
    x0 = bond_price(sol, 0.0, econ.horizon, v0) if security == "bond" else annuity_price(
        sol, 0.0, v0, econ.horizon)
    return agg, sol, x0, bond_price(sol, 0.0, U, v0)


def _security_values(chunk: _Chunk, sol: RiccatiSolution, security: str, U: float):
    """Consumer: time-U value of a self-financing test security, per path.

    "bond": the longest-maturity zero-coupon bond, valued by the closed
    form at the simulated terminal state.  "annuity": the dividend-paying
    annuity with dividends swept into the money market, so the position is
    self-financing; its value adds the accrued, rolled-up dividend account
    to the closed-form ex-dividend price.
    """
    T = chunk.ctx.econ.horizon
    if security == "bond":
        b, a = sol.eval_b(T - U), sol.eval_a(T - U)
        return _then(chunk, lambda ch: np.exp(b * ch.v - a))
    if security != "annuity":
        raise ValueError(f"security must be 'bond' or 'annuity', got {security!r}")

    def value(ch: _Chunk, accrual):
        # ex-dividend price, affine in the terminal state per quadrature node
        # (zero weights when U == T)
        nodes, weights = quad_nodes(U, T)
        node_prices = np.exp(np.outer(ch.v, sol.eval_b(nodes - U)) - sol.eval_a(nodes - U))
        return np.einsum("ij,j->i", node_prices, weights) + accrual / np.exp(-ch.int_r)

    return _then(chunk, value, _discount_integral(chunk))


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
    _, sol, x0, b_0U = _closed_forms(econ, security, U)
    target = (1.0 - b_0U) / b_0U
    ctx = _SimContext(econ, replace(sim, measure="QU", horizon_U=U), U)
    return _mean_plan(ctx, lambda ch: _then(
        ch, lambda ch, x_U: (x_U - x0) / x0 - target, _security_values(ch, sol, security, U)
    ))


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
    agg, sol, x0, b_0U = _closed_forms(econ, security, U)
    riskless = (1.0 - b_0U) / b_0U
    ctx = _SimContext(econ, _require_measure(sim, "P"), U)
    # the forward-measure density loads the discrete price of risk
    coeff = discrete_mpr(sol, agg, ctx.times[:-1], U)

    def rows(ch: _Chunk, x_U, log_m):
        # simple excess return and identity gap, then density, value and their product
        m = np.exp(log_m)
        return np.stack([(x_U - x0) / x0 - riskless, m * x_U / x0 - 1.0 / b_0U, m, x_U, m * x_U])

    def finish(acc: _Moments) -> RiskPremiumReport:
        mean_m, mean_x, mean_mx = acc.mean[2:]
        return RiskPremiumReport(
            security=security,
            U=U,
            premium=acc.estimate(ctx.sim, 0),
            covariance_side=float(-(mean_mx - mean_m * mean_x) / x0),
            identity_gap=acc.estimate(ctx.sim, 1),
        )

    return _Plan(ctx, lambda ch: _then(
        ch, rows, _security_values(ch, sol, security, U), _log_exp_martingale(ch, coeff)
    ), finish)


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
    on every path and date.  The walk evaluates the consumption rows of
    :func:`_affine_coeffs`, summed over investors, on its basis: one
    (4,) @ (4, paths) product per step, whatever the number of investors.
    The report is the largest residual of all chunks.
    """
    return _run(_clearing_plan(econ, sim))[0]


def _affine_residual(chunk: _Chunk, g, h: float) -> NDArray[np.float64]:
    """``|g . basis + h int_r|`` per path at the walk's current grid point."""
    return np.abs(g @ chunk.basis() + h * chunk.int_r)


def _peak_residual(chunk: _Chunk, g, h: float):
    """Consumer: per path, the largest :func:`_affine_residual` over t_0, ..., t_K."""
    _need_dw(chunk.draw)
    peak = _affine_residual(chunk, g, h)
    for _ in range(chunk.n_steps):
        yield
        np.maximum(peak, _affine_residual(chunk, g, h), out=peak)
    yield peak


def _clearing_plan(econ: EconomyParams, sim: SimConfig) -> _Plan:
    ctx = _SimContext(econ, _require_measure(sim, "P"), econ.horizon)
    g = _affine_coeffs(ctx.agg, econ.investors)[0].sum(axis=0)
    return _Plan(ctx, lambda ch: _peak_residual(ch, g, 0.0),
                 lambda acc: ClearingReport(float(acc.value), sim.n_paths, ctx.n_steps), _Max)


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
    expectations are estimated on shared paths; the numerator combines four
    per-path sums every investor shares (summation by parts, see the module
    docstring), and the denominator doubles as a Monte Carlo annuity check.
    """
    return _run(_multipliers_plan(econ, sim))[0]


def _deflated_sums(chunk: _Chunk):
    """Consumer: the basis deflated and integrated by the trapezoid rule,
    ``sum_k w_k xi_k basis_k``; row 0 is the deflated annuity, and every
    investor's deflated consumption is one product with it (summation by
    parts, module docstring).  Yields its live running sums at every t_k."""
    _need_dw(chunk.draw)
    sums = np.zeros((4, chunk.m))
    for k in range(chunk.n_steps + 1):
        # the state-price density at t_k, times its trapezoid weight
        xi = np.exp(chunk.log_xi())
        xi *= chunk.dt if 0 < k < chunk.n_steps else 0.5 * chunk.dt
        # row by row: one (4, paths) product with the basis is slower here
        sums[0] += xi
        sums[1] += xi * chunk.times[k]
        sums[2] += xi * chunk.int_v
        sums[3] += xi * chunk.int_sqrt_v_dW
        yield sums


def _multipliers_plan(econ: EconomyParams, sim: SimConfig) -> _Plan:
    ctx = _SimContext(econ, _require_measure(sim, "P"), econ.horizon)

    def finish(acc: _Moments) -> MultiplierSolution:
        agg = ctx.agg
        x0 = np.array([inv.X0 for inv in econ.investors])
        c0 = (x0 - _affine_coeffs(agg, econ.investors)[0] @ acc.mean) / acc.mean[0]
        y0 = np.array([inv.Y0 for inv in econ.investors])
        tau = np.array([inv.tau for inv in econ.investors])
        alpha = np.exp(-(c0 + y0) / tau) / tau
        sol = solve_closed_form(market_coeffs(agg), econ.horizon)
        return MultiplierSolution(
            c0=c0,
            alpha=alpha,
            annuity_mc=acc.estimate(ctx.sim, 0),
            annuity_closed=annuity_price(sol, 0.0, agg.vol.v0, econ.horizon),
        )

    return _Plan(ctx, _deflated_sums, finish)


@dataclass(frozen=True)
class FocReport:
    """Pathwise first-order-condition residual for one investor.

    ``max_insured`` is the largest residual over paths and dates of the
    insured income path against the pricing density alone.  Raw income
    against the density tilted by the investor's belief gives the same
    residual for every idiosyncratic path (module docstring), so it needs
    no second route.  The identity is exact in continuous time; the discrete
    residual is pure time-discretization error.
    """

    investor: int
    max_insured: float
    n_paths: int
    dt: float


def _investor(econ: EconomyParams, investor: int) -> int:
    """``investor`` as an index into ``econ.investors``; negative ones count from the end."""
    if not -econ.n_investors <= investor < econ.n_investors:
        raise ValueError(f"investor {investor} is out of range for {econ.n_investors} investors")
    return investor % econ.n_investors


def _foc_coeffs(agg: AggregateParams, inv) -> NDArray[np.float64]:
    """Investor ``inv``'s first-order-condition residual on the basis, less the
    discount ``int r dt``: log marginal utility less its log price, in which
    initial consumption and ``log tau`` cancel."""
    c, y = _affine_coeffs(agg, [inv])[:, 0]
    mpr = agg.mpr_loading
    return -(c + y - inv.Y0 * np.eye(4)[0]) / inv.tau + np.array([0.0, 0.0, 0.5 * mpr**2, mpr])


def _foc_plan(econ: EconomyParams, sim: SimConfig, investor: int = 0) -> _Plan:
    i = _investor(econ, investor)
    ctx = _SimContext(econ, _require_measure(sim, "P"), econ.horizon)
    g = _foc_coeffs(ctx.agg, econ.investors[i])
    return _Plan(ctx, lambda ch: _peak_residual(ch, g, 1.0),
                 lambda acc: FocReport(i, float(acc.value), sim.n_paths, ctx.dt), _Max)


def verify_foc(econ: EconomyParams, sim: SimConfig, investor: int = 0) -> FocReport:
    """Check the marginal-utility pricing identity along every path.

    Residuals shrink linearly in the step size (see the module docstring
    for the exact telescoped form).  The walk evaluates one coefficient row
    on its basis and adds the discount; it draws no idiosyncratic
    increments.  The report's ``investor`` is nonnegative.
    """
    return _run(_foc_plan(econ, sim, investor))[0]


def _coarse(ctx: _SimContext, dW, factor: int) -> _Chunk:
    """Paths on ``ctx``'s grid, ``factor`` times coarser than ``dW``'s, from summed increments.

    Each coarse increment is summed along a contiguous (paths, steps) copy,
    where numpy's summation order is that of a path-major block; summed
    along the step-major rows, factors of 8 and more would round otherwise.
    """
    m = dW.shape[0]
    return _Chunk(ctx, m, np.ascontiguousarray(dW).reshape(m, -1, factor).sum(axis=2))


def _require_nested_grid(fine_steps: int, doublings: int) -> None:
    """Reject a fine grid that the coarse levels cannot aggregate evenly."""
    if fine_steps % 2**doublings:
        raise ValueError(
            f"the finest grid has {fine_steps} steps, which is not a multiple of "
            f"2**doublings = {2**doublings} (doublings={doublings}); choose "
            "steps_per_year so the horizon holds a whole number of coarse steps"
        )


def _level_means(econ, sim: SimConfig, horizon: float, doublings: int, rows) -> NDArray[np.float64]:
    """Mean of a consumer's per-path rows on ``sim``'s grid and each of ``doublings``
    finer ones; each chunk of the finest is walked on every level, the coarser ones
    from its summed increments (:func:`_coarse`), so ``sim`` must be an Euler one."""
    ctxs = [_SimContext(econ, replace(sim, steps_per_year=sim.steps_per_year * 2**level), horizon)
            for level in range(doublings + 1)]
    _require_nested_grid(ctxs[-1].n_steps, doublings)
    sums, n = np.zeros(len(ctxs)), 0
    for chunk in _iter_chunks(ctxs[-1]):
        for level, ctx in enumerate(ctxs):
            factor = 2 ** (doublings - level)
            lv = chunk if factor == 1 else _coarse(ctx, chunk.dW, factor)
            sums[level] += float(_walk_rows(lv, [rows])[0].sum())
        n += chunk.m
        del chunk, lv  # as in _run: only _BLOCKS holds the increments at the next draw
    return sums / n


# ---------------------------------------------------------------------------
# martingale checks


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

    def rows(ch: _Chunk):
        # the last column of log_density_min, and of log_belief_density(i) in
        # law: int sqrt(v) dZ_i is drawn as sqrt(int v dt) G_i (module docstring)
        _need_dw(ch.draw)
        int_v = ch.int_v
        out = np.empty((n_inv + 1, ch.m))
        out[0] = -mpr * ch.int_sqrt_v_dW - 0.5 * mpr**2 * int_v
        int_sqrt_v_dZ = np.sqrt(int_v) * ch._belief_normals()
        out[1:] = -ratios * int_sqrt_v_dZ - 0.5 * ratios**2 * int_v
        return np.exp(out, out=out)

    return _Plan(ctx, lambda ch: _then(ch, rows),
                 lambda acc: [(label, acc.estimate(ctx.sim, j)) for j, label in enumerate(labels)])


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
    halve too and their log-ratio slope is the observed order.  The study
    always runs the Euler scheme, whatever ``sim.scheme`` says: the exact
    scheme has no step bias to measure and no increments to couple.
    """
    if doublings < 2:
        raise ValueError("need at least two doublings to measure an order")
    agg = require_valid(econ)
    sol = solve_closed_form(market_coeffs(agg), max(U, 1e-9))
    exact = bond_price(sol, 0.0, U, agg.vol.v0)
    base = replace(sim, measure="Qmin", scheme="euler")
    means = _level_means(econ, base, U, doublings, _discount)
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
