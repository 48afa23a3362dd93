"""Term-structure exponents: closed forms and a fixed-step integrator.

Bond prices are exponential-affine in the variance state,
``price = exp(b(s) v - a(s))`` with time to maturity ``s``.  The slope
exponent solves a scalar Riccati equation

    db/ds = quad * b**2 + linear * b + const,    b(0) = 0,

and the level exponent integrates ``da/ds = level_drift - b(s) * mu_v``.

The substitution ``b = -u' / (quad * u)`` linearizes the equation.  With
``x = s / 2``, ``C = cosh(sqrt(disc) x)`` and
``S = sinh(sqrt(disc) x) / (sqrt(disc) x)`` its solution is
``u(s) = exp(linear x) w(s)`` with ``w = C - linear x S``, giving

    b(s)       = const s S / w
    int_0^s b  = -(linear x + log w) / quad

``C`` and ``S`` are entire in the discriminant: below zero they are
``cos`` and ``sin(t) / t`` of ``t = sqrt(-disc) x``, and at zero both equal
1, so one expression covers every sign.  Only ``C`` and
``x S = sinh(sqrt(disc) x) / sqrt(disc)`` are evaluated, the latter
divided by the scalar root (``x`` itself at zero).  Above zero both are
taken over ``exp(sqrt(disc) x)``, which keeps large ``disc * s`` finite.
For ``linear > 0`` the difference ``w`` cancels, so it is evaluated as
``(C**2 - linear**2 x**2 S**2) / (C + linear x S)`` instead.

The solution explodes at the first zero of ``w``: always when the
discriminant is negative, and otherwise only when ``linear > sqrt(disc)``,
which needs a positive constant term with a destabilizing linear term.
Both solvers report the explosion time.

The closed form is the production path; :func:`solve_numerical` is the
independent check (classic fourth-order Runge-Kutta, fixed step, cubic
Hermite dense output).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from ivoleq.model import AggregateParams

__all__ = [
    "RiccatiCoeffs",
    "RiccatiSolution",
    "RiccatiExplosionError",
    "market_coeffs",
    "rep_agent_coeffs",
    "solve_closed_form",
    "solve_numerical",
    "solve_pair",
    "constant_rate_solution",
]

_DOMAIN_SLACK = 1e-9


class RiccatiExplosionError(RuntimeError):
    """The slope exponent blows up inside the requested span."""

    def __init__(self, message: str, explosion_time: float):
        super().__init__(message)
        self.explosion_time = explosion_time


@dataclass(frozen=True)
class RiccatiCoeffs:
    """Coefficients of the slope equation and the level integrand."""

    const_term: float
    linear_term: float
    quad_term: float
    level_drift: float
    mu_v: float

    @property
    def discriminant(self) -> float:
        return self.linear_term**2 - 4.0 * self.quad_term * self.const_term

    def slope_rhs(self, b: float) -> float:
        """Right-hand side of the slope equation."""
        return (self.quad_term * b + self.linear_term) * b + self.const_term


def market_coeffs(agg: AggregateParams) -> RiccatiCoeffs:
    """Exponent coefficients for the partial-insurance market equilibrium."""
    return RiccatiCoeffs(
        const_term=agg.ode_const,
        linear_term=agg.ode_linear,
        quad_term=agg.ode_quad,
        level_drift=agg.level_drift,
        mu_v=agg.vol.mu_v,
    )


def rep_agent_coeffs(agg: AggregateParams) -> RiccatiCoeffs:
    """Exponent coefficients for the full-insurance benchmark.

    Only the constant term changes relative to :func:`market_coeffs`; it is
    smaller by half the ``beta_dispersion`` statistic, which is what drives
    every wedge between the two term structures.
    """
    return RiccatiCoeffs(
        const_term=agg.ode_const_rep,
        linear_term=agg.ode_linear,
        quad_term=agg.ode_quad,
        level_drift=agg.level_drift,
        mu_v=agg.vol.mu_v,
    )


class RiccatiSolution:
    """Evaluatable pair of exponents on ``[0, horizon]``.

    ``eval_b`` and ``eval_a`` accept scalars or arrays of times to maturity
    and vectorize over arrays.  Evaluation outside the solved span raises,
    as does evaluation at or past a recorded explosion time.
    """

    def __init__(self, coeffs, method, horizon, explosion_time, b_fn, a_fn):
        self.coeffs = coeffs
        self.method = method
        self.horizon = float(horizon)
        self.explosion_time = explosion_time
        self._b_fn = b_fn
        self._a_fn = a_fn

    def __repr__(self) -> str:
        return (
            f"RiccatiSolution(method={self.method!r}, horizon={self.horizon!r}, "
            f"explosion_time={self.explosion_time!r})"
        )

    def _checked(self, s) -> NDArray[np.float64]:
        arr = np.asarray(s, dtype=float)
        if arr.size and (arr.min() < -_DOMAIN_SLACK or arr.max() > self.horizon + _DOMAIN_SLACK):
            raise ValueError(
                f"maturity outside solved span [0, {self.horizon}]: "
                f"requested [{arr.min()}, {arr.max()}]"
            )
        return np.clip(arr, 0.0, self.horizon)

    def eval_b(self, s):
        arr = self._checked(s)
        out = self._b_fn(arr)
        return float(out) if np.isscalar(s) or np.ndim(s) == 0 else out

    def eval_a(self, s):
        arr = self._checked(s)
        out = self._a_fn(arr)
        return float(out) if np.isscalar(s) or np.ndim(s) == 0 else out


def _explosion_time(c1: float, disc: float) -> float | None:
    """First positive zero of ``w(s) = C - c1 x S``, or None if there is none."""
    if disc < 0.0:
        om = math.sqrt(-disc)
        return 2.0 / om * math.atan2(om, c1)
    lam = math.sqrt(disc)
    if c1 <= lam:
        return None
    # tanh(lam s / 2) = lam / c1, whose limit at lam = 0 is s = 2 / c1
    return 2.0 / c1 if lam == 0.0 else math.atanh(lam / c1) * 2.0 / lam


def solve_closed_form(coeffs: RiccatiCoeffs, horizon: float) -> RiccatiSolution:
    """Closed-form exponents on ``[0, horizon]``.

    Raises :class:`RiccatiExplosionError` when the solution blows up at or
    before ``horizon``.
    """
    if not horizon > 0.0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    if coeffs.quad_term <= 0.0:
        raise ValueError("quad_term must be positive (vol-of-vol nonzero)")

    c0, c1, c2 = coeffs.const_term, coeffs.linear_term, coeffs.quad_term
    drift, mu_v = coeffs.level_drift, coeffs.mu_v
    disc = coeffs.discriminant

    explosion = _explosion_time(c1, disc)
    if explosion is not None and explosion <= horizon:
        raise RiccatiExplosionError(
            f"slope exponent explodes at s = {explosion:.6g} <= horizon {horizon}",
            explosion,
        )
    root = math.sqrt(abs(disc))

    def parts(s):
        """``x = s / 2``; ``x S`` and ``w`` over ``exp(log_scale)``; ``log_scale``."""
        x = 0.5 * s
        y = root * x
        if disc < 0.0:
            log_scale, unit, big_c, xs = 0.0, 1.0, np.cos(y), np.sin(y) / root
        elif disc > 0.0:
            # cosh and sinh over exp(y), so a large disc * s cannot overflow
            t = -2.0 * y
            log_scale, unit = y, np.exp(t)
            big_c, xs = 0.5 * (1.0 + unit), np.expm1(t) / (-2.0 * root)
        else:
            log_scale, unit, big_c, xs = 0.0, 1.0, 1.0, x
        if c1 > 0.0:
            # C - c1 x S cancels; divide C^2 - c1^2 x^2 S^2, which is
            # unit - 4 c2 c0 x^2 S^2, by the conjugate C + c1 x S instead
            return x, xs, (unit - 4.0 * c2 * c0 * xs * xs) / (big_c + c1 * xs), log_scale
        return x, xs, big_c - c1 * xs, log_scale

    def b_fn(s):
        _, xs, w, _ = parts(s)
        return 2.0 * c0 * xs / w

    def a_fn(s):
        x, _, w, log_scale = parts(s)
        return drift * s + (mu_v / c2) * (c1 * x + log_scale + np.log(w))

    return RiccatiSolution(coeffs, "closed", horizon, explosion, b_fn, a_fn)


def solve_numerical(
    coeffs: RiccatiCoeffs,
    horizon: float,
    step: float = 1e-4,
    dense_resolution: float = 1e-3,
    blowup_threshold: float = 1e8,
) -> RiccatiSolution:
    """Integrate both exponents with classic fixed-step fourth-order RK.

    The marcher stores dense-output nodes roughly every ``dense_resolution``
    units of maturity and evaluates between them with cubic Hermite
    interpolation, which keeps the interpolation error far below the
    integrator's own error.  If ``|b|`` crosses ``blowup_threshold`` the
    march stops and the returned solution covers only the span before the
    blow-up, with ``explosion_time`` set.
    """
    if not horizon > 0.0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    if not 0.0 < step <= horizon:
        raise ValueError(f"step must lie in (0, horizon], got {step}")

    n_steps = max(1, math.ceil(horizon / step))
    h = horizon / n_steps
    record_every = max(1, round(dense_resolution / h))

    c0, c1, c2 = coeffs.const_term, coeffs.linear_term, coeffs.quad_term
    drift, mu_v = coeffs.level_drift, coeffs.mu_v

    def f(b: float) -> float:
        return (c2 * b + c1) * b + c0

    s_nodes = [0.0]
    b_nodes = [0.0]
    a_nodes = [0.0]

    b = 0.0
    a = 0.0
    explosion_time = None
    for i in range(n_steps):
        k1 = f(b)
        g1 = drift - b * mu_v
        b2 = b + 0.5 * h * k1
        k2 = f(b2)
        g2 = drift - b2 * mu_v
        b3 = b + 0.5 * h * k2
        k3 = f(b3)
        g3 = drift - b3 * mu_v
        b4 = b + h * k3
        k4 = f(b4)
        g4 = drift - b4 * mu_v
        b = b + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        a = a + h / 6.0 * (g1 + 2.0 * g2 + 2.0 * g3 + g4)
        s = (i + 1) * h
        if not math.isfinite(b) or abs(b) > blowup_threshold:
            explosion_time = s
            break
        if (i + 1) % record_every == 0 or i + 1 == n_steps:
            s_nodes.append(s)
            b_nodes.append(b)
            a_nodes.append(a)

    s_arr = np.asarray(s_nodes)
    b_arr = np.asarray(b_nodes)
    a_arr = np.asarray(a_nodes)
    db_arr = (c2 * b_arr + c1) * b_arr + c0
    da_arr = drift - b_arr * mu_v
    solved_span = float(s_arr[-1])

    def hermite(s, values, slopes):
        idx = np.clip(np.searchsorted(s_arr, s, side="right") - 1, 0, len(s_arr) - 2)
        s0, s1 = s_arr[idx], s_arr[idx + 1]
        width = s1 - s0
        t = np.where(width > 0.0, (s - s0) / np.where(width > 0.0, width, 1.0), 0.0)
        t2 = t * t
        t3 = t2 * t
        return (
            (2.0 * t3 - 3.0 * t2 + 1.0) * values[idx]
            + (t3 - 2.0 * t2 + t) * width * slopes[idx]
            + (-2.0 * t3 + 3.0 * t2) * values[idx + 1]
            + (t3 - t2) * width * slopes[idx + 1]
        )

    return RiccatiSolution(
        coeffs,
        "rk4",
        solved_span,
        explosion_time,
        lambda s: hermite(s, b_arr, db_arr),
        lambda s: hermite(s, a_arr, da_arr),
    )


def solve_pair(
    agg: AggregateParams, horizon: float | None = None
) -> tuple[RiccatiSolution, RiccatiSolution]:
    """Closed-form market and full-insurance solutions over one span."""
    span = agg.horizon if horizon is None else horizon
    return (
        solve_closed_form(market_coeffs(agg), span),
        solve_closed_form(rep_agent_coeffs(agg), span),
    )


def constant_rate_solution(rate: float, horizon: float) -> RiccatiSolution:
    """Degenerate solution with zero slope and a constant spot rate.

    Gives ``price = exp(-rate * s)``; used as an elementary cross-check for
    the quadrature-based annuity pricer.
    """
    coeffs = RiccatiCoeffs(
        const_term=0.0, linear_term=0.0, quad_term=1.0, level_drift=rate, mu_v=0.0
    )
    return solve_closed_form(coeffs, horizon)
