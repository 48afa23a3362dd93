"""Economy primitives: parameters, aggregation and assumption checks.

Two populations are supported.  A finite economy lists its investors
explicitly and is aggregated with :func:`derive_aggregates`.  A two-group
economy with infinitely many investors is described by :class:`TwoGroupLimit`
and aggregated with :func:`limit_aggregates`; in that case the stored sums are
per capita and the pure ``sum of squared beta`` statistic vanishes relative to
the squared population size, which is encoded by ``beta_sq_total = 0``.

All downstream formulas read the economy only through
:class:`AggregateParams`, so both populations share one code path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import fsum
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "VolParams",
    "InvestorParams",
    "EconomyParams",
    "AggregateParams",
    "GroupSpec",
    "TwoGroupLimit",
    "CheckResult",
    "ValidationReport",
    "InvalidEconomyError",
    "derive_aggregates",
    "aggregates_from_arrays",
    "limit_aggregates",
    "validate",
    "replicate_investor",
]

# Tolerance for the zero-net-supply check on initial wealth.
_NET_SUPPLY_TOL = 1e-9


@dataclass(frozen=True)
class VolParams:
    """Square-root diffusion parameters for the common variance state.

    The state follows ``dv = (mu_v + kappa_v v) dt + sigma_v sqrt(v) dW``
    with ``v0 > 0``.  ``kappa_v < 0`` gives mean reversion.  Positivity of
    the state requires the boundary condition ``mu_v >= sigma_v**2 / 2 > 0``
    (checked by :func:`validate`, not enforced here).
    """

    mu_v: float
    kappa_v: float
    sigma_v: float
    v0: float

    def __post_init__(self) -> None:
        if not self.v0 > 0.0:
            raise ValueError(f"v0 must be positive, got {self.v0}")

    @property
    def feller_margin(self) -> float:
        """Slack in the positivity condition; nonnegative when it holds."""
        return self.mu_v - 0.5 * self.sigma_v**2


@dataclass(frozen=True)
class InvestorParams:
    """One investor: risk tolerance, income dynamics and endowments.

    Income follows
    ``dY = (mu_Y + kappa_Y v) dt + sqrt(v) (sigma_Y dW + beta_Y dZ)``
    where ``W`` drives the traded annuity and ``Z`` is an idiosyncratic
    Brownian motion no security spans.  ``sigma_Y`` and ``beta_Y`` must be
    nonnegative.  ``X0`` is the initial wealth in the traded account.
    """

    tau: float
    mu_Y: float = 0.0
    kappa_Y: float = 0.0
    sigma_Y: float = 0.0
    beta_Y: float = 0.0
    Y0: float = 0.0
    X0: float = 0.0

    def __post_init__(self) -> None:
        if not self.tau > 0.0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        if self.sigma_Y < 0.0 or self.beta_Y < 0.0:
            raise ValueError("sigma_Y and beta_Y must be nonnegative")


@dataclass(frozen=True)
class EconomyParams:
    """A finite economy: variance parameters, horizon and investor list."""

    vol: VolParams
    horizon: float
    investors: tuple[InvestorParams, ...]

    def __post_init__(self) -> None:
        if not self.horizon > 0.0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        if len(self.investors) == 0:
            raise ValueError("economy needs at least one investor")
        object.__setattr__(self, "investors", tuple(self.investors))

    @property
    def n_investors(self) -> int:
        return len(self.investors)


@dataclass(frozen=True)
class GroupSpec:
    """Per-capita parameters of one investor group in the large-population limit."""

    tau: float
    beta_Y: float
    sigma_Y: float = 0.0
    kappa_Y: float = 0.0
    mu_Y: float = 0.0

    def __post_init__(self) -> None:
        if not self.tau > 0.0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        if self.sigma_Y < 0.0 or self.beta_Y < 0.0:
            raise ValueError("sigma_Y and beta_Y must be nonnegative")


@dataclass(frozen=True)
class TwoGroupLimit:
    """Two investor groups with population shares ``w`` and ``1 - w``."""

    w: float
    group_a: GroupSpec
    group_b: GroupSpec

    def __post_init__(self) -> None:
        if not 0.0 <= self.w <= 1.0:
            raise ValueError(f"group share w must lie in [0, 1], got {self.w}")


@dataclass(frozen=True)
class AggregateParams:
    """Economy-wide sums plus the coefficients every pricing formula needs.

    For a finite economy the ``*_total`` fields are plain sums over
    investors.  For a :class:`TwoGroupLimit` they are per-capita averages and
    ``beta_sq_total`` is exactly zero; all derived coefficients below are
    invariant under that normalization, which is why one container serves
    both cases.
    """

    vol: VolParams
    horizon: float
    tau_total: float
    sigma_total: float
    kappa_total: float
    mu_total: float
    beta_sq_over_tau: float
    beta_sq_total: float

    # -- price of risk -------------------------------------------------

    @property
    def mpr_loading(self) -> float:
        """Price of risk carried by the traded shock, per unit sqrt(v)."""
        return self.sigma_total / self.tau_total

    @property
    def beta_dispersion(self) -> float:
        """Tolerance-weighted dispersion of unspanned income loadings.

        Nonnegative by the Cauchy-Schwarz inequality; zero only when every
        investor's ``beta_Y**2`` is proportional to their tolerance share.
        Half of it, times v, is the spot-rate gap to the full-insurance
        benchmark.
        """
        return (
            self.beta_sq_over_tau / self.tau_total
            - self.beta_sq_total / self.tau_total**2
        )

    # -- affine spot rate ----------------------------------------------

    @property
    def rate_intercept(self) -> float:
        return self.mu_total / self.tau_total

    @property
    def rate_slope(self) -> float:
        return (
            self.kappa_total
            - 0.5 * self.beta_sq_over_tau
            - self.sigma_total**2 / (2.0 * self.tau_total)
        ) / self.tau_total

    @property
    def rate_slope_rep(self) -> float:
        """Slope of the full-insurance (representative agent) spot rate."""
        return (
            self.kappa_total
            - (self.beta_sq_total + self.sigma_total**2) / (2.0 * self.tau_total)
        ) / self.tau_total

    # -- term-structure exponent ODE coefficients ----------------------
    #
    # The slope exponent solves a scalar Riccati equation
    #   db/ds = quad * b**2 + linear * b + const,   b(0) = 0,
    # with the constant term depending on whether income insurance is
    # partial (market) or full (benchmark).

    @property
    def ode_quad(self) -> float:
        return 0.5 * self.vol.sigma_v**2

    @property
    def ode_linear(self) -> float:
        return self.vol.kappa_v - self.mpr_loading * self.vol.sigma_v

    @property
    def ode_const(self) -> float:
        return (
            0.5 * self.beta_sq_over_tau
            + self.sigma_total**2 / (2.0 * self.tau_total)
            - self.kappa_total
        ) / self.tau_total

    @property
    def ode_const_rep(self) -> float:
        return (
            0.5 * self.beta_sq_total / self.tau_total
            + self.sigma_total**2 / (2.0 * self.tau_total)
            - self.kappa_total
        ) / self.tau_total

    @property
    def discriminant(self) -> float:
        return self.ode_linear**2 - 4.0 * self.ode_quad * self.ode_const

    @property
    def level_drift(self) -> float:
        """Maturity derivative of the level exponent at b = 0."""
        return self.mu_total / self.tau_total

    # -- conditions -----------------------------------------------------

    @property
    def rate_bounded_below(self) -> bool:
        """True when the slope exponent is negative and rates stay bounded.

        Equivalent to a negative constant term in the exponent ODE.  In the
        empirically relevant calibrations this is False: the slope exponent
        is then positive and bond prices increase in v.
        """
        return self.ode_const < 0.0


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the model assumption checks.

    ``checks`` gate downstream computations; ``info`` entries are
    informational only and never fail the report.
    """

    checks: tuple[CheckResult, ...]
    info: tuple[CheckResult, ...]
    aggregates: AggregateParams

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self) -> list[str]:
        out = []
        for c in self.checks:
            out.append(f"[{'pass' if c.passed else 'FAIL'}] {c.name}: {c.detail}")
        for c in self.info:
            out.append(f"[info] {c.name}: {c.detail}")
        return out


def aggregates_from_arrays(
    vol: VolParams,
    horizon: float,
    tau: Iterable[float],
    sigma_Y: Iterable[float],
    kappa_Y: Iterable[float],
    mu_Y: Iterable[float],
    beta_Y: Iterable[float],
) -> AggregateParams:
    """Aggregate parallel per-investor arrays.

    Sums use compensated summation, so the result is independent of investor
    order down to the last bit.  This is the fast path for replicated
    economies where building a million parameter objects would be wasteful.
    """
    tau = [float(x) for x in tau]
    beta = [float(x) for x in beta_Y]
    if len(tau) != len(beta):
        raise ValueError("tau and beta_Y must have equal length")
    return AggregateParams(
        vol=vol,
        horizon=horizon,
        tau_total=fsum(tau),
        sigma_total=fsum(float(x) for x in sigma_Y),
        kappa_total=fsum(float(x) for x in kappa_Y),
        mu_total=fsum(float(x) for x in mu_Y),
        beta_sq_over_tau=fsum(b * b / t for b, t in zip(beta, tau)),
        beta_sq_total=fsum(b * b for b in beta),
    )


def derive_aggregates(econ: EconomyParams) -> AggregateParams:
    """Aggregate a finite economy."""
    inv = econ.investors
    return aggregates_from_arrays(
        econ.vol,
        econ.horizon,
        (i.tau for i in inv),
        (i.sigma_Y for i in inv),
        (i.kappa_Y for i in inv),
        (i.mu_Y for i in inv),
        (i.beta_Y for i in inv),
    )


def limit_aggregates(
    vol: VolParams, horizon: float, lim: TwoGroupLimit
) -> AggregateParams:
    """Aggregate a two-group economy with infinitely many investors.

    Stored sums are per capita.  ``beta_sq_over_tau`` keeps a finite
    per-capita value while ``beta_sq_total`` enters every formula divided by
    an extra factor of total tolerance and therefore vanishes; it is stored
    as exactly zero.  Cross-checked in the tests against
    :func:`derive_aggregates` on a large replicated economy.
    """
    w = lim.w
    a, b = lim.group_a, lim.group_b
    return AggregateParams(
        vol=vol,
        horizon=horizon,
        tau_total=w * a.tau + (1.0 - w) * b.tau,
        sigma_total=w * a.sigma_Y + (1.0 - w) * b.sigma_Y,
        kappa_total=w * a.kappa_Y + (1.0 - w) * b.kappa_Y,
        mu_total=w * a.mu_Y + (1.0 - w) * b.mu_Y,
        beta_sq_over_tau=w * a.beta_Y**2 / a.tau + (1.0 - w) * b.beta_Y**2 / b.tau,
        beta_sq_total=0.0,
    )


def replicate_investor(template: InvestorParams, n: int) -> tuple[InvestorParams, ...]:
    """Expand a template into ``n`` identical investors with zero wealth."""
    if n < 1:
        raise ValueError(f"replicate count must be >= 1, got {n}")
    if template.X0 != 0.0:
        raise ValueError("replicated investors must start with X0 = 0")
    return (template,) * n


def validate(econ: EconomyParams) -> ValidationReport:
    """Check the model assumptions; report, never raise.

    Gating checks: state positivity (``mu_v >= sigma_v**2 / 2 > 0``),
    market and full-insurance exponents that stay finite over the horizon,
    and zero net supply of initial wealth.  The finiteness check also fails
    when the exponents do not evaluate to finite numbers at the horizon, and
    it reports the explosion margin: the earliest explosion time minus the
    horizon, or "none" when neither exponent explodes.  The sign of the ODE constant
    term, which decides whether the spot rate is bounded below, is reported
    as information only.
    """
    agg = derive_aggregates(econ)
    vol = econ.vol

    checks: list[CheckResult] = []

    margin = vol.feller_margin
    feller_ok = vol.sigma_v != 0.0 and margin >= 0.0
    checks.append(
        CheckResult(
            "state_positivity",
            feller_ok,
            f"mu_v - sigma_v^2/2 = {margin:.6g} (needs >= 0 with sigma_v != 0)",
        )
    )

    from ivoleq.riccati import RiccatiExplosionError, solve_pair  # riccati imports this module

    horizon = econ.horizon
    try:
        pair = solve_pair(agg)
    except RiccatiExplosionError as exc:
        finite, detail = False, f"{exc}; explosion margin {exc.explosion_time - horizon:.6g}"
    except ValueError as exc:
        finite, detail = False, str(exc)
    else:
        # a zero constant term with a large linear term * horizon underflows
        # w, the one case where the span is clear of explosions yet the
        # exponents do not evaluate; the horizon is where w is smallest
        with np.errstate(divide="ignore", invalid="ignore"):
            ends = [(sol.eval_b(horizon), sol.eval_a(horizon)) for sol in pair]
        times = [sol.explosion_time for sol in pair if sol.explosion_time is not None]
        margin = f"{min(times) - horizon:.6g}" if times else "none"
        finite = all(math.isfinite(v) for end in ends for v in end)
        detail = (
            f"both exponents finite on [0, {horizon:.6g}]; explosion margin {margin}"
            if finite
            else "exponents not representable at the horizon: (b, a) = "
            + ", ".join(f"({b:.6g}, {a:.6g})" for b, a in ends)
        )
    checks.append(CheckResult("exponents_finite_on_horizon", finite, detail))

    net = fsum(i.X0 for i in econ.investors)
    scale = max(1.0, max(abs(i.X0) for i in econ.investors))
    checks.append(
        CheckResult(
            "zero_net_supply",
            abs(net) <= _NET_SUPPLY_TOL * scale,
            f"sum of X0 = {net:.6g}",
        )
    )

    info = (
        CheckResult(
            "rate_bounded_below",
            agg.rate_bounded_below,
            "slope exponent negative, spot rate bounded below"
            if agg.rate_bounded_below
            else "slope exponent positive, bond prices increase in v",
        ),
    )
    return ValidationReport(checks=tuple(checks), info=info, aggregates=agg)


class InvalidEconomyError(ValueError):
    """The economy fails a gating check of :func:`validate`."""


def require_valid(econ: EconomyParams) -> AggregateParams:
    """Validate and return aggregates, raising if any gating check fails."""
    report = validate(econ)
    if not report.passed:
        failed = ", ".join(c.name for c in report.checks if not c.passed)
        raise InvalidEconomyError(f"economy fails validation checks: {failed}")
    return report.aggregates

