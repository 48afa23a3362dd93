"""Shared fixtures: reference economies and random valid economy draws."""

from __future__ import annotations

import numpy as np
import pytest

from ivoleq.model import (
    EconomyParams,
    InvestorParams,
    TwoGroupLimit,
    VolParams,
    derive_aggregates,
    replicate_investor,
    validate,
)
from ivoleq.riccati import (
    RiccatiExplosionError,
    market_coeffs,
    rep_agent_coeffs,
    solve_closed_form,
)

REFERENCE_VOL = VolParams(mu_v=0.05, kappa_v=-0.7, sigma_v=-0.3, v0=1.0)
REFERENCE_INVESTOR = InvestorParams(tau=0.5, sigma_Y=0.3, beta_Y=0.2)


def reference_economy(n: int = 2) -> EconomyParams:
    """The homogeneous benchmark economy used throughout the docs."""
    return EconomyParams(
        vol=REFERENCE_VOL,
        horizon=1.0,
        investors=replicate_investor(REFERENCE_INVESTOR, n),
    )


def heterogeneous_economy() -> EconomyParams:
    """A two-investor economy exercising every parameter field."""
    return EconomyParams(
        vol=REFERENCE_VOL,
        horizon=1.0,
        investors=(
            InvestorParams(
                tau=0.5, sigma_Y=0.3, beta_Y=0.1, X0=0.2, Y0=1.0, mu_Y=0.1, kappa_Y=0.05
            ),
            InvestorParams(tau=1 / 3, sigma_Y=0.2, beta_Y=0.4, X0=-0.2, Y0=-0.5),
        ),
    )


def limit_as_finite(
    vol: VolParams, horizon: float, lim: TwoGroupLimit, n: int
) -> EconomyParams:
    """A finite replicated stand-in for a two-group limit economy.

    Group populations are ``round(w * n)`` and the rest; ``w`` should be a
    multiple of ``1 / n`` for the stand-in to be exact.  It cross-checks
    :func:`ivoleq.model.limit_aggregates`.
    """
    n_a = round(lim.w * n)
    inv_a = InvestorParams(
        tau=lim.group_a.tau,
        mu_Y=lim.group_a.mu_Y,
        kappa_Y=lim.group_a.kappa_Y,
        sigma_Y=lim.group_a.sigma_Y,
        beta_Y=lim.group_a.beta_Y,
    )
    inv_b = InvestorParams(
        tau=lim.group_b.tau,
        mu_Y=lim.group_b.mu_Y,
        kappa_Y=lim.group_b.kappa_Y,
        sigma_Y=lim.group_b.sigma_Y,
        beta_Y=lim.group_b.beta_Y,
    )
    investors = (inv_a,) * n_a + (inv_b,) * (n - n_a)
    return EconomyParams(vol=vol, horizon=horizon, investors=investors)


@pytest.fixture
def econ2() -> EconomyParams:
    return reference_economy(2)


@pytest.fixture
def econ_mixed() -> EconomyParams:
    return heterogeneous_economy()


def draw_valid_economy(
    rng: np.random.Generator,
    horizon: float = 1.0,
    require_negative_vol_of_vol: bool = False,
    with_wealth: bool = False,
) -> EconomyParams:
    """Rejection-sample an economy that passes validation and never explodes.

    Both slope exponents must stay finite over the horizon so every draw is
    usable by pricing and simulation checks alike.
    """
    while True:
        sign = -1.0 if require_negative_vol_of_vol else rng.choice([-1.0, 1.0])
        sigma_v = sign * rng.uniform(0.05, 0.4)
        mu_v = rng.uniform(0.5 * sigma_v**2 + 0.01, 0.4)
        vol = VolParams(
            mu_v=mu_v,
            kappa_v=rng.uniform(-1.0, 0.3),
            sigma_v=sigma_v,
            v0=rng.uniform(0.3, 2.0),
        )
        n = int(rng.integers(1, 5))
        x0 = rng.uniform(-0.5, 0.5, size=n)
        x0 -= x0.mean()
        investors = tuple(
            InvestorParams(
                tau=rng.uniform(0.3, 1.5),
                sigma_Y=rng.uniform(0.0, 0.5),
                beta_Y=rng.uniform(0.0, 0.5),
                kappa_Y=rng.uniform(-0.3, 0.3) if with_wealth else 0.0,
                mu_Y=rng.uniform(-0.2, 0.2) if with_wealth else 0.0,
                Y0=rng.uniform(-1.0, 1.0) if with_wealth else 0.0,
                X0=float(x0[k]) if with_wealth else 0.0,
            )
            for k in range(n)
        )
        econ = EconomyParams(vol=vol, horizon=horizon, investors=investors)
        if not validate(econ).passed:
            continue
        agg = derive_aggregates(econ)
        try:
            solve_closed_form(market_coeffs(agg), horizon)
            solve_closed_form(rep_agent_coeffs(agg), horizon)
        except (RiccatiExplosionError, ValueError):
            continue
        return econ
