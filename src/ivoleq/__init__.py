"""Equilibrium pricing under partially insurable income with square-root variance.

The package computes the closed-form equilibrium of an exchange economy in
which income variance follows a square-root diffusion and each investor can
hedge only part of their income risk.  It exposes:

* parameter containers, aggregation and assumption checks (:mod:`ivoleq.model`),
* the exponential-affine term-structure exponents (:mod:`ivoleq.riccati`),
* spot rates, bond/annuity pricing and price-of-risk curves
  (:mod:`ivoleq.equilibrium`),
* Monte Carlo simulation and verification of the equilibrium identities
  (:mod:`ivoleq.dynamics`),
* the terminal-consumption variant (:mod:`ivoleq.terminal`),
* a command line front end (:mod:`ivoleq.cli`).
"""

from ivoleq.model import (
    AggregateParams,
    EconomyParams,
    GroupSpec,
    InvalidEconomyError,
    InvestorParams,
    TwoGroupLimit,
    ValidationReport,
    VolParams,
    aggregates_from_arrays,
    derive_aggregates,
    limit_aggregates,
    replicate_investor,
    require_valid,
    validate,
)
from ivoleq.config import ConfigError, load_config
from ivoleq.dynamics import (
    McEstimate,
    SimConfig,
    mc_annuity,
    mc_bond_price,
    simulate,
    solve_multipliers,
    verify_clearing,
    verify_foc,
    verify_forward_measure,
)
from ivoleq.equilibrium import (
    annuity_price,
    annuity_vol,
    bond_price,
    discrete_mpr,
    discrete_mpr_gap,
    mpr_instantaneous,
    optimal_consumption_coeffs,
    spot_rate,
    spot_rate_rep,
    term_structure,
)
from ivoleq.riccati import (
    RiccatiExplosionError,
    RiccatiSolution,
    solve_closed_form,
    solve_numerical,
    solve_pair,
)
from ivoleq.terminal import terminal_equilibrium, terminal_mpr, verify_terminal_clearing

__version__ = "0.1.0"

__all__ = [
    "AggregateParams",
    "ConfigError",
    "EconomyParams",
    "GroupSpec",
    "InvalidEconomyError",
    "InvestorParams",
    "McEstimate",
    "RiccatiExplosionError",
    "RiccatiSolution",
    "SimConfig",
    "TwoGroupLimit",
    "ValidationReport",
    "VolParams",
    "aggregates_from_arrays",
    "annuity_price",
    "annuity_vol",
    "bond_price",
    "derive_aggregates",
    "discrete_mpr",
    "discrete_mpr_gap",
    "limit_aggregates",
    "load_config",
    "mc_annuity",
    "mc_bond_price",
    "mpr_instantaneous",
    "optimal_consumption_coeffs",
    "replicate_investor",
    "require_valid",
    "simulate",
    "solve_closed_form",
    "solve_multipliers",
    "solve_numerical",
    "solve_pair",
    "spot_rate",
    "spot_rate_rep",
    "term_structure",
    "terminal_equilibrium",
    "terminal_mpr",
    "validate",
    "verify_clearing",
    "verify_foc",
    "verify_forward_measure",
    "verify_terminal_clearing",
    "__version__",
]
