"""Fixed-seed Monte Carlo golden values.

Every public estimator and pathwise report of ``dynamics`` and ``terminal``
is run at small fixed-seed sizes and compared against
``tests/golden/mc_fixed_seed.json``.  The chunk size sits below the path
count, so chunk merging is exercised.  The comparison is relative at 1e-9:
loose enough for other CPUs and libm builds, tight enough that any change to
the random stream or to the discretization fails by orders of magnitude.
Reports that are pure floating-point roundoff (their exact value is zero)
are compared in absolute terms instead.

To regenerate the file, run this module as a script from the repository
root::

    PYTHONPATH=src python tests/test_mc_golden.py

Do so only when a change alters the random stream or the discretization on
purpose, and record why.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from conftest import heterogeneous_economy
from ivoleq.dynamics import (
    SimConfig,
    foc_order,
    martingale_checks,
    mc_annuity,
    mc_bond_price,
    mc_risk_premium,
    mc_state_mean,
    simulate,
    solve_multipliers,
    verify_budget_martingale,
    verify_clearing,
    verify_foc,
    verify_forward_measure,
    weak_convergence_study,
)
from ivoleq.terminal import verify_terminal_clearing

GOLDEN = Path(__file__).resolve().parent / "golden" / "mc_fixed_seed.json"
RTOL = 1e-9
# entries whose exact value is zero: only their roundoff size is pinned
ROUNDOFF_KEYS = {
    "verify_clearing.max_residual",
    "verify_terminal_clearing.loading_gap",
}
ROUNDOFF_ATOL = 1e-12


def _sim(**over) -> SimConfig:
    # an odd chunk size: paired runs round it down to an even unit
    base = dict(n_paths=600, steps_per_year=48, seed=20, antithetic=False, chunk_size=255)
    base.update(over)
    return SimConfig(**base)


def _est(est) -> list[float]:
    return [est.value, est.standard_error]


def capture() -> dict[str, list[float]]:
    """Run every estimator and report at the golden sizes; flat name -> values."""
    econ = heterogeneous_economy()
    out: dict[str, list[float]] = {}

    for label, sim in (
        ("P_euler", _sim()),
        ("P_euler_antithetic", _sim(antithetic=True)),
        ("P_exact", _sim(scheme="exact")),
        ("Qmin_euler", _sim(measure="Qmin")),
        ("Qmin_exact", _sim(measure="Qmin", scheme="exact")),
        ("QU_euler", _sim(measure="QU", horizon_U=0.5)),
    ):
        b = simulate(econ, sim)
        sums = [float(b.v.sum())]
        if b.dW is not None:
            sums += [float(np.abs(b.dW).sum()), float(np.abs(b.dZ).sum())]
        out[f"simulate.{label}"] = sums

    out["mc_state_mean"] = _est(mc_state_mean(econ, _sim()))
    out["mc_bond_price.euler"] = _est(mc_bond_price(econ, 1.0, _sim()))
    out["mc_bond_price.exact"] = _est(mc_bond_price(econ, 1.0, _sim(scheme="exact")))
    out["mc_bond_price.antithetic"] = _est(mc_bond_price(econ, 1.0, _sim(antithetic=True)))
    out["mc_bond_price.benchmark"] = _est(mc_bond_price(econ, 0.5, _sim(), benchmark=True))
    out["mc_annuity"] = _est(mc_annuity(econ, _sim()))
    for security in ("bond", "annuity"):
        out[f"verify_forward_measure.{security}"] = _est(
            verify_forward_measure(econ, 0.5, _sim(), security=security)
        )
        for label, sim in (("plain", _sim()), ("antithetic", _sim(antithetic=True))):
            rep = mc_risk_premium(econ, 0.5, security, sim)
            out[f"mc_risk_premium.{security}.{label}"] = (
                _est(rep.premium) + [rep.covariance_side] + _est(rep.identity_gap)
            )
    for label, sim in (("plain", _sim()), ("antithetic", _sim(antithetic=True))):
        for name, est in martingale_checks(econ, sim):
            out[f"martingale_checks.{label}.{name}"] = _est(est)
        ms = solve_multipliers(econ, sim)
        out[f"solve_multipliers.{label}"] = (
            list(ms.c0) + list(ms.alpha) + _est(ms.annuity_mc) + [ms.annuity_closed]
        )

    out["verify_clearing.max_residual"] = [verify_clearing(econ, _sim(n_paths=200)).max_residual]
    foc = verify_foc(econ, _sim(n_paths=200), investor=1)
    out["verify_foc"] = [foc.max_insured]
    rep = foc_order(econ, _sim(n_paths=200, steps_per_year=16), doublings=2)
    out["foc_order"] = list(rep.residuals) + [rep.order]
    rep = weak_convergence_study(econ, 0.5, _sim(steps_per_year=8, antithetic=True), doublings=3)
    out["weak_convergence_study"] = list(rep.biases) + list(rep.level_diffs) + [rep.order]
    rep = verify_budget_martingale(
        econ, _sim(n_paths=64, steps_per_year=24), investor=1, inner_paths=32
    )
    out["verify_budget_martingale"] = (
        list(rep.values) + list(rep.standard_errors) + [rep.max_z, rep.wealth_at_zero]
    )
    rep = verify_terminal_clearing(econ, _sim(n_paths=300))
    m = rep.multipliers
    out["verify_terminal_clearing"] = (
        [rep.max_residual, rep.mean_residual, m.deflator_mean] + list(m.intercept) + list(m.alpha)
    )
    out["verify_terminal_clearing.loading_gap"] = [rep.loading_gap]
    return {k: [float(x) for x in v] for k, v in out.items()}


def test_matches_golden():
    golden = json.loads(GOLDEN.read_text())
    got = capture()
    assert sorted(got) == sorted(golden)
    moved = []
    for key, want in golden.items():
        rtol, atol = (0.0, ROUNDOFF_ATOL) if key in ROUNDOFF_KEYS else (RTOL, 0.0)
        if len(got[key]) != len(want) or not np.allclose(got[key], want, rtol=rtol, atol=atol):
            moved.append(f"{key}: got {got[key]}, golden {want}")
    assert not moved, "\n".join(moved)


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(capture(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
