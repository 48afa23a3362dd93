"""Inputs, passes and correctness gates of the three benchmark workloads.

Every workload is split the same way: ``prepare_*`` draws the inputs from
the workload seed and writes any config files (never timed), and the
returned object's ``run_pass`` does one timed pass over those inputs and
returns the checks it made.  The library only ever sees generated inputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

# Library functions are called through their modules, so the traced run's
# wrappers (installed on module attributes) see the benchmark's own calls.
from ivoleq import cli, config, dynamics, equilibrium, model, riccati, terminal
from ivoleq.dynamics import SimConfig
from ivoleq.model import AggregateParams, EconomyParams, InvestorParams, VolParams
from ivoleq.riccati import RiccatiExplosionError

Z_LIMIT = 3.0  # every z-check must satisfy |z| <= 3
LOADING_TOL = 1e-10
CLEARING_TOL = 1e-10
NUMERICAL_TOL = 1e-8

# fixed shape of the sweep
LARGE_SHARE = 0.02  # share of economies with a large population
SMALL_INVESTORS = (1, 8)
INVESTOR_TYPES = 64  # pool the large populations are drawn from
GRID_POINTS = 13
LOADING_DATES = 3


@dataclass(frozen=True)
class Sizes:
    """Resolved input sizes; the defaults are what the benchmark runs."""

    economies: int = 200
    large_investors: tuple[int, int] = (20_000, 100_000)
    spot_paths: int = 2048
    numerical_sample: int = 6
    verify_paths: int | None = None  # None: the CLI's own defaults
    many_investors: int = 16
    many_paths: int = 4096
    setup_probes: int = 9
    chunk_paths: int = 8192
    chunk_reps: int = 3


@dataclass
class Check:
    name: str
    kind: str  # "z", "max", "golden" or "raised"
    value: float
    threshold: float
    passed: bool
    standard_error: float | None = None


@dataclass
class PassResult:
    checks: list[Check]
    call_ms: list[float] = field(default_factory=list)  # top-level library calls


def timed(call_ms: list[float], fn, *args):
    """Call ``fn`` and append its latency in ms to ``call_ms``."""
    t0 = time.perf_counter()
    out = fn(*args)
    call_ms.append((time.perf_counter() - t0) * 1e3)
    return out


def z_check(name: str, z: float, standard_error: float) -> Check:
    z = float(z)
    return Check(name, "z", z, Z_LIMIT, bool(abs(z) <= Z_LIMIT), float(standard_error))


def estimate_check(name: str, est, target: float) -> Check:
    return z_check(name, est.z(target), est.standard_error)


def max_check(name: str, value: float, threshold: float) -> Check:
    value = float(value)
    return Check(name, "max", value, float(threshold), bool(value <= threshold))


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Run the CLI in-process and return its exit code and captured stdout."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def golden_checks(out_dir: Path, golden_dir: Path) -> list[Check]:
    """Byte-for-byte comparison of emitted tables with the frozen goldens."""
    checks = []
    for name in ("table1", "table2"):
        produced = out_dir / f"{name}.csv"
        same = produced.is_file() and produced.read_bytes() == (golden_dir / f"{name}.csv").read_bytes()
        checks.append(Check(f"golden_{name}", "golden", 0.0 if same else 1.0, 0.0, same))
    return checks


# ---------------------------------------------------------------------------
# economy draws


def _draw_vol(rng: np.random.Generator) -> VolParams:
    sigma_v = rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 0.4)
    return VolParams(
        mu_v=rng.uniform(0.5 * sigma_v**2 + 0.01, 0.4),
        kappa_v=rng.uniform(-1.0, 0.3),
        sigma_v=sigma_v,
        v0=rng.uniform(0.3, 2.0),
    )


def _draw_investor(rng: np.random.Generator, x0: float = 0.0) -> InvestorParams:
    return InvestorParams(
        tau=rng.uniform(0.3, 1.5),
        sigma_Y=rng.uniform(0.0, 0.5),
        beta_Y=rng.uniform(0.0, 0.5),
        kappa_Y=rng.uniform(-0.3, 0.3),
        mu_Y=rng.uniform(-0.2, 0.2),
        Y0=rng.uniform(-1.0, 1.0),
        X0=x0,
    )


def _solvable(agg: AggregateParams) -> bool:
    try:
        riccati.solve_pair(agg)
    except (RiccatiExplosionError, ValueError):
        return False
    return True


def _draw_small(rng: np.random.Generator, n: int) -> EconomyParams:
    while True:
        vol = _draw_vol(rng)
        x0 = rng.uniform(-0.5, 0.5, size=n)
        x0 -= x0.mean()
        investors = tuple(_draw_investor(rng, float(x)) for x in x0)
        econ = EconomyParams(vol=vol, horizon=rng.uniform(0.5, 2.0), investors=investors)
        report = model.validate(econ)
        if report.passed and _solvable(report.aggregates):
            return econ


def _draw_large(rng: np.random.Generator, n: int) -> EconomyParams:
    """A large population built from a pool of investor types.

    The population tuple repeats references to the types, so it costs
    eight bytes per investor while aggregation still visits every investor.
    Validity is screened on aggregates computed from the type counts, which
    avoids a full validation per rejected draw.
    """
    while True:
        vol = _draw_vol(rng)
        horizon = rng.uniform(0.5, 2.0)
        types = [_draw_investor(rng) for _ in range(INVESTOR_TYPES)]
        pick = rng.integers(0, INVESTOR_TYPES, size=n)
        counts = np.bincount(pick, minlength=INVESTOR_TYPES).astype(float)
        col = lambda key: np.array([getattr(t, key) for t in types])  # noqa: E731
        tau, beta = col("tau"), col("beta_Y")
        agg = AggregateParams(
            vol=vol,
            horizon=horizon,
            tau_total=float(counts @ tau),
            sigma_total=float(counts @ col("sigma_Y")),
            kappa_total=float(counts @ col("kappa_Y")),
            mu_total=float(counts @ col("mu_Y")),
            beta_sq_over_tau=float(counts @ (beta**2 / tau)),
            beta_sq_total=float(counts @ beta**2),
        )
        if agg.discriminant > 0.0 and agg.ode_const != 0.0 and _solvable(agg):
            return EconomyParams(
                vol=vol, horizon=horizon, investors=tuple(types[k] for k in pick)
            )


def _write_config(path: Path, econ: EconomyParams) -> Path:
    """Write an economy in the JSON config format with an explicit investor list."""
    doc = {
        "vol": asdict(econ.vol),
        "horizon_T": econ.horizon,
        "investors": [asdict(i) for i in econ.investors],
    }
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return path


# ---------------------------------------------------------------------------
# closed-form evaluation of one economy


@dataclass(frozen=True)
class EvalInput:
    econ: EconomyParams
    grid: np.ndarray
    dates: tuple[float, ...]


def eval_input(econ: EconomyParams) -> EvalInput:
    T = econ.horizon
    return EvalInput(
        econ,
        np.linspace(0.0, T, GRID_POINTS),
        tuple(T * k / LOADING_DATES for k in range(LOADING_DATES)),
    )


def evaluate(item: EvalInput) -> float:
    """Everything a sweep caller computes for one economy.

    Returns the worst aggregate-wealth loading, which the closed form makes
    vanish identically.
    """
    econ = item.econ
    T, v0 = econ.horizon, econ.vol.v0
    agg = model.require_valid(econ)
    sol, sol_rep = riccati.solve_pair(agg)
    equilibrium.term_structure(agg, 0.0, item.grid)
    equilibrium.annuity_price(sol, 0.0, v0)
    equilibrium.annuity_price(sol_rep, 0.0, v0)
    equilibrium.annuity_vol(sol, agg, 0.0, v0)
    equilibrium.discrete_mpr_gap(agg, T)
    equilibrium.mpr_curve(agg, T, item.grid)
    term = terminal.terminal_equilibrium(agg)
    return max(abs(terminal.wealth_sum_loading(term.riccati, agg, t)) for t in item.dates)


# ---------------------------------------------------------------------------
# workloads


@dataclass
class Prepared:
    """Inputs of one workload plus what the run record needs about them."""

    setup_config: Path
    configs: list[Path]
    sizes_record: dict
    reference: EconomyParams
    run_pass: Callable[[], PassResult]
    offline_checks: Callable[[], list[Check]] | None = None  # run untimed


def prepare_closed_form_sweep(root: Path, work: Path, seed: int, sizes: Sizes) -> Prepared:
    rng = np.random.default_rng([seed, 1])
    n_large = round(sizes.economies * LARGE_SHARE)
    n_small = sizes.economies - n_large
    lo, hi = SMALL_INVESTORS
    # stratified sizes: every seed sweeps the same population sizes in a
    # different order, so the seed moves parameters and not the work
    small_n = np.resize(np.arange(lo, hi + 1), n_small)
    large_n = np.linspace(*sizes.large_investors, n_large).round().astype(int)
    econs = [_draw_small(rng, int(n)) for n in small_n]
    econs += [_draw_large(rng, int(n)) for n in large_n]
    order = rng.permutation(len(econs))
    items = [eval_input(econs[k]) for k in order]

    config_path = root / "configs" / "table1.json"
    reference = config.load_config(config_path)
    golden = root / "tests" / "golden"
    out_dir = work / "tables"
    sim_exact = SimConfig(n_paths=sizes.spot_paths, seed=seed, scheme="exact", antithetic=False)
    sim_euler = SimConfig(n_paths=sizes.spot_paths, seed=seed, antithetic=False)
    ref_agg = model.require_valid(reference)
    ref_sol, _ = riccati.solve_pair(ref_agg)
    ref_bond = equilibrium.bond_price(ref_sol, 0.0, reference.horizon, reference.vol.v0)
    ref_annuity = equilibrium.annuity_price(ref_sol, 0.0, reference.vol.v0)
    sample = [econs[k] for k in rng.choice(n_small, size=min(sizes.numerical_sample, n_small), replace=False)]

    def run_pass() -> PassResult:
        latencies: list[float] = []
        loadings = [timed(latencies, evaluate, item) for item in items]
        checks = [max_check(f"wealth_loading_{k}", g, LOADING_TOL) for k, g in enumerate(loadings)]
        cfg = str(config_path)
        for argv in (
            ["table1", cfg, "--out", str(out_dir)],
            ["table2", cfg, "--out", str(out_dir)],
            ["curves", cfg, "--out", str(out_dir)],
            ["validate", cfg],
        ):
            rc, _ = run_cli(argv)
            checks.append(max_check(f"cli_{argv[0]}_exit", rc, 0))
        checks += golden_checks(out_dir, golden)
        # Monte Carlo spot check of the closed form on the reference economy
        checks.append(estimate_check("spot_bond_exact", dynamics.mc_bond_price(reference, reference.horizon, sim_exact), ref_bond))
        checks.append(estimate_check("spot_annuity_euler", dynamics.mc_annuity(reference, sim_euler), ref_annuity))
        return PassResult(checks, latencies)

    def offline_checks() -> list[Check]:
        return [numerical_check(k, e) for k, e in enumerate(sample)]

    return Prepared(
        setup_config=config_path,
        configs=[config_path, golden / "table1.csv", golden / "table2.csv"],
        sizes_record={
            "economies": sizes.economies,
            "small_economies": n_small,
            "large_economies": n_large,
            "investors_total": int(sum(e.n_investors for e in econs)),
            "investors_max": int(max(e.n_investors for e in econs)),
            "grid_points": GRID_POINTS,
            "loading_dates": LOADING_DATES,
            "spot_paths": sizes.spot_paths,
            "steps_per_year": sim_euler.steps_per_year,
            "chunk_size": sim_euler.chunk_size,
            "numerical_sample": len(sample),
        },
        reference=reference,
        run_pass=run_pass,
        offline_checks=offline_checks,
    )


def numerical_check(k: int, econ: EconomyParams) -> Check:
    """Closed-form exponents against fixed-step RK4 on the horizon grid."""
    agg = model.require_valid(econ)
    closed = riccati.solve_pair(agg)
    grid = np.linspace(0.0, econ.horizon, 201)
    worst = 0.0
    for coeffs, ref in zip((riccati.market_coeffs(agg), riccati.rep_agent_coeffs(agg)), closed):
        num = riccati.solve_numerical(coeffs, econ.horizon, step=1e-4)
        for f_num, f_ref in ((num.eval_b, ref.eval_b), (num.eval_a, ref.eval_a)):
            exact = f_ref(grid)
            err = np.abs(f_num(grid) - exact) / np.maximum(1.0, np.abs(exact))
            worst = max(worst, float(err.max()))
    return max_check(f"closed_vs_numerical_{k}", worst, NUMERICAL_TOL)


def _cli_checks(doc: dict, prefix: str) -> list[Check]:
    """Turn the CLI's JSON check lines into benchmark checks."""
    out = []
    for c in doc["checks"]:
        name = f"{prefix}.{c['name']}"
        if c["standard_error"] is not None:
            out.append(z_check(name, c["value"], c["standard_error"]))
        else:
            out.append(Check(name, "max", float(c["value"]), float(c["threshold"]), bool(c["passed"])))
    return out


def prepare_verify_reference(root: Path, work: Path, seed: int, sizes: Sizes) -> Prepared:
    config_path = root / "configs" / "table1.json"
    reference = config.load_config(config_path)
    size_args = [] if sizes.verify_paths is None else ["--n-paths", str(sizes.verify_paths)]
    verify_argv = ["verify", str(config_path), "--suite", "all", "--format", "json", "--seed", str(seed)]
    terminal_argv = ["terminal", str(config_path), "--format", "json", "--seed", str(seed)]
    parser = cli._build_parser()
    verify_args = parser.parse_args(verify_argv + size_args)
    terminal_args = parser.parse_args(terminal_argv + size_args)

    def run_pass() -> PassResult:
        result = PassResult([])
        for argv, prefix in ((verify_argv, "verify"), (terminal_argv, "terminal")):
            rc, text = timed(result.call_ms, run_cli, argv + size_args)
            if rc not in (0, 1):
                result.checks.append(max_check(f"{prefix}.exit", rc, 0))
                continue
            result.checks += _cli_checks(json.loads(text), prefix)
        return result

    sim = SimConfig()
    return Prepared(
        setup_config=config_path,
        configs=[config_path],
        sizes_record={
            "investors": reference.n_investors,
            "verify_paths": verify_args.n_paths,
            "terminal_paths": terminal_args.n_paths,
            "steps_per_year": sim.steps_per_year,
            "chunk_size": sim.chunk_size,
        },
        reference=reference,
        run_pass=run_pass,
    )


def _draw_many(rng: np.random.Generator, n: int) -> EconomyParams:
    """A heterogeneous zero-net-supply economy on the reference variance law.

    Tolerances and loadings are Latin-hypercube draws, so every seed covers
    the same ranges; belief-density ratios beta/tau stay below 0.6, which
    keeps the martingale estimates' sampling law close to normal.
    """

    def strata(lo: float, hi: float) -> np.ndarray:
        return lo + (hi - lo) * (rng.permutation(n) + rng.uniform(size=n)) / n

    vol = VolParams(mu_v=0.05, kappa_v=-0.7, sigma_v=-0.3, v0=1.0)
    while True:
        tau, sigma, beta = strata(0.5, 1.0), strata(0.1, 0.4), strata(0.05, 0.3)
        x0 = rng.normal(0.0, 0.2, size=n)
        x0 -= x0.mean()
        investors = tuple(
            InvestorParams(
                tau=float(tau[i]),
                sigma_Y=float(sigma[i]),
                beta_Y=float(beta[i]),
                kappa_Y=float(rng.uniform(-0.1, 0.1)),
                mu_Y=float(rng.uniform(-0.1, 0.1)),
                Y0=float(rng.uniform(-0.5, 0.5)),
                X0=float(x0[i]),
            )
            for i in range(n)
        )
        econ = EconomyParams(vol=vol, horizon=1.0, investors=investors)
        report = model.validate(econ)
        if report.passed and _solvable(report.aggregates):
            return econ


def prepare_verify_many_investors(root: Path, work: Path, seed: int, sizes: Sizes) -> Prepared:
    rng = np.random.default_rng([seed, 3])
    config_path = _write_config(work / "many_investors.json", _draw_many(rng, sizes.many_investors))
    sim = SimConfig(n_paths=sizes.many_paths, seed=seed, antithetic=False)

    def run_pass() -> PassResult:
        ms: list[float] = []
        rc, _ = timed(ms, run_cli, ["validate", str(config_path), "--format", "json"])
        checks = [max_check("cli_validate_exit", rc, 0)]
        econ = timed(ms, config.load_config, config_path)
        martingale = timed(ms, dynamics.martingale_checks, econ, sim)
        checks += [estimate_check(label, est, 1.0) for label, est in martingale]
        mult = timed(ms, dynamics.solve_multipliers, econ, sim)
        checks.append(estimate_check("multiplier_annuity_cross_check", mult.annuity_mc, mult.annuity_closed))
        clearing = timed(ms, dynamics.verify_clearing, econ, sim)
        checks.append(max_check("clearing_max_residual", clearing.max_residual, CLEARING_TOL))
        foc = timed(ms, dynamics.verify_foc, econ, sim)
        checks.append(max_check("foc_max_residual", foc.max_insured, foc.dt))
        term = timed(ms, terminal.verify_terminal_clearing, econ, sim)
        checks.append(max_check("aggregate_wealth_loading", term.loading_gap, LOADING_TOL))
        return PassResult(checks, ms)

    econ = config.load_config(config_path)
    return Prepared(
        setup_config=config_path,
        configs=[config_path],
        sizes_record={
            "investors": econ.n_investors,
            "paths": sim.n_paths,
            "steps_per_year": sim.steps_per_year,
            "steps": sim.n_steps(econ.horizon),
            "chunk_size": sim.chunk_size,
            "scheme": sim.scheme,
            "antithetic": sim.antithetic,
        },
        reference=econ,
        run_pass=run_pass,
    )


PREPARE = {
    "closed_form_sweep": prepare_closed_form_sweep,
    "verify_reference": prepare_verify_reference,
    "verify_many_investors": prepare_verify_many_investors,
}
