"""Command-line front end.

Subcommands
-----------
validate   assumption checks on a config
table1     incompleteness effects as the number of investors grows
table2     two-group limit economies over a grid of weights and tolerances
curves     term-structure and price-of-risk curves
verify     Monte Carlo verification suites (oracles and identities)
terminal   terminal-wealth variant checks

Every command takes a config path plus ``--seed``, ``--format {csv,json}``
and ``--out DIR``, and writes its result by one rule:

- without ``--out``, csv format prints the report lines of ``validate``,
  ``verify`` and ``terminal``, and the other commands' tables aligned, with
  a blank line between two tables;
- without ``--out``, json format prints one JSON document, the run manifest
  first;
- with ``--out``, csv format writes one ``<table>.csv`` per table and json
  format writes ``<command>.json``; then ``<command>_manifest.json`` records
  the run and lists exactly those files as its ``outputs``, and stdout gets
  one ``wrote <path>`` line per output.

Check results are tables too: ``validate`` has the columns
``name,kind,passed,detail`` (``kind`` is ``gate`` or ``info``), and
``verify`` and ``terminal`` have ``name,value,threshold,passed,
standard_error,elapsed``.  Exit status: 0 on success, 1 on a failed check,
2 on a missing or unparseable config or one the command cannot take, 3 when
the economy cannot be computed because it fails validation or an exponent
explodes inside the horizon.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import sys
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from decimal import ROUND_HALF_EVEN, Decimal
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .config import ConfigError, load_config
from .dynamics import SimConfig
from .equilibrium import (
    annuity_price,
    bond_price,
    discrete_mpr,
    discrete_mpr_gap,
    mpr_instantaneous,
    term_structure,
)
from .model import (
    EconomyParams,
    GroupSpec,
    InvalidEconomyError,
    TwoGroupLimit,
    limit_aggregates,
    replicate_investor,
    require_valid,
    validate,
)
from .riccati import RiccatiExplosionError, solve_pair
from .terminal import terminal_equilibrium, terminal_mpr, verify_terminal_clearing

TABLE1_COUNTS = (2, 5, 10, 100, 1000)
TABLE2_WEIGHTS = (1.00, 0.75, 0.50, 0.25, 0.00)
TABLE2_TOLERANCE_PAIRS = ((0.5, 0.5), (0.5, 1 / 3), (1 / 3, 0.5), (1 / 3, 1 / 3))


@dataclass(frozen=True)
class RunManifest:
    """Provenance record accompanying every file the CLI writes."""

    config: str
    command: str
    seed: int
    version: str
    timestamp: str
    outputs: tuple[str, ...]


def _manifest(args, outputs: tuple[str, ...]) -> RunManifest:
    return RunManifest(
        config=str(args.config),
        command=args.command,
        seed=args.seed,
        version=__version__,
        timestamp=datetime.now(timezone.utc).isoformat(timespec="seconds"),
        outputs=outputs,
    )


def _fmt4(x: float) -> str:
    """Four decimals, ties to even, matching the published table precision."""
    return str(Decimal(x).quantize(Decimal("0.0001"), rounding=ROUND_HALF_EVEN))


def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([header, *rows])
    return buf.getvalue()


def _aligned(header: list[str], rows: list[list[str]]) -> str:
    table = [header] + rows
    widths = [max(len(r[j]) for r in table) for j in range(len(header))]
    return "\n".join("  ".join(cell.rjust(w) for cell, w in zip(r, widths)) for r in table)


def _emit(
    args,
    name: str,
    doc: dict,
    tables: dict[str, tuple[list[str], list[list]]],
    text: list[str] | None = None,
    ok: bool = True,
) -> int:
    """Write one command's result by the output rule of the module docstring.

    ``doc`` holds the JSON sections, ``tables`` maps a file stem to its
    header and rows, and ``text`` replaces the aligned tables on the console.
    Returns the exit status, 1 when ``ok`` is false.
    """
    status = 0 if ok else 1
    if args.out is None:
        if args.format == "json":
            manifest = dataclasses.asdict(_manifest(args, ()))
            print(json.dumps({"manifest": manifest, **doc}, indent=2))
        elif text is not None:
            print("\n".join(text))
        else:
            print("\n\n".join(_aligned(*table) for table in tables.values()))
        return status
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.format == "json":
        files = {out_dir / f"{name}.json": json.dumps(doc, indent=2) + "\n"}
    else:
        files = {out_dir / f"{stem}.csv": _csv_text(*table) for stem, table in tables.items()}
    for path, body in files.items():
        path.write_text(body)
        print(f"wrote {path}")
    manifest = dataclasses.asdict(_manifest(args, tuple(str(path) for path in files)))
    (out_dir / f"{name}_manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    return status


def _homogeneous_template(econ: EconomyParams):
    first = econ.investors[0]
    if any(inv != first for inv in econ.investors[1:]):
        raise ConfigError("table commands need a homogeneous investor template")
    return first


# ---------------------------------------------------------------------------
# subcommands


def cmd_validate(args) -> int:
    report = validate(load_config(args.config))
    doc = {
        "passed": report.passed,
        "checks": [dataclasses.asdict(c) for c in report.checks],
        "info": [dataclasses.asdict(c) for c in report.info],
    }
    rows = [
        [c.name, kind, c.passed, c.detail]
        for kind, group in (("gate", report.checks), ("info", report.info))
        for c in group
    ]
    tables = {"validate": (["name", "kind", "passed", "detail"], rows)}
    return _emit(args, "validate", doc, tables, report.lines(), report.passed)


def cmd_table1(args) -> int:
    econ = load_config(args.config)
    template = _homogeneous_template(econ)
    vol, horizon = econ.vol, econ.horizon
    rows_raw: list[tuple[object, float, float]] = []
    for n in TABLE1_COUNTS:
        agg = require_valid(
            EconomyParams(vol=vol, horizon=horizon, investors=replicate_investor(template, n))
        )
        rows_raw.append((n, _rate_gap(agg), _mpr_gap(agg)))
    group = GroupSpec(
        tau=template.tau,
        beta_Y=template.beta_Y,
        sigma_Y=template.sigma_Y,
        kappa_Y=template.kappa_Y,
        mu_Y=template.mu_Y,
    )
    agg_inf = limit_aggregates(vol, horizon, TwoGroupLimit(w=1.0, group_a=group, group_b=group))
    rows_raw.append((None, _rate_gap(agg_inf), _mpr_gap(agg_inf)))

    header = ["investors", "rate_gap", "mpr_gap"]
    rows = [
        [("∞" if args.out is None else "inf") if n is None else str(n), _fmt4(rg), _fmt4(mg)]
        for n, rg, mg in rows_raw
    ]
    payload = [
        {"investors": n, "rate_gap": rg, "mpr_gap": mg} for n, rg, mg in rows_raw
    ]
    return _emit(args, "table1", {"table1": payload}, {"table1": (header, rows)})


def _rate_gap(agg) -> float:
    """Benchmark-minus-market short rate at the initial variance."""
    return (agg.rate_slope_rep - agg.rate_slope) * agg.vol.v0


def _mpr_gap(agg) -> float:
    """Market-minus-benchmark window price of risk at the initial variance."""
    return discrete_mpr_gap(agg, agg.horizon) * np.sqrt(agg.vol.v0)


def cmd_table2(args) -> int:
    econ = load_config(args.config)
    template = _homogeneous_template(econ)
    vol, horizon = econ.vol, econ.horizon

    def group(tau: float, beta: float) -> GroupSpec:
        return GroupSpec(
            tau=tau,
            beta_Y=beta,
            sigma_Y=template.sigma_Y,
            kappa_Y=template.kappa_Y,
            mu_Y=template.mu_Y,
        )

    header = ["w"] + [
        f"tauA{ta:.2f}_tauB{tb:.2f}" for ta, tb in TABLE2_TOLERANCE_PAIRS
    ]
    rows: list[list[str]] = []
    payload: list[dict] = []
    for w in TABLE2_WEIGHTS:
        cells = []
        for tau_a, tau_b in TABLE2_TOLERANCE_PAIRS:
            lim = TwoGroupLimit(
                w=w, group_a=group(tau_a, args.beta_a), group_b=group(tau_b, args.beta_b)
            )
            cells.append(_mpr_gap(limit_aggregates(vol, horizon, lim)))
        rows.append([f"{w:.2f}"] + [_fmt4(c) for c in cells])
        payload.append(
            {"w": w, "cells": dict(zip(header[1:], cells))}
        )
    return _emit(args, "table2", {"table2": payload}, {"table2": (header, rows)})


def cmd_curves(args) -> int:
    econ = load_config(args.config)
    agg = require_valid(econ)
    horizon = econ.horizon
    grid = np.linspace(0.0, horizon, args.points)
    ts = term_structure(agg, 0.0, grid)
    sol, sol_rep = solve_pair(agg)
    v0 = econ.vol.v0
    inst = mpr_instantaneous(agg, v0)
    mpr = discrete_mpr(sol, agg, grid, horizon) * np.sqrt(v0)
    mpr_rep = discrete_mpr(sol_rep, agg, grid, horizon) * np.sqrt(v0)

    doc = {
        "term_structure": {
            "maturity": grid.tolist(),
            "bond_price": ts.incomplete.tolist(),
            "bond_price_rep": ts.complete.tolist(),
        },
        "mpr_curve": {
            "time": grid.tolist(),
            "instantaneous": float(inst),
            "window": mpr.tolist(),
            "window_rep": mpr_rep.tolist(),
        },
    }
    ts_rows = [
        [f"{u:.6f}", f"{b:.10f}", f"{br:.10f}"]
        for u, b, br in zip(grid, ts.incomplete, ts.complete)
    ]
    mpr_rows = [
        [f"{t:.6f}", f"{inst:.10f}", f"{m:.10f}", f"{mr:.10f}", f"{m - mr:.10f}"]
        for t, m, mr in zip(grid, mpr, mpr_rep)
    ]
    tables = {
        "term_structure": (["maturity", "bond_price", "bond_price_rep"], ts_rows),
        "mpr_curve": (["time", "instantaneous", "window", "window_rep", "gap"], mpr_rows),
    }
    return _emit(args, "curves", doc, tables)


@dataclass(frozen=True)
class CheckLine:
    """One verification check: an estimate against its tolerance."""

    name: str
    value: float
    threshold: float
    passed: bool
    standard_error: float | None = None
    elapsed: float = 0.0


def _z_check(name: str, est, target: float, elapsed: float) -> CheckLine:
    z = est.z(target)
    return CheckLine(
        name=name,
        value=float(z),
        threshold=3.0,
        passed=bool(abs(z) <= 3.0),
        standard_error=est.standard_error,
        elapsed=elapsed,
    )


def _bound_check(name: str, value: float, threshold: float, elapsed: float) -> CheckLine:
    return CheckLine(
        name=name, value=value, threshold=threshold, passed=value <= threshold, elapsed=elapsed
    )


def _timed(fn, *args, **kwargs):
    """Result of one library call and its wall time in seconds."""
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def _verify_suite(econ: EconomyParams, suite: str, seed: int, n_paths: int) -> list[CheckLine]:
    """Run the checks of one suite.

    Checks whose estimators read the same increment stream share one chunk
    loop, which draws each chunk once and walks it once per measure: the P
    martingale and multiplier checks with the Qmin bond and annuity
    estimates, and the QU forward-measure checks with the P premium checks.
    The full-horizon streams run first: freed large blocks leave room for
    the smaller ones, where the reverse order grew peak RSS by about 7 MB.
    The exact-scheme bond draws its own state and reads no increment block,
    so it runs on one worker thread beside the Euler loops: its plan is
    built here, its walk calls no public function and never touches the
    block memo, and numpy releases the GIL while it samples.  Its result
    equals that of a direct call; the thread is joined before this returns
    or raises, and an exception in it reaches the caller.
    Each Euler loop is timed once and its time split evenly among the checks
    it feeds; ``bond_exact``'s ``elapsed`` is its own wall time on the
    worker, which overlaps the other checks' times, so the ``elapsed``
    fields sum to more than the suite's wall time.
    """
    from concurrent.futures import ThreadPoolExecutor

    from . import dynamics as dyn

    agg = require_valid(econ)
    sol, _ = solve_pair(agg)
    horizon, v0 = econ.horizon, econ.vol.v0

    def want(name: str) -> bool:
        return suite in (name, "all")

    def sim(**over) -> SimConfig:
        base = dict(n_paths=n_paths, seed=seed, antithetic=False)
        base.update(over)
        return SimConfig(**base)

    full, half = sim(), horizon / 2.0
    done: dict[str, tuple[object, float]] = {}  # result and per-check time, by source

    def stream(*sources) -> None:
        """One chunk loop for the chosen (name, plan builder, checks fed) sources."""
        sources = [(name, build, k) for name, build, k, chosen in sources if chosen]
        if not sources:
            return
        t0 = time.perf_counter()
        outs = dyn._run(*(build() for _, build, _ in sources))
        share = (time.perf_counter() - t0) / sum(k for _, _, k in sources)
        done.update((name, (out, share)) for (name, _, _), out in zip(sources, outs))

    with ThreadPoolExecutor(max_workers=1) as worker:  # starts no thread until a submit
        if want("bond"):
            exact_plan = dyn._bond_plan(econ, horizon, sim(scheme="exact"))
            exact = worker.submit(_timed, dyn._run, exact_plan)
        stream(
            ("martingale", partial(dyn._martingale_plan, econ, full), econ.n_investors + 1,
             want("martingale")),
            ("multipliers", partial(dyn._multipliers_plan, econ, full), 2, want("multipliers")),
            ("bond_euler", partial(dyn._bond_plan, econ, horizon, full), 1, want("bond")),
            ("annuity", partial(dyn._annuity_plan, econ, full), 1, want("bond")),
        )
        pathwise = sim(n_paths=min(n_paths, 2000))
        stream(
            ("clearing", partial(dyn._clearing_plan, econ, pathwise), 1, want("clearing")),
            ("foc", partial(dyn._foc_plan, econ, pathwise), 1, want("foc")),
        )
        stream(*(
            (f"forward_{sec}", partial(dyn._forward_plan, econ, half, full, sec), 1,
             want("forward"))
            for sec in ("bond", "annuity")
        ), *(
            (f"premium_{sec}", partial(dyn._premium_plan, econ, half, sec, full), 1,
             want("premium"))
            for sec in ("bond", "annuity")
        ))
        if want("bond"):
            (est,), elapsed = exact.result()
            done["bond_exact"] = est, elapsed

    checks: list[CheckLine] = []
    if want("bond"):
        closed = bond_price(sol, 0.0, horizon, v0)
        for scheme in ("euler", "exact"):
            est, elapsed = done[f"bond_{scheme}"]
            checks.append(_z_check(f"bond_{scheme}_vs_closed", est, closed, elapsed))
        est, elapsed = done["annuity"]
        closed = annuity_price(sol, 0.0, v0, horizon)
        checks.append(_z_check("annuity_vs_closed", est, closed, elapsed))
    if want("clearing"):
        rep, elapsed = done["clearing"]
        checks.append(_bound_check("clearing_max_residual", rep.max_residual, 1e-10, elapsed))
    if want("forward"):
        for security in ("bond", "annuity"):
            est, elapsed = done[f"forward_{security}"]
            checks.append(_z_check(f"forward_measure_{security}", est, 0.0, elapsed))
    if want("foc"):
        rep, elapsed = done["foc"]
        checks.append(_bound_check("foc_max_residual", rep.max_insured, rep.dt, elapsed))
    if want("martingale"):
        ests, elapsed = done["martingale"]
        for label, est in ests:
            checks.append(_z_check(label, est, 1.0, elapsed))
    if want("premium"):
        for security in ("bond", "annuity"):
            rep, elapsed = done[f"premium_{security}"]
            checks.append(_z_check(f"premium_identity_{security}", rep.identity_gap, 0.0, elapsed))
    if want("multipliers"):
        ms, elapsed = done["multipliers"]
        total = float(abs(np.sum(ms.c0)))
        checks.append(_bound_check("multiplier_sum_is_zero", total, 1e-12, elapsed))
        checks.append(
            _z_check("multiplier_annuity_cross_check", ms.annuity_mc, ms.annuity_closed, elapsed)
        )
    if not checks:
        raise SystemExit(f"unknown verification suite: {suite}")
    return checks


def _check_result(name: str, checks: list[CheckLine]):
    """``_emit``'s arguments after ``args`` for a list of checks."""
    ok = all(c.passed for c in checks)
    lines = []
    for c in checks:
        se = "" if c.standard_error is None else f"  se={c.standard_error:.3e}"
        lines.append(
            f"[{'pass' if c.passed else 'FAIL'}] {c.name}: "
            f"value={c.value:.6g} threshold={c.threshold:.6g}{se}  [{c.elapsed:.2f}s]"
        )
    lines.append("all checks passed" if ok else "SOME CHECKS FAILED")
    doc = {"passed": ok, "checks": [dataclasses.asdict(c) for c in checks]}
    header = [f.name for f in dataclasses.fields(CheckLine)]
    tables = {name: (header, [dataclasses.astuple(c) for c in checks])}
    return name, doc, tables, lines, ok


def cmd_verify(args) -> int:
    econ = load_config(args.config)
    checks = _verify_suite(econ, args.suite, args.seed, args.n_paths)
    return _emit(args, *_check_result("verify", checks))


def cmd_terminal(args) -> int:
    econ = load_config(args.config)
    agg = require_valid(econ)
    eq_term = terminal_equilibrium(agg, econ.horizon)
    sol = eq_term.riccati

    t0 = time.perf_counter()
    start_gap = abs(
        terminal_mpr(sol, agg, 0.0, econ.horizon) - discrete_mpr(sol, agg, 0.0, econ.horizon)
    )
    checks = [
        _bound_check(
            "schedule_start_matches_window_coefficient",
            start_gap,
            0.0,
            time.perf_counter() - t0,
        )
    ]
    t0 = time.perf_counter()
    end_gap = abs(eq_term.price_of_risk(econ.horizon) - agg.mpr_loading)
    checks.append(
        _bound_check(
            "schedule_end_matches_instantaneous", end_gap, 0.0, time.perf_counter() - t0
        )
    )
    rep, elapsed = _timed(
        verify_terminal_clearing,
        econ,
        SimConfig(n_paths=args.n_paths, seed=args.seed, antithetic=False),
    )
    checks.append(_bound_check("terminal_clearing_residual", rep.max_residual, rep.dt, elapsed / 2))
    checks.append(_bound_check("aggregate_wealth_loading", rep.loading_gap, 1e-10, elapsed / 2))
    return _emit(args, *_check_result("terminal", checks))


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ivoleq",
        description="Incomplete-market equilibrium with stochastic income variance.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("config", help="economy config file (JSON or key = value lines)")
        p.add_argument("--seed", type=int, default=0, help="simulation seed")
        p.add_argument(
            "--format", choices=("csv", "json"), default="csv", help="output format"
        )
        p.add_argument("--out", metavar="DIR", default=None, help="write outputs here")

    p = sub.add_parser("validate", help="run assumption checks")
    common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("table1", help="incompleteness effects vs number of investors")
    common(p)
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("table2", help="two-group limit grid")
    common(p)
    p.add_argument("--beta-a", type=float, default=0.1, help="group A unspanned loading")
    p.add_argument("--beta-b", type=float, default=0.4, help="group B unspanned loading")
    p.set_defaults(func=cmd_table2)

    p = sub.add_parser("curves", help="term structure and price-of-risk curves")
    common(p)
    p.add_argument("--points", type=int, default=13, help="grid points from 0 to horizon")
    p.set_defaults(func=cmd_curves)

    p = sub.add_parser("verify", help="Monte Carlo verification suites")
    common(p)
    p.add_argument(
        "--suite",
        default="all",
        choices=(
            "bond",
            "clearing",
            "forward",
            "foc",
            "martingale",
            "premium",
            "multipliers",
            "all",
        ),
    )
    p.add_argument("--n-paths", type=int, default=20_000)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("terminal", help="terminal-wealth variant checks")
    common(p)
    p.add_argument("--n-paths", type=int, default=2_000)
    p.set_defaults(func=cmd_terminal)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (RiccatiExplosionError, InvalidEconomyError) as exc:
        print(f"cannot compute: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
