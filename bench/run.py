"""ivoleq benchmark: one workload per run, end-to-end or traced.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; the library is imported from
its ``src`` directory, never from an installed copy.  Inputs are drawn from
``--seed`` before any timing starts.  Passes run back to back, one at a
time, until ``--seconds`` is used up (closed loop, one caller).

Untraced (``--trace 0``) the last stdout line carries the end-to-end
metrics; traced (``--trace 1``) it carries the per-layer metrics from a
separate traced phase.  The lines before it are the run record and, when
traced, the full per-function trace report.  Spans are written to
``.bench_out/``.  The exit code is 0 only when every correctness gate held.
See ``bench/README.md`` for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
NEEDED = (
    SRC / "ivoleq" / "__init__.py",
    ROOT / "configs" / "table1.json",
    ROOT / "tests" / "golden" / "table1.csv",
    ROOT / "tests" / "golden" / "table2.csv",
)

NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

WORKLOADS = ("closed_form_sweep", "verify_reference", "verify_many_investors")
MIN_PASSES = 2


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _percentile(values: list[float], q: int) -> float:
    """Linear-interpolation percentile, the definition numpy uses by default."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _git_commit() -> str | None:
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.split()
    except (OSError, subprocess.SubprocessError):
        return None
    return top[1] if len(top) == 2 and Path(top[0]).resolve() == ROOT else None


def measure_setup(config: Path, probes: int) -> list[dict]:
    """Import, config load and validation, each in a fresh interpreter."""
    out = []
    for _ in range(probes):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), str(config)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return out


class Runner:
    """Runs one workload's passes and turns them into metrics."""

    def __init__(self, workload: str, seed: int, seconds: float, sizes, work: Path):
        import workloads as wl

        self.wl = wl
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.sizes = sizes
        self.prepared = wl.PREPARE[workload](ROOT, work, seed, sizes)
        self.checks: list = []
        self.errors: list[str] = []

    def run_offline_checks(self) -> None:
        if self.prepared.offline_checks is not None:
            self.checks += self.prepared.offline_checks()

    def run_passes(self, budget: float, on_pass=None) -> list[dict]:
        """Back-to-back passes until the budget is spent (at least MIN_PASSES)."""
        passes = []
        start = time.perf_counter()
        while True:
            if on_pass is not None:
                on_pass(len(passes))
            t0 = time.perf_counter()
            try:
                result = self.prepared.run_pass()
            except Exception:
                # a raising library call is a failed check, not a crash of the run
                self.checks.append(self.wl.Check("pass_raised", "raised", math.nan, 0.0, False))
                self.errors.append(traceback.format_exc())
                if len(passes) < MIN_PASSES:
                    raise
                return passes
            wall = time.perf_counter() - t0
            self.checks += result.checks
            z = [c for c in result.checks if c.kind == "z"]
            passes.append({"wall_s": wall, "call_ms": result.call_ms, "z": z})
            if len(passes) >= MIN_PASSES and (time.perf_counter() - start) * (len(passes) + 1) / len(passes) > budget:
                return passes

    def time_chunks(self) -> dict[str, float]:
        """Public ``simulate`` on one chunk per scheme, median of a few reps."""
        from ivoleq.dynamics import SimConfig, simulate

        econ = self.prepared.reference
        out = {}
        for scheme in ("euler", "exact"):
            sim = SimConfig(n_paths=self.sizes.chunk_paths, seed=self.seed, scheme=scheme, antithetic=False)
            times = []
            for _ in range(self.sizes.chunk_reps):
                t0 = time.perf_counter()
                simulate(econ, sim, horizon=1.0)
                times.append((time.perf_counter() - t0) * 1e3)
            out[scheme] = statistics.median(times)
        return out

    @property
    def failed(self) -> int:
        return sum(not c.passed for c in self.checks)

    def record(self, setup: list[dict], passes: list[dict]) -> dict:
        import numpy as np

        from ivoleq.dynamics import SimConfig

        wall = median_wall(passes)
        files = sorted({str(p.relative_to(ROOT)): self.wl.sha256(p) for p in self.prepared.configs}.items())
        return {
            "workload": self.workload,
            "seed": self.seed,
            "seconds": self.seconds,
            "git_commit": _git_commit(),
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "nproc": NPROC,
            "thread_cap": {v: os.environ.get(v) for v in THREAD_VARS},
            "sizes": {**self.prepared.sizes_record, "default_chunk_size": SimConfig().chunk_size},
            "config_sha256": dict(files),
            "passes": len(passes),
            "pass_wall_s": [p["wall_s"] for p in passes],
            "setup_probes": setup,
            "checks_attempted": len(self.checks),
            "checks_failed": self.failed,
            "failed_checks": [vars(c) for c in self.checks if not c.passed][:20],
            # every z-check of a pass (the same in each at a fixed seed), with
            # its work at fixed accuracy: median pass wall time x SE^2
            "z_checks": [
                {"name": c.name, "z": c.value, "standard_error": c.standard_error,
                 "time_se2": wall * c.standard_error**2}
                for c in passes[0]["z"]
            ],
            "errors": self.errors,
        }


def median_wall(passes: list[dict]) -> float:
    return statistics.median(p["wall_s"] for p in passes)


def end_to_end(runner: Runner, setup: list[dict], passes: list[dict]) -> tuple[dict, dict]:
    """End-to-end metrics from the untraced passes.

    Every timing is a median over passes: the median pass wall time, and
    percentiles over the calls of each call's median latency (a pass makes
    the same calls in the same order every time).  At a fixed seed every
    pass gives the same standard errors.
    """
    import resource

    latencies = [statistics.median(call) for call in zip(*(p["call_ms"] for p in passes))]
    wall = median_wall(passes)
    z = passes[0]["z"]
    se2_gm = math.exp(statistics.fmean(2.0 * math.log(c.standard_error) for c in z))
    values = {
        "setup_s": _metric(statistics.median(s["import_s"] + s["load_config_s"] + s["require_valid_s"] for s in setup), "s"),
        "wall_s": _metric(wall, "s"),
        "call_ms_p50": _metric(_percentile(latencies, 50), "ms"),
        "call_ms_p99": _metric(_percentile(latencies, 99), "ms"),
        "time_se2": _metric(wall * se2_gm, "s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    summary = {
        "calls_per_pass": len(latencies),
        "passes": len(passes),
        "z_checks_per_pass": len(z),
        "check_fail_ratio": _metric(runner.failed / len(runner.checks), "ratio"),
    }
    return values, summary


GROUPS = {
    "equilibrium.annuity": ("equilibrium.annuity_price", "equilibrium.annuity_vol"),
    "equilibrium.mpr": (
        "equilibrium.discrete_mpr",
        "equilibrium.discrete_mpr_gap",
        "equilibrium.mpr_curve",
        "equilibrium.mpr_instantaneous",
    ),
}
LAYERS = ("cli", "config", "model", "riccati", "equilibrium", "dynamics", "terminal")


def traced(runner: Runner, setup: list[dict], budget: float, tag: str) -> tuple[dict, dict, list[dict]]:
    """Untraced then traced passes; per-layer metrics from the traced ones.

    Per-function times and counts are means per traced pass, so layer
    self times sum to no more than ``trace.wall_s``, the mean traced pass.
    """
    from tracing import COMPUTED, Tracer

    plain = runner.run_passes(budget / 2.0)
    tracer = Tracer()
    tracer.install()
    try:
        traced_passes = runner.run_passes(budget / 2.0, on_pass=lambda k: setattr(tracer, "pass_id", k))
        tracer.pass_id = None
    finally:
        tracer.restore()
    chunk_ms = runner.time_chunks()
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{tag}.jsonl"
    tracer.write(spans_path)

    n = len(traced_passes)
    per_fn = {k: {"calls": v["calls"] / n, "s": v["self_s"] / n} for k, v in tracer.self_times(set(range(n))).items()}
    for group, members in GROUPS.items():
        per_fn[group] = {key: sum(per_fn[m][key] for m in members) for key in ("calls", "s")}
    layer_self = {
        layer: sum(v["s"] for k, v in per_fn.items() if k.split(".")[0] == layer and k not in GROUPS)
        for layer in LAYERS
    }
    wall_plain = statistics.fmean(p["wall_s"] for p in plain)
    wall_traced = statistics.fmean(p["wall_s"] for p in traced_passes)
    values = {
        "config.load_config.s": _metric(statistics.median(s["load_config_s"] for s in setup), "s"),
        "cli.import.s": _metric(statistics.median(s["import_s"] for s in setup), "s"),
        "trace.wall_s": _metric(wall_traced, "s"),
        "trace.overhead_s": _metric(wall_traced - wall_plain, "s"),
        "trace.self_sum_s": _metric(sum(layer_self.values()), "s"),
        "dynamics.simulate.euler_chunk_ms": _metric(chunk_ms["euler"], "ms"),
        "dynamics.simulate.exact_chunk_ms": _metric(chunk_ms["exact"], "ms"),
    }
    values.update({f"{layer}.self_s": _metric(v, "s") for layer, v in layer_self.items()})
    values.update(
        {name: _metric(tracer.computed[name] / n, "B" if name.endswith("bytes") else "count") for name in COMPUTED}
    )
    for name, v in per_fn.items():
        values[f"{name}.calls"] = _metric(v["calls"], "count")
        values[f"{name}.s"] = _metric(v["s"], "s")
    report = {
        "traced_passes": n,
        "untraced_passes": len(plain),
        "untraced_wall_s": wall_plain,
        "computed": list(COMPUTED),
        "spans": str(spans_path.relative_to(ROOT)),
    }
    return values, report, plain + traced_passes


def select(values: dict, spec: list[dict]) -> dict:
    """The metrics BENCHMARK.json lists, in its order; a missing one is an error."""
    out = {}
    for m in spec:
        name, unit = m["name"], m["unit"]
        value = values.get(name)
        if value is None:
            raise KeyError(f"benchmark produced no value for metric {name}")
        if value["unit"] != unit:
            raise ValueError(f"metric {name}: unit {value['unit']} but BENCHMARK.json says {unit}")
        out[name] = value
    return out


def run_one(workload: str, seed: int, seconds: float, trace: bool, sizes=None) -> tuple[dict, int]:
    """One workload in this process; returns the result object and exit code."""
    import workloads as wl

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sizes = sizes or wl.Sizes()
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    work = OUT / tag
    work.mkdir(parents=True, exist_ok=True)
    runner = Runner(workload, seed, seconds, sizes, work)
    setup = measure_setup(runner.prepared.setup_config, sizes.setup_probes)
    runner.run_offline_checks()
    if trace:
        values, report, passes = traced(runner, setup, seconds, tag)
        metrics = select(values, spec["per_layer"])
        extra = {"trace_report": {**report, "all": values}}
    else:
        passes = runner.run_passes(seconds)
        values, extra = end_to_end(runner, setup, passes)
        metrics = select(values, spec["end_to_end"])
    record = runner.record(setup, passes)
    result = {
        "correct": runner.failed == 0,
        "attempted": len(runner.checks),
        "failed": runner.failed,
        "metrics": metrics,
    }
    print(json.dumps({"run_record": record}))
    print(json.dumps({"summary": extra}))
    return result, 0 if result["correct"] else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own fresh process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(line)
        worst = max(worst, proc.returncode)
        if proc.returncode not in (0, 1) or not lines:
            combined["correct"] = False
            continue
        res = json.loads(lines[-1])
        print(json.dumps({"workload": workload, **res}))
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        combined["metrics"].update({f"{workload}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(combined))
    return worst



def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # BLAS and OpenMP pools are capped at the CPUs this process may use; the
    # cap must be in the environment before numpy loads, and children inherit it.
    for var in THREAD_VARS:
        os.environ[var] = str(NPROC)
    missing = [str(p) for p in NEEDED if not p.is_file()]
    if missing:
        print(f"benchmark: source checkout incomplete, missing {missing}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    sys.path[:0] = [str(SRC), str(HERE)]
    import ivoleq

    if Path(ivoleq.__file__).resolve().parent != SRC / "ivoleq":
        print(f"benchmark: imported ivoleq from {ivoleq.__file__}, not {SRC}", file=sys.stderr)
        return 2
    result, code = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
