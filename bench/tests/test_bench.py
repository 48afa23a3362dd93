"""The benchmark's own tests: metric presence, trace hygiene, gates.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = wl.Sizes(
    economies=50,
    large_investors=(2_000, 5_000),
    spot_paths=256,
    numerical_sample=2,
    verify_paths=256,
    many_investors=4,
    many_paths=256,
    setup_probes=2,
    chunk_paths=256,
    chunk_reps=1,
)


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "traced"])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_reports_every_metric_with_its_unit(workload, trace, capsys):
    result, code = run.run_one(workload, seed=3, seconds=0.1, trace=trace, sizes=TINY)
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    lines = capsys.readouterr().out.strip().splitlines()
    record = json.loads(lines[0])["run_record"]
    assert record["seed"] == 3 and record["config_sha256"]
    if trace:
        m = result["metrics"]
        assert m["trace.self_sum_s"]["value"] <= m["trace.wall_s"]["value"]
        for spec_m in spec:
            if spec_m["unit"] in ("s", "ms") and spec_m["name"] != "trace.overhead_s":
                assert m[spec_m["name"]]["value"] > 0.0, spec_m["name"]


def test_traced_run_restores_every_attribute():
    import ivoleq
    import ivoleq.cli
    from ivoleq import equilibrium
    from ivoleq.dynamics import PathBundle

    econ = ivoleq.load_config(ROOT / "configs" / "table1.json")
    before = tracing.snapshot()
    original = equilibrium.quad_nodes
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert equilibrium.quad_nodes is not original
        assert ivoleq.cli.bond_price is equilibrium.bond_price
        sol, _ = ivoleq.solve_pair(ivoleq.require_valid(econ))
        equilibrium.annuity_price(sol, 0.0, econ.vol.v0)
    finally:
        tracer.restore()
    assert tracing.snapshot() == before
    assert equilibrium.quad_nodes is original
    assert isinstance(vars(PathBundle)["dZ"], property)
    names = {span[0] for span in tracer.spans}
    assert {"equilibrium.annuity_price", "equilibrium.quad_nodes", "riccati.eval"} <= names
    assert tracer.computed["equilibrium.quad_nodes.points"] == 64


def test_golden_comparison_fails_on_perturbed_copy(tmp_path):
    golden = ROOT / "tests" / "golden"
    for name in ("table1", "table2"):
        (tmp_path / f"{name}.csv").write_bytes((golden / f"{name}.csv").read_bytes())
    assert all(c.passed for c in wl.golden_checks(tmp_path, golden))
    data = bytearray((tmp_path / "table1.csv").read_bytes())
    data[-2] = ord("9") if data[-2] != ord("9") else ord("8")
    (tmp_path / "table1.csv").write_bytes(bytes(data))
    checks = {c.name: c.passed for c in wl.golden_checks(tmp_path, golden)}
    assert checks == {"golden_table1": False, "golden_table2": True}


def test_z_gate_is_three_sigma_per_check():
    assert wl.z_check("a", -2.99, 0.1).passed
    assert not wl.z_check("b", 3.01, 0.1).passed
    assert not wl.z_check("c", -3.2, 0.1).passed
