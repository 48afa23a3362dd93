"""Command line surface: golden outputs, manifests, exit codes."""

from __future__ import annotations

import csv
import functools
import inspect
import json
import sys
import tempfile
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ivoleq import dynamics
from ivoleq.cli import _verify_suite, main
from ivoleq import __version__
from ivoleq.dynamics import PathBundle, SimConfig, mc_bond_price
from ivoleq.equilibrium import bond_price, discrete_mpr_gap, mpr_curve, term_structure
from ivoleq.model import derive_aggregates, require_valid, validate
from ivoleq.config import load_config
from ivoleq.riccati import RiccatiSolution, solve_pair

ROOT = Path(__file__).resolve().parents[1]
CONFIG = str(ROOT / "configs" / "table1.json")
GOLDEN = ROOT / "tests" / "golden"

BAD_FELLER = """
{
  "vol": {"mu_v": 0.001, "kappa_v": -0.7, "sigma_v": -0.3, "v0": 1.0},
  "horizon_T": 1.0,
  "investor": {"tau": 0.5, "sigma_Y": 0.3, "beta_Y": 0.2},
  "replicate": 2
}
"""

# fails only the zero-net-supply check: initial wealth sums to 0.1
UNBALANCED = """
{
  "vol": {"mu_v": 0.05, "kappa_v": -0.7, "sigma_v": -0.3, "v0": 1.0},
  "horizon_T": 1.0,
  "investors": [{"tau": 0.5, "beta_Y": 0.2, "X0": 0.1}, {"tau": 0.5, "beta_Y": 0.2}]
}
"""

# the slope exponent explodes at s = 1.888 < horizon: validate fails it
EXPLODING = """
{
  "vol": {"mu_v": 0.05, "kappa_v": 3.0, "sigma_v": 0.3, "v0": 1.0},
  "horizon_T": 5.0,
  "investor": {"tau": 0.5, "sigma_Y": 0.3, "beta_Y": 0.6},
  "replicate": 2
}
"""


# never explodes, but the exponents underflow to (nan, -inf) at the horizon;
# validate's detail for it contains commas
UNREPRESENTABLE = """
{
  "vol": {"mu_v": 0.05, "kappa_v": 1.0, "sigma_v": 0.3, "v0": 1.0},
  "horizon_T": 1400.0,
  "investors": [{"tau": 0.5}, {"tau": 1.0}]
}
"""

NOT_COMPUTABLE = "cannot compute: economy fails validation checks: exponents_finite_on_horizon\n"

SMALL = {"verify": ["--suite", "clearing", "--n-paths", "300"], "terminal": ["--n-paths", "300"]}


class TestOutputRule:
    """Every command obeys the one output rule for each format and target."""

    @pytest.mark.parametrize("to_dir", [False, True], ids=["stdout", "out"])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize(
        ("command", "economy", "code"),
        [
            ("validate", None, 0),
            ("validate", UNREPRESENTABLE, 1),
            ("table1", None, 0),
            ("table2", None, 0),
            ("curves", None, 0),
            ("verify", None, 0),
            ("terminal", None, 0),
        ],
        ids=["validate", "validate_failing", "table1", "table2", "curves", "verify", "terminal"],
    )
    def test_matrix(self, tmp_path, capsys, command, economy, code, fmt, to_dir):
        cfg = CONFIG
        if economy is not None:
            cfg = tmp_path / "economy.json"
            cfg.write_text(economy)
        out_dir = tmp_path / "out"
        argv = [command, str(cfg), "--format", fmt, *SMALL.get(command, [])]
        assert main(argv + (["--out", str(out_dir)] if to_dir else [])) == code
        stdout = capsys.readouterr().out
        if not to_dir:
            assert not out_dir.exists()
            if fmt == "json":
                assert json.loads(stdout)["manifest"]["outputs"] == []
            return
        manifest = json.loads((out_dir / f"{command}_manifest.json").read_text())
        outputs = [Path(o) for o in manifest["outputs"]]
        assert manifest["command"] == command
        assert stdout == "".join(f"wrote {o}\n" for o in outputs)
        assert sorted(out_dir.iterdir()) == sorted([*outputs, out_dir / f"{command}_manifest.json"])
        assert {o.suffix for o in outputs} == {f".{fmt}"}
        for path in outputs:
            if fmt == "json":
                assert "manifest" not in json.loads(path.read_text())
                continue
            with open(path, newline="") as fh:
                rows = list(csv.reader(fh))
            assert len(rows) > 1
            assert len({len(r) for r in rows}) == 1

    def test_validate_details_with_commas_stay_one_cell(self, tmp_path):
        cfg = tmp_path / "economy.json"
        cfg.write_text(UNREPRESENTABLE)
        assert main(["validate", str(cfg), "--out", str(tmp_path)]) == 1
        with open(tmp_path / "validate.csv", newline="") as fh:
            rows = {r["name"]: r for r in csv.DictReader(fh)}
        finite = rows["exponents_finite_on_horizon"]
        assert (finite["kind"], finite["passed"]) == ("gate", "False")
        assert finite["detail"] == (
            "exponents not representable at the horizon: (b, a) = (nan, -inf), (nan, -inf)"
        )
        assert rows["rate_bounded_below"]["kind"] == "info"

    def test_check_table_matches_json(self, tmp_path):
        common = [CONFIG, "--n-paths", "300"]
        assert main(["terminal", *common, "--out", str(tmp_path / "csv")]) == 0
        assert main(["terminal", *common, "--format", "json", "--out", str(tmp_path / "json")]) == 0
        with open(tmp_path / "csv" / "terminal.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        doc = json.loads((tmp_path / "json" / "terminal.json").read_text())
        assert doc["passed"] is True
        assert [r["name"] for r in rows] == [c["name"] for c in doc["checks"]]
        for row, check in zip(rows, doc["checks"]):
            assert float(row["value"]) == check["value"]
            assert float(row["threshold"]) == check["threshold"]
            assert row["passed"] == str(check["passed"])
            assert row["standard_error"] == ""


class TestTables:
    def test_table1_golden_bytes(self, tmp_path):
        assert main(["table1", CONFIG, "--out", str(tmp_path)]) == 0
        got = (tmp_path / "table1.csv").read_bytes()
        assert got == (GOLDEN / "table1.csv").read_bytes()

    def test_table2_golden_bytes(self, tmp_path):
        assert main(["table2", CONFIG, "--out", str(tmp_path)]) == 0
        got = (tmp_path / "table2.csv").read_bytes()
        assert got == (GOLDEN / "table2.csv").read_bytes()

    def test_console_uses_infinity_glyph(self, capsys):
        assert main(["table1", CONFIG]) == 0
        out = capsys.readouterr().out
        assert "∞" in out
        assert "inf" not in out
        assert "0.0800" in out and "0.0188" in out

    def test_csv_file_spells_inf(self, tmp_path):
        main(["table1", CONFIG, "--out", str(tmp_path)])
        text = (tmp_path / "table1.csv").read_text()
        assert "inf,0.0800,0.0188" in text
        assert "∞" not in text

    def test_json_payload_full_precision(self, capsys):
        assert main(["table1", CONFIG, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        rows = doc["table1"]
        assert rows[0]["investors"] == 2
        assert rows[-1]["investors"] is None
        assert rows[0]["rate_gap"] == pytest.approx(0.04, abs=1e-12)
        assert rows[-1]["rate_gap"] == pytest.approx(0.08, abs=1e-12)
        # more digits than the 4-decimal table keeps
        assert rows[0]["mpr_gap"] != round(rows[0]["mpr_gap"], 4)

    def test_manifest_records_run(self, tmp_path):
        main(["table1", CONFIG, "--out", str(tmp_path), "--seed", "9"])
        manifest = json.loads((tmp_path / "table1_manifest.json").read_text())
        assert manifest["command"] == "table1"
        assert manifest["seed"] == 9
        assert manifest["version"] == __version__
        assert manifest["outputs"] == [str(tmp_path / "table1.csv")]
        assert manifest["config"].endswith("table1.json")


class TestCurves:
    def test_files_match_library_values(self, tmp_path):
        assert main(["curves", CONFIG, "--out", str(tmp_path), "--points", "5"]) == 0
        econ_agg = derive_aggregates(__import__("ivoleq").load_config(CONFIG))

        with open(tmp_path / "term_structure.csv", newline="") as fh:
            ts_rows = list(csv.DictReader(fh))
        assert len(ts_rows) == 5
        assert float(ts_rows[0]["maturity"]) == 0.0
        assert float(ts_rows[0]["bond_price"]) == 1.0
        ts = term_structure(econ_agg, 0.0, np.linspace(0.0, 1.0, 5))
        for row, price in zip(ts_rows, ts.incomplete):
            assert float(row["bond_price"]) == pytest.approx(price, abs=1e-10)

        with open(tmp_path / "mpr_curve.csv", newline="") as fh:
            mpr_rows = list(csv.DictReader(fh))
        gap0 = discrete_mpr_gap(econ_agg, 1.0) * 1.0
        assert float(mpr_rows[0]["gap"]) == pytest.approx(gap0, abs=1e-10)

        manifest = json.loads((tmp_path / "curves_manifest.json").read_text())
        assert len(manifest["outputs"]) == 2


class TestValidate:
    def test_passing_economy(self, capsys):
        assert main(["validate", CONFIG]) == 0
        assert "pass" in capsys.readouterr().out

    def test_feller_violation_fails(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(BAD_FELLER)
        assert main(["validate", str(cfg)]) == 1
        assert "state_positivity" in capsys.readouterr().out


class TestVerifyCommands:
    def test_clearing_suite(self, tmp_path, capsys):
        rc = main(["verify", CONFIG, "--suite", "clearing", "--n-paths", "300"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "clearing_max_residual" in out

    @pytest.mark.parametrize(
        ("suite", "n_checks"), [("martingale", 3), ("multipliers", 2)]
    )
    def test_shared_call_time_split_evenly(self, capsys, suite, n_checks):
        rc = main(["verify", CONFIG, "--suite", suite, "--n-paths", "500", "--format", "json"])
        assert rc == 0
        elapsed = [c["elapsed"] for c in json.loads(capsys.readouterr().out)["checks"]]
        assert len(elapsed) == n_checks
        assert elapsed[0] > 0.0
        assert elapsed == [elapsed[0]] * n_checks

    def test_shared_streams_match_suites_run_alone(self, capsys):
        def checks(suite):
            argv = ["verify", CONFIG, "--suite", suite, "--n-paths", "500", "--format", "json"]
            main(argv)
            doc = json.loads(capsys.readouterr().out)
            return {c["name"]: (c["value"], c["standard_error"]) for c in doc["checks"]}

        together = checks("all")
        alone = {}
        for suite in ("bond", "clearing", "forward", "foc", "martingale", "premium", "multipliers"):
            alone.update(checks(suite))
        assert list(together) == list(alone)
        assert together == alone

    def test_terminal_command(self, capsys):
        rc = main(["terminal", CONFIG, "--n-paths", "400"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "schedule_start_matches_window_coefficient" in out
        assert "terminal_clearing_residual" in out


class Boom(Exception):
    """Raised by a patched chunk loop."""


def _failing_run(monkeypatch, scheme: str) -> None:
    """Make ``dynamics._run`` raise ``Boom`` for plans of ``scheme``."""
    real = dynamics._run

    def run(*plans):
        if plans[0].ctx.sim.scheme == scheme:
            raise Boom(scheme)
        return real(*plans)

    monkeypatch.setattr(dynamics, "_run", run)


class TestExactBondWorker:
    """``verify`` runs the exact-scheme bond on one worker thread."""

    def test_value_and_se_equal_a_direct_call(self):
        econ = load_config(CONFIG)
        start = threading.active_count()
        # 9000 paths: two chunks at the default chunk size
        checks = {c.name: c for c in _verify_suite(econ, "all", 4, 9000)}
        assert threading.active_count() == start
        direct = mc_bond_price(
            econ, econ.horizon, SimConfig(n_paths=9000, seed=4, antithetic=False, scheme="exact")
        )
        sol, _ = solve_pair(require_valid(econ))
        check = checks["bond_exact_vs_closed"]
        assert check.standard_error == direct.standard_error
        assert check.value == direct.z(bond_price(sol, 0.0, econ.horizon, econ.vol.v0))
        assert check.elapsed > 0.0

    def test_worker_exception_reaches_the_caller(self, monkeypatch):
        _failing_run(monkeypatch, "exact")
        start = threading.active_count()
        with pytest.raises(Boom, match="exact"):
            _verify_suite(load_config(CONFIG), "bond", 1, 500)
        assert threading.active_count() == start

    def test_worker_is_joined_when_an_euler_stream_raises(self, monkeypatch):
        _failing_run(monkeypatch, "euler")
        start = threading.active_count()
        with pytest.raises(Boom, match="euler"):
            _verify_suite(load_config(CONFIG), "all", 1, 500)
        assert threading.active_count() == start

    def test_worker_calls_no_public_function_and_never_the_memo(self, monkeypatch, capsys):
        """The benchmark tracer keeps one span stack for public calls and the
        block memo is a global: neither may be reached from the worker."""
        calls: list[tuple[str, int]] = []

        def record(name, fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                calls.append((name, threading.get_ident()))
                return fn(*args, **kwargs)

            return wrapper

        modules = [m for n, m in sys.modules.items() if n == "ivoleq" or n.startswith("ivoleq.")]
        wrappers = {
            id(fn): record(f"{mod.__name__}.{attr}", fn)
            for mod in modules
            for attr, fn in vars(mod).items()
            if not attr.startswith("_") and inspect.isfunction(fn) and fn.__module__ == mod.__name__
        }
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if id(val) in wrappers:
                    monkeypatch.setattr(mod, attr, wrappers[id(val)])
        for cls in (PathBundle, RiccatiSolution):
            for attr, fn in list(vars(cls).items()):
                if not attr.startswith("_") and inspect.isfunction(fn):
                    monkeypatch.setattr(cls, attr, record(f"{cls.__name__}.{attr}", fn))
        memo_get = record("_BlockMemo.get", dynamics._BlockMemo.get)
        monkeypatch.setattr(dynamics._BlockMemo, "get", memo_get)
        monkeypatch.setattr(dynamics, "_run", record("_run", dynamics._run))

        assert main(["verify", CONFIG, "--suite", "bond", "--n-paths", "2000"]) == 0
        capsys.readouterr()
        main_thread = threading.main_thread().ident
        off_main = [name for name, ident in calls if ident != main_thread]
        assert off_main == ["_run"]  # the exact walk, and nothing else, ran on the worker
        assert "ivoleq.dynamics.cir_mean" in {name for name, _ in calls}
        assert "_BlockMemo.get" in {name for name, _ in calls}


class TestExitCodes:
    def test_missing_config(self, tmp_path, capsys):
        assert main(["table1", str(tmp_path / "absent.json")]) == 2
        assert "config error" in capsys.readouterr().err

    def test_unparseable_config(self, tmp_path, capsys):
        cfg = tmp_path / "broken.json"
        cfg.write_text('{"vol": oops')
        assert main(["table1", str(cfg)]) == 2

    def test_heterogeneous_config_rejected_for_tables(self, tmp_path, capsys):
        cfg = tmp_path / "mixed.json"
        cfg.write_text(
            """
            {
              "vol": {"mu_v": 0.05, "kappa_v": -0.7, "sigma_v": -0.3, "v0": 1.0},
              "horizon_T": 1.0,
              "investors": [
                {"tau": 0.5, "beta_Y": 0.2}, {"tau": 0.4, "beta_Y": 0.3}
              ]
            }
            """
        )
        for command in ("table1", "table2"):
            assert main([command, str(cfg)]) == 2
            err = capsys.readouterr().err
            assert err == "config error: table commands need a homogeneous investor template\n"

    def test_invalid_economy_is_a_typed_exit(self, tmp_path, capsys):
        cfg = tmp_path / "unbalanced.json"
        cfg.write_text(UNBALANCED)
        assert main(["validate", str(cfg)]) == 1
        capsys.readouterr()
        for argv in (["verify", "--n-paths", "200"], ["terminal", "--n-paths", "200"]):
            assert main([argv[0], str(cfg), *argv[1:]]) == 3
            err = capsys.readouterr().err
            assert err == "cannot compute: economy fails validation checks: zero_net_supply\n"

    def test_exploding_exponent_is_a_typed_exit(self, tmp_path, capsys):
        cfg = tmp_path / "exploding.json"
        cfg.write_text(EXPLODING)
        assert main(["validate", str(cfg)]) == 1
        out = capsys.readouterr().out
        assert "[FAIL] exponents_finite_on_horizon: slope exponent explodes at s = 1.888" in out
        for command in ("table1", "curves"):
            assert main([command, str(cfg)]) == 3
            err = capsys.readouterr().err
            assert err == NOT_COMPUTABLE

    def test_table1_validates_every_replicated_economy(self, tmp_path, capsys):
        # the horizon underflows the exponents of every replicated economy
        cfg = tmp_path / "unrepresentable_homogeneous.json"
        cfg.write_text(json.dumps({
            "vol": {"mu_v": 0.05, "kappa_v": 1.0, "sigma_v": -0.3, "v0": 1.0},
            "horizon_T": 1400, "investor": {"tau": 0.5}, "replicate": 2,
        }))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["table1", str(cfg)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == NOT_COMPUTABLE

    @pytest.mark.parametrize("command", ["curves", "terminal"])
    def test_validation_precedes_closed_form(self, tmp_path, capsys, command):
        cfg = tmp_path / "unrepresentable.json"
        cfg.write_text(UNREPRESENTABLE)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, str(cfg), *SMALL.get(command, [])]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == NOT_COMPUTABLE


def draw_config(seed: int, zero_income_risk: bool) -> dict:
    """A random economy in the config format, over the benchmark's ranges.

    About one draw in seven has a negative discriminant; without income
    risk the exponent ODE's constant term is exactly zero.
    """
    rng = np.random.default_rng(seed)
    sigma_v = rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 0.4)
    vol = {
        "mu_v": rng.uniform(0.5 * sigma_v**2 + 0.01, 0.4),
        "kappa_v": rng.uniform(-1.0, 0.3),
        "sigma_v": sigma_v,
        "v0": rng.uniform(0.3, 2.0),
    }
    x0 = rng.uniform(-0.5, 0.5, size=int(rng.integers(1, 4)))
    x0 -= x0.mean()
    risk = 0.0 if zero_income_risk else 1.0
    investors = [
        {
            "tau": rng.uniform(0.3, 1.5),
            "sigma_Y": risk * rng.uniform(0.0, 0.5),
            "beta_Y": risk * rng.uniform(0.0, 0.5),
            "kappa_Y": risk * rng.uniform(-0.3, 0.3),
            "mu_Y": rng.uniform(-0.2, 0.2),
            "Y0": rng.uniform(-1.0, 1.0),
            "X0": float(x),
        }
        for x in x0
    ]
    return {"vol": vol, "horizon_T": rng.uniform(0.5, 2.0), "investors": investors}


class TestValidateMeansComputable:
    @given(seed=st.integers(0, 2**31), zero_income_risk=st.booleans())
    @example(seed=8, zero_income_risk=False)  # negative discriminant, one investor
    @example(seed=41, zero_income_risk=False)  # negative discriminant, three investors
    @example(seed=0, zero_income_risk=True)  # zero constant term
    @settings(max_examples=20, deadline=None)
    def test_every_command_exits_zero_or_one(self, seed, zero_income_risk):
        with tempfile.TemporaryDirectory() as tmp:
            cfg = Path(tmp) / "economy.json"
            cfg.write_text(json.dumps(draw_config(seed, zero_income_risk)))
            if not validate(load_config(cfg)).passed:
                return
            for argv in (
                ["validate"],
                ["curves"],
                ["verify", "--suite", "all", "--n-paths", "300"],
                ["terminal", "--n-paths", "300"],
            ):
                assert main([argv[0], str(cfg), *argv[1:]]) in (0, 1)
