"""Random blocks drawn once and only where read: the idiosyncratic
increments of the full-path reference, the increment-free pathwise and
terminal checks, shared chunk loops across measures, the one-block memo
across calls, and blocks bounded by the chunk size."""

from __future__ import annotations

import dataclasses
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from conftest import heterogeneous_economy, reference_economy
from ivoleq import dynamics
from ivoleq.dynamics import (
    SimConfig,
    martingale_checks,
    mc_annuity,
    mc_bond_price,
    mc_risk_premium,
    mc_state_mean,
    simulate,
    solve_multipliers,
    verify_clearing,
    verify_foc,
    verify_forward_measure,
    weak_convergence_study,
)
from ivoleq.terminal import solve_terminal_multipliers, verify_terminal_clearing


def _sim(**over) -> SimConfig:
    base = dict(n_paths=64, steps_per_year=24, seed=5, antithetic=False)
    base.update(over)
    return SimConfig(**base)


class TestStreamedIncrements:
    @pytest.mark.parametrize(
        "order",
        [(0, 1, 2, 3), (2, 0, 3, 1), (1, 1, 0, 0, 3, 3)],
        ids=["in_order", "out_of_order", "repeated"],
    )
    def test_blocks_equal_full_draw_bitwise(self, order):
        # the reference's dZ[i] is the (i + 1)-th (paths, steps) block of the
        # chunk's idiosyncratic stream, whichever investor is read first
        econ = reference_economy(4)
        bundle = simulate(econ, _sim())
        chunk = dynamics._one_chunk(econ, _sim())
        gen = dynamics._philox(chunk.z_seed)
        blocks = [dynamics._draw_increments(gen, np.empty((chunk.m, chunk.n_steps)), chunk.dt)
                  for _ in range(econ.n_investors)]
        for i in order:
            assert np.array_equal(bundle.dZ[i], blocks[i])

    def test_functionals_agree_with_the_full_draw(self):
        econ = heterogeneous_economy()
        streamed = simulate(econ, _sim())
        full = simulate(econ, _sim())
        full.dZ
        for i in (1, 0):
            assert np.array_equal(streamed.log_belief_density(i), full.log_belief_density(i))
            for a, b in zip(streamed.income_paths(i), full.income_paths(i)):
                assert np.array_equal(a, b)

    def test_insured_income_is_second_income_path(self):
        bundle = simulate(heterogeneous_economy(), _sim())
        for i in (0, 1):
            assert np.array_equal(bundle.insured_income(i), bundle.income_paths(i)[1])


class TestTerminalDrawsNoIncrements:
    def test_clearing_never_reads_increments(self, monkeypatch):
        def refuse(self):
            raise AssertionError("terminal clearing read idiosyncratic increments")

        monkeypatch.setattr(dynamics.PathBundle, "dZ", property(refuse))
        rep = verify_terminal_clearing(heterogeneous_economy(), _sim())
        assert rep.max_residual <= rep.dt


def test_verify_foc_draws_no_increments(monkeypatch):
    # verify_foc draws no dZ: it reads one coefficient row
    simulate_chunk = dynamics._simulate_chunk

    def without_idiosyncratic_stream(ctx, seed, m):
        chunk = simulate_chunk(ctx, seed, m)
        chunk.z_seed = None  # a dZ draw from this chunk raises
        return chunk

    monkeypatch.setattr(dynamics, "_simulate_chunk", without_idiosyncratic_stream)
    for investor in (0, 1):
        rep = verify_foc(heterogeneous_economy(), _sim(), investor=investor)
        assert rep.max_insured <= rep.dt


class TestInvestorIndex:
    """``investor`` is resolved before any path is drawn."""

    CHECKS = {
        "verify_foc": lambda econ, i: verify_foc(econ, _sim(), investor=i),
    }

    @pytest.mark.parametrize("name", CHECKS)
    def test_negative_index_counts_from_the_end(self, name):
        econ = heterogeneous_economy()
        got, want = (self.CHECKS[name](econ, i) for i in (-1, 1))
        assert got == want
        if hasattr(got, "investor"):
            assert got.investor == 1

    @pytest.mark.parametrize("name", CHECKS)
    @pytest.mark.parametrize("investor", [2, -3])
    def test_out_of_range_is_refused_before_drawing(self, monkeypatch, name, investor):
        def refuse(*args):
            raise AssertionError("paths were drawn for an invalid investor")

        monkeypatch.setattr(dynamics, "_simulate_chunk", refuse)
        message = f"investor {investor} is out of range for 2 investors"
        with pytest.raises(ValueError, match=message):
            self.CHECKS[name](heterogeneous_economy(), investor)


class TestSharedChunkLoop:
    def test_plans_on_different_streams_are_refused(self):
        econ = reference_economy(2)
        with pytest.raises(ValueError, match="different path streams"):
            dynamics._run(
                dynamics._martingale_plan(econ, _sim()),
                dynamics._martingale_plan(econ, _sim(seed=6)),
            )

    def test_previous_chunk_is_freed_before_the_next(self, monkeypatch):
        # the memo holds the last block until the next draw, which empties it
        # first: no earlier chunk is alive when a chunk is made, and no other
        # block when a block is drawn
        simulate_chunk, draw_increments = dynamics._simulate_chunk, dynamics._draw_increments
        chunks, blocks = [], []

        def chunk_spy(ctx, seed, m):
            assert all(ref() is None for ref in chunks), "a previous chunk is alive"
            chunk = simulate_chunk(ctx, seed, m)
            chunks.append(weakref.ref(chunk))
            return chunk

        def draw_spy(gen, out, dt):
            assert dynamics._BLOCKS.slot is None, "the memo holds a block at a draw"
            assert all(ref() is None for ref in blocks), "another block is alive"
            blocks.append(weakref.ref(out if out.base is None else out.base))
            return draw_increments(gen, out, dt)

        monkeypatch.setattr(dynamics._BLOCKS, "slot", None)
        monkeypatch.setattr(dynamics, "_simulate_chunk", chunk_spy)
        monkeypatch.setattr(dynamics, "_draw_increments", draw_spy)
        martingale_checks(heterogeneous_economy(), _sim(chunk_size=16))
        assert len(chunks) == len(blocks) == 4

    @pytest.mark.parametrize("antithetic", [False, True], ids=["plain", "antithetic"])
    @pytest.mark.parametrize("streams", ["P_and_Qmin", "QU_and_P", "exact_P_and_Qmin"])
    def test_measures_on_one_stream_equal_separate_runs(self, monkeypatch, streams, antithetic):
        econ = heterogeneous_economy()
        sim = _sim(chunk_size=16, antithetic=antithetic)
        plans = {
            "P_and_Qmin": lambda: [
                dynamics._martingale_plan(econ, sim),
                dynamics._multipliers_plan(econ, sim),
                dynamics._bond_plan(econ, econ.horizon, sim),
                dynamics._bond_plan(econ, econ.horizon, sim, benchmark=True),
                dynamics._annuity_plan(econ, sim),
            ],
            "QU_and_P": lambda: [
                plan for sec in ("bond", "annuity") for plan in (
                    dynamics._forward_plan(econ, 0.5, sim, sec),
                    dynamics._premium_plan(econ, 0.5, sec, sim))
            ],
            "exact_P_and_Qmin": lambda: [
                dynamics._bond_plan(econ, econ.horizon, replace(sim, scheme="exact")),
                dynamics._annuity_plan(econ, replace(sim, scheme="exact")),
                dynamics._mean_plan(
                    dynamics._SimContext(econ, replace(sim, scheme="exact"), econ.horizon),
                    lambda ch: dynamics._then(ch, lambda ch: ch.v)),
            ],
        }[streams]
        shared = dynamics._run(*plans())
        alone = []
        for plan in plans():
            monkeypatch.setattr(dynamics._BLOCKS, "slot", None)  # a fresh draw
            alone.append(dynamics._run(plan)[0])
        assert _flat(shared) == _flat(alone)


def _flat(result) -> list[float]:
    """Every number of a (nested) result, in order."""
    if dataclasses.is_dataclass(result):
        result = [getattr(result, f.name) for f in dataclasses.fields(result)]
    if isinstance(result, (list, tuple, np.ndarray)):
        return [x for item in result for x in _flat(item)]
    return [result]


def _block(econ, sim: SimConfig) -> np.ndarray:
    """The increments of the first chunk of ``sim``'s stream."""
    ctx = dynamics._SimContext(econ, sim, econ.horizon)
    return dynamics._simulate_chunk(ctx, np.random.SeedSequence(sim.seed).spawn(1)[0],
                                    sim.n_paths).dW


class TestBlockMemo:
    def test_hit_is_the_held_block_read_only_and_equal_to_a_fresh_draw(self, monkeypatch):
        econ, sim = reference_economy(2), _sim(n_paths=32)
        monkeypatch.setattr(dynamics._BLOCKS, "slot", None)
        first = _block(econ, sim)
        hit = _block(econ, sim)
        assert hit is first and not hit.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            hit[0, 0] = 0.0
        # the held block is step-major, and its rows, which the walk reads,
        # are read-only too
        rows = hit.T
        assert rows.flags.c_contiguous and not rows.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            rows[0, 0] = 0.0
        monkeypatch.setattr(dynamics._BLOCKS, "slot", None)
        fresh = _block(econ, sim)
        assert fresh is not hit and np.array_equal(fresh, hit)

    @pytest.mark.parametrize(
        "over", [dict(seed=6), dict(n_paths=30), dict(steps_per_year=25), dict(antithetic=True)],
        ids=["seed", "paths", "steps", "antithetic"],
    )
    def test_another_stream_misses_and_replaces_the_held_block(self, monkeypatch, over):
        econ, base = reference_economy(2), _sim(n_paths=32)
        held = _block(econ, base)
        other = _block(econ, replace(base, **over))
        assert other is not held and not np.shares_memory(other, held)
        assert dynamics._BLOCKS.slot[1] is other
        monkeypatch.setattr(dynamics._BLOCKS, "slot", None)
        assert np.array_equal(_block(econ, replace(base, **over)), other)
        assert not np.array_equal(_block(econ, base), other)

    @pytest.mark.parametrize("chunk_size", [8192, 16], ids=["one_chunk", "above_chunk_size"])
    def test_simulate_draws_a_fresh_writable_block(self, chunk_size):
        # the memo serves only the chunk loops: simulate's block, on the
        # stream of the held block or not, is its own and is not held
        econ, sim = reference_economy(2), _sim(n_paths=32, chunk_size=chunk_size)
        held = _block(econ, replace(sim, chunk_size=8192))
        first, second = simulate(econ, sim).dW, simulate(econ, sim).dW
        assert dynamics._BLOCKS.slot is None
        assert first.flags.writeable and np.array_equal(first, held)
        assert not np.shares_memory(first, held) and not np.shares_memory(first, second)
        first *= 2.0


_ESTIMATORS = {
    "mc_state_mean": mc_state_mean,
    "mc_bond_price": lambda econ, sim: mc_bond_price(econ, 1.0, sim),
    "mc_bond_price.exact": lambda econ, sim: mc_bond_price(econ, 1.0, replace(sim, scheme="exact")),
    "mc_annuity": mc_annuity,
    "verify_forward_measure": lambda econ, sim: verify_forward_measure(econ, 0.5, sim, "annuity"),
    "mc_risk_premium": lambda econ, sim: mc_risk_premium(econ, 0.5, "annuity", sim),
    "martingale_checks": martingale_checks,
    "solve_multipliers": solve_multipliers,
    "verify_clearing": verify_clearing,
    "verify_foc": verify_foc,
    "weak_convergence_study": lambda econ, sim: weak_convergence_study(
        econ, 0.5, replace(sim, steps_per_year=8)),
    "verify_terminal_clearing": verify_terminal_clearing,
    "solve_terminal_multipliers": solve_terminal_multipliers,
}


@pytest.mark.parametrize("name", _ESTIMATORS)
def test_no_check_draws_a_chunk_above_chunk_size(monkeypatch, name):
    simulate_chunk = dynamics._simulate_chunk
    sizes = []

    def spy(ctx, seed, m):
        sizes.append(m)
        return simulate_chunk(ctx, seed, m)

    monkeypatch.setattr(dynamics, "_simulate_chunk", spy)
    _ESTIMATORS[name](heterogeneous_economy(), _sim(chunk_size=16))
    assert len(sizes) >= 4 and max(sizes) <= 16
    held = dynamics._BLOCKS.slot
    assert held is None or held[1].shape[0] <= 16


class TestIncrementDraw:
    @pytest.mark.parametrize("antithetic", [False, True], ids=["plain", "antithetic"])
    def test_in_place_draw_equals_scaled_copy(self, antithetic):
        # the step-major block is filled 256 paths at a time and holds the
        # stream of one (paths, steps) draw: below, at and across a tile's
        # edge, over many tiles, and over an odd number of steps
        w_seed = np.random.SeedSequence(9).spawn(3)[0]
        for drawn in (2, 255, 256, 257, 8192):
            m = 2 * drawn if antithetic else drawn
            sim = _sim(n_paths=m, steps_per_year=25, antithetic=antithetic)
            ctx = dynamics._SimContext(reference_economy(2), sim, 1.0)
            chunk = dynamics._simulate_chunk(ctx, np.random.SeedSequence(9), m)
            gen = np.random.Generator(np.random.Philox(w_seed))
            base = gen.standard_normal((drawn, ctx.n_steps))
            if antithetic:
                want = np.sqrt(ctx.dt) * np.concatenate([base, -base], axis=0)
            else:
                want = np.sqrt(ctx.dt) * base
            assert ctx.n_steps == 25 and np.array_equal(chunk.dW, want), drawn
            for k in range(ctx.n_steps):
                assert np.array_equal(chunk.draw(k), want[:, k]), (drawn, k)


def _peak_bytes(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "check", [martingale_checks, verify_foc], ids=["martingale_checks", "verify_foc"]
)
def test_memory_is_bounded_by_one_investor(check):
    econ = reference_economy(64)
    sim = SimConfig(n_paths=256, seed=3, antithetic=False)
    full_block = econ.n_investors * sim.n_paths * sim.n_steps(econ.horizon) * 8
    assert _peak_bytes(lambda: check(econ, sim)) < full_block / 2


def test_martingale_check_draws_no_increment_block():
    econ = reference_economy(256)
    sim = SimConfig(n_paths=256, seed=3, antithetic=False)
    full_dz = econ.n_investors * sim.n_paths * sim.n_steps(econ.horizon) * 8
    assert _peak_bytes(lambda: martingale_checks(econ, sim)) < full_dz / 20


def test_walk_holds_one_increment_block():
    # martingale and multipliers share one walk of one 8192 x 252 chunk: besides
    # the chunk's dW block only (paths,) vectors and (investors, paths) rows live
    econ = reference_economy(2)
    sim = SimConfig(n_paths=8192, seed=3, antithetic=False)
    block = sim.n_paths * sim.n_steps(econ.horizon) * 8
    peak = _peak_bytes(lambda: dynamics._run(
        dynamics._martingale_plan(econ, sim), dynamics._multipliers_plan(econ, sim)
    ))
    assert peak < 1.5 * block


def test_foc_check_holds_one_increment_block_per_stream():
    # one walk of one 4096 x 252 chunk: the dW block, no dZ block, and the
    # (4, paths) basis and (paths,) vectors
    econ = heterogeneous_economy()
    sim = SimConfig(n_paths=4096, seed=3, antithetic=False)
    block = sim.n_paths * sim.n_steps(econ.horizon) * 8
    assert _peak_bytes(lambda: verify_foc(econ, sim, investor=1)) < 1.5 * block


@pytest.mark.parametrize(
    "check", [verify_clearing, verify_terminal_clearing],
    ids=["verify_clearing", "verify_terminal_clearing"],
)
def test_pathwise_sums_hold_no_investor_rows(check):
    # 256 investors over 24 steps: one (investors, paths) array outweighs the
    # chunk's dW block, basis and vectors together several times over
    econ = reference_economy(256)
    sim = SimConfig(n_paths=512, steps_per_year=24, seed=3, antithetic=False)
    rows = econ.n_investors * sim.n_paths * 8
    check(econ, sim)  # first-call allocations of the library are not the check's
    assert _peak_bytes(lambda: check(econ, sim)) < rows / 2
