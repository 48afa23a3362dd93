"""Random blocks drawn once and only where read: the idiosyncratic
increments of the first-order-condition walk, the increment-free terminal
check and shared chunk loops."""

from __future__ import annotations

import tracemalloc
import weakref

import numpy as np
import pytest

from conftest import heterogeneous_economy, reference_economy
from ivoleq import dynamics
from ivoleq.dynamics import (
    SimConfig,
    foc_order,
    martingale_checks,
    simulate,
    verify_budget_martingale,
    verify_foc,
)
from ivoleq.terminal import verify_terminal_clearing


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
        # the first-order-condition walk's block of investor i is the reference's dZ[i]
        econ = reference_economy(4)
        full = simulate(econ, _sim()).dZ
        chunk = dynamics._one_chunk(econ, _sim())
        for i in order:
            assert np.array_equal(dynamics._investor_dz(chunk, i), full[i])

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


def test_foc_order_draws_no_increments(monkeypatch):
    simulate_chunk = dynamics._simulate_chunk

    def without_idiosyncratic_stream(ctx, seed, m):
        chunk = simulate_chunk(ctx, seed, m)
        chunk.z_seed = None  # a dZ draw from this chunk raises
        return chunk

    monkeypatch.setattr(dynamics, "_simulate_chunk", without_idiosyncratic_stream)
    rep = foc_order(heterogeneous_economy(), _sim(steps_per_year=16), doublings=2)
    assert rep.order > 0.5
    with pytest.raises(ValueError, match="without this random stream"):
        verify_foc(heterogeneous_economy(), _sim())


class TestInvestorIndex:
    """``investor``, and the budget check's checkpoints, are resolved before
    any path is drawn."""

    CHECKS = {
        "verify_foc": lambda econ, i: verify_foc(econ, _sim(), investor=i),
        "foc_order": lambda econ, i: foc_order(econ, _sim(steps_per_year=16), investor=i),
        "verify_budget_martingale": lambda econ, i: verify_budget_martingale(
            econ, _sim(n_paths=16, steps_per_year=12), investor=i, inner_paths=8),
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

    @pytest.mark.parametrize("checkpoint", [-0.25, 1.5])
    def test_checkpoint_outside_the_horizon_is_refused_before_drawing(self, monkeypatch,
                                                                      checkpoint):
        def refuse(*args):
            raise AssertionError("paths were drawn for an invalid checkpoint")

        monkeypatch.setattr(dynamics, "_simulate_chunk", refuse)
        econ = heterogeneous_economy()
        assert econ.horizon == 1.0
        with pytest.raises(ValueError, match=rf"checkpoint {checkpoint} is outside \[0, 1.0\]"):
            verify_budget_martingale(econ, _sim(n_paths=16, steps_per_year=12),
                                     checkpoints=(0.5, checkpoint), inner_paths=8)


class TestSharedChunkLoop:
    def test_plans_on_different_streams_are_refused(self):
        econ = reference_economy(2)
        with pytest.raises(ValueError, match="different path streams"):
            dynamics._run(
                dynamics._martingale_plan(econ, _sim()),
                dynamics._martingale_plan(econ, _sim(seed=6)),
            )

    def test_previous_chunk_is_freed_before_the_next(self, monkeypatch):
        simulate_chunk = dynamics._simulate_chunk
        made = []

        def spy(ctx, seed, m):
            assert all(ref() is None for ref in made), "a previous chunk is alive"
            chunk = simulate_chunk(ctx, seed, m)
            made.extend([weakref.ref(chunk), weakref.ref(chunk.dW)])
            return chunk

        monkeypatch.setattr(dynamics, "_simulate_chunk", spy)
        martingale_checks(heterogeneous_economy(), _sim(chunk_size=16))
        assert len(made) == 2 * 4


class TestIncrementDraw:
    @pytest.mark.parametrize("antithetic", [False, True], ids=["plain", "antithetic"])
    def test_in_place_draw_equals_scaled_copy(self, antithetic):
        sim = _sim(n_paths=32, antithetic=antithetic)
        ctx = dynamics._SimContext(reference_economy(2), sim, 1.0)
        got = dynamics._simulate_chunk(ctx, np.random.SeedSequence(9), 32).dW
        w_seed = np.random.SeedSequence(9).spawn(3)[0]
        gen = np.random.Generator(np.random.Philox(w_seed))
        if antithetic:
            base = gen.standard_normal((16, ctx.n_steps))
            want = np.sqrt(ctx.dt) * np.concatenate([base, -base], axis=0)
        else:
            want = np.sqrt(ctx.dt) * gen.standard_normal((32, ctx.n_steps))
        assert np.array_equal(got, want)


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
    # one walk of one 4096 x 252 chunk: the dW block, the investor's dZ block
    # (the second of the stream, drawn into the same buffer as the first) and
    # (paths,) vectors
    econ = heterogeneous_economy()
    sim = SimConfig(n_paths=4096, seed=3, antithetic=False)
    block = sim.n_paths * sim.n_steps(econ.horizon) * 8
    assert _peak_bytes(lambda: verify_foc(econ, sim, investor=1)) < 3 * block
