"""The shared Monte Carlo mean and standard-error accumulator."""

from __future__ import annotations

import numpy as np
import pytest

from ivoleq.dynamics import SimConfig, _Moments


class TestMomentsAccumulator:
    def test_uneven_chunks_match_one_two_pass(self):
        rng = np.random.default_rng(4)
        sizes = (1, 7, 300, 64, 2, 513)
        chunks = [rng.normal(3.0, 2.0, size=(2, k)) for k in sizes]
        acc = _Moments()
        for chunk in chunks:
            acc.add(chunk)
        whole = np.concatenate(chunks, axis=-1)
        assert acc.n == whole.shape[-1]
        np.testing.assert_allclose(acc.mean, whole.mean(axis=-1), rtol=1e-15, atol=0.0)
        np.testing.assert_allclose(
            acc.m2 / (acc.n - 1), whole.var(axis=-1, ddof=1), rtol=1e-15, atol=0.0
        )

    def test_antithetic_chunks_fold_into_pair_means(self):
        rng = np.random.default_rng(5)
        chunks = [rng.normal(-1.0, 0.5, size=k) for k in (2, 10, 600, 36)]
        acc = _Moments()
        for chunk in chunks:
            acc.add(chunk, paired=True)
        pairs = np.concatenate([0.5 * (c[: c.size // 2] + c[c.size // 2 :]) for c in chunks])
        assert acc.n == pairs.size
        assert acc.mean == pytest.approx(pairs.mean(), rel=1e-15, abs=0.0)
        assert acc.m2 / (acc.n - 1) == pytest.approx(pairs.var(ddof=1), rel=1e-15, abs=0.0)

    def test_large_mean_does_not_cancel(self):
        # pooled raw sums and sums of squares miss this SE by 80% on this draw
        vals = 1e8 + np.random.default_rng(6).standard_normal(10_000)
        acc = _Moments()
        for chunk in (vals[:8192], vals[8192:]):
            acc.add(chunk)
        est = acc.estimate(SimConfig(n_paths=vals.size))
        exact = vals.std(ddof=1) / np.sqrt(vals.size)
        assert est.standard_error == pytest.approx(exact, rel=1e-12, abs=0.0)
