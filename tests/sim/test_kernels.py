"""Unit contracts for the epoch-matrix kernels.

Each kernel's promise is "same floating-point operations as the seed
per-worker loop, for all workers at once"; these tests pin the batched
form against the obvious per-worker computation, elementwise and
bitwise.
"""

import numpy as np
import pytest

from repro.perfmodel import Source
from repro.sim import kernels


@pytest.fixture()
def rng():
    return np.random.default_rng(42)


class TestHash01:
    def test_shape_agnostic(self, rng):
        ids = rng.integers(0, 10_000, size=(5, 32))
        np.testing.assert_array_equal(kernels.hash01(ids)[2], kernels.hash01(ids[2]))

    def test_deterministic_uniform_range(self, rng):
        ids = rng.integers(0, 1 << 40, size=1_000)
        u = kernels.hash01(ids)
        assert ((u >= 0) & (u < 1)).all()
        np.testing.assert_array_equal(u, kernels.hash01(ids))


class TestWarmupRemoteClasses:
    def test_matches_per_worker_reference(self, rng):
        n, length, f = 4, 48, 500
        ids = rng.integers(0, f, size=(n, length))
        best_map = rng.integers(-1, 3, size=f).astype(np.int8)
        out = kernels.warmup_remote_classes(ids, best_map)
        assert out.dtype == np.int8
        for w in range(n):
            row = ids[w]
            progress = np.arange(1, length + 1, dtype=np.float64) / length
            available = kernels.hash01(row) < progress
            expected = np.where(available, best_map[row], np.int8(-1)).astype(np.int8)
            np.testing.assert_array_equal(out[w], expected)


class TestBatchTotals:
    def test_bitwise_matches_per_worker_reshape_sum(self, rng):
        n, t, b = 6, 7, 5
        values = rng.random((n, t * b))
        out = kernels.batch_totals(values, t, b)
        assert out.shape == (n, t)
        for w in range(n):
            np.testing.assert_array_equal(out[w], values[w].reshape(t, b).sum(axis=1))


class TestSourceTotals:
    def test_counts_and_weights_match_per_worker_bincount(self, rng):
        n, length = 5, 64
        sources = rng.integers(0, kernels.NUM_SOURCES, size=(n, length)).astype(np.int8)
        weights = rng.random((n, length))
        index = kernels.source_index(sources)
        got_counts = kernels.source_totals(index)
        got_weighted = kernels.source_totals(index, weights)
        assert got_counts.dtype.kind in "iu" or got_counts.dtype == np.float64
        for w in range(n):
            np.testing.assert_array_equal(
                got_counts[w].astype(np.int64),
                np.bincount(sources[w], minlength=4)[:4],
            )
            np.testing.assert_array_equal(
                got_weighted[w],
                np.bincount(sources[w], weights=weights[w], minlength=4)[:4],
            )

    def test_empty_source_bucket_is_zero(self):
        sources = np.full((2, 8), int(Source.LOCAL), dtype=np.int8)
        totals = kernels.source_totals(kernels.source_index(sources))
        assert totals[:, int(Source.PFS)].sum() == 0
        assert (totals[:, int(Source.LOCAL)] == 8).all()


class TestAccumulateRows:
    def test_strict_sequential_order(self, rng):
        rows = rng.random((9, 4))
        expected = np.zeros(4)
        for row in rows:
            expected += row
        np.testing.assert_array_equal(kernels.accumulate_rows(rows), expected)


class TestPairIndex:
    def test_enumerates_pairs_in_row_order(self):
        local = np.repeat(np.arange(-1, 2, dtype=np.int8), 3)
        remote = np.tile(np.arange(-1, 2, dtype=np.int8), 3)
        np.testing.assert_array_equal(kernels.pair_index(local, remote, 2), np.arange(9))

    def test_formula(self, rng):
        local = rng.integers(-1, 3, size=(4, 16)).astype(np.int8)
        remote = rng.integers(-1, 3, size=(4, 16)).astype(np.int8)
        expected = (local.astype(int) + 1) * 4 + (remote.astype(int) + 1)
        np.testing.assert_array_equal(kernels.pair_index(local, remote, 3), expected)


class TestInterferenceFactors:
    def test_matches_scalar_formula(self, rng):
        source_bytes = rng.random((4, 4)) * 100
        out = kernels.interference_factors(source_bytes, 0.5)
        for w in range(4):
            total = source_bytes[w].sum()
            frac = (
                source_bytes[w, int(Source.PFS)] + 0.5 * source_bytes[w, int(Source.REMOTE)]
            ) / total
            assert out[w] == 1.0 + 0.5 * frac

    def test_idle_worker_factor_is_one(self):
        source_bytes = np.zeros((2, 4))
        source_bytes[1, int(Source.LOCAL)] = 10.0
        out = kernels.interference_factors(source_bytes, 0.8)
        assert out[0] == 1.0
        assert out[1] == 1.0  # local-only traffic does not interfere
