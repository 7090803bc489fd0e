"""Cache-plan construction and capacity invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    AccessStream,
    CachePlan,
    StreamConfig,
    frequency_placement,
    frequency_placement_sparse,
    partition_placement,
)
from repro.core.plan import _tie_jitter
from repro.errors import ConfigurationError


def make_plan(capacities, f=500, workers=3, epochs=6, seed=2):
    c = StreamConfig(seed, f, workers, 5, epochs, drop_last=False)
    stream = AccessStream(c)
    sizes = np.full(f, 0.5)
    placements = [
        frequency_placement(stream.worker_frequencies(w), sizes, capacities, w)
        for w in range(workers)
    ]
    return CachePlan(placements, f, len(capacities)), sizes, stream


class TestFrequencyPlacement:
    def test_capacity_respected(self):
        plan, sizes, _ = make_plan([10.0, 20.0])
        for p in plan.placements:
            for cls, cap in zip(p.class_ids, [10.0, 20.0]):
                assert sizes[cls].sum() <= cap + 1e-9

    def test_hotter_samples_in_faster_class(self):
        plan, _, stream = make_plan([10.0, 20.0])
        for w, p in enumerate(plan.placements):
            freqs = stream.worker_frequencies(w)
            if len(p.class_ids[0]) and len(p.class_ids[1]):
                assert freqs[p.class_ids[0]].min() >= freqs[p.class_ids[1]].max() - 1

    def test_zero_frequency_never_cached(self):
        f = 100
        freqs = np.zeros(f)
        freqs[:10] = 3
        p = frequency_placement(freqs, np.ones(f), [1000.0], 0)
        assert set(p.class_ids[0].tolist()) <= set(range(10))

    def test_all_cached_when_capacity_large(self):
        f = 50
        freqs = np.ones(f)
        p = frequency_placement(freqs, np.ones(f), [1000.0], 0)
        assert len(p.class_ids[0]) == f

    def test_deterministic(self):
        f = 200
        freqs = np.random.default_rng(0).integers(0, 5, f)
        a = frequency_placement(freqs, np.ones(f), [30.0, 40.0], 1)
        b = frequency_placement(freqs, np.ones(f), [30.0, 40.0], 1)
        for x, y in zip(a.class_ids, b.class_ids):
            np.testing.assert_array_equal(x, y)

    def test_tie_break_differs_across_workers(self):
        """Equally-hot samples must spread across workers, not collide."""
        f = 1000
        freqs = np.ones(f)  # all ties
        sizes = np.ones(f)
        a = frequency_placement(freqs, sizes, [50.0], 0)
        b = frequency_placement(freqs, sizes, [50.0], 1)
        overlap = set(a.class_ids[0].tolist()) & set(b.class_ids[0].tolist())
        assert len(overlap) < 25  # ~2.5 expected at random; 25 is generous

    def test_shape_mismatch(self):
        with pytest.raises(ConfigurationError):
            frequency_placement(np.ones(5), np.ones(6), [1.0], 0)

    def test_no_classes(self):
        p = frequency_placement(np.ones(5), np.ones(5), [], 0)
        assert p.cached_ids.size == 0


class TestPartitionPlacement:
    def test_fastest_first(self):
        ids = np.arange(10)
        p = partition_placement(ids, np.ones(10), [4.0, 4.0], 0)
        np.testing.assert_array_equal(p.class_ids[0], np.arange(4))
        np.testing.assert_array_equal(p.class_ids[1], np.arange(4, 8))

    def test_overflow_dropped(self):
        ids = np.arange(10)
        p = partition_placement(ids, np.ones(10), [3.0], 0)
        assert p.cached_ids.size == 3

    def test_empty_shard(self):
        p = partition_placement(np.empty(0, dtype=np.int64), np.ones(5), [3.0], 0)
        assert p.cached_ids.size == 0


class TestCachePlan:
    def test_local_class_map(self):
        plan, _, _ = make_plan([10.0, 20.0])
        for w, p in enumerate(plan.placements):
            mapping = plan.local_class_map(w)
            for cls_idx, ids in enumerate(p.class_ids):
                if len(ids):
                    assert (mapping[ids] == cls_idx).all()
            uncached = np.setdiff1d(np.arange(plan.num_samples), p.cached_ids)
            assert (mapping[uncached] == -1).all()

    def test_best_class_map_is_min(self):
        plan, _, _ = make_plan([10.0, 20.0])
        best = plan.best_class_map()
        maps = [plan.local_class_map(w) for w in range(plan.num_workers)]
        stacked = np.stack(maps)
        stacked_pos = np.where(stacked < 0, 127, stacked)
        expected = stacked_pos.min(axis=0)
        expected = np.where(expected == 127, -1, expected)
        np.testing.assert_array_equal(best, expected.astype(best.dtype))

    def test_holder_counts(self):
        plan, _, _ = make_plan([10.0])
        holders = plan.holder_counts()
        total_cached = sum(p.cached_ids.size for p in plan.placements)
        assert holders.sum() == total_cached

    def test_coverage_fraction_bounds(self):
        plan, _, _ = make_plan([10.0])
        assert 0.0 <= plan.coverage_fraction() <= 1.0

    def test_cached_bytes(self):
        plan, sizes, _ = make_plan([10.0, 20.0])
        for placement in plan.placements:
            assert placement.cached_bytes(sizes) <= 30.0 + 1e-9

    def test_plan_validation(self):
        with pytest.raises(ConfigurationError):
            CachePlan([], 0, 1)


@settings(max_examples=20, deadline=None)
@given(
    cap0=st.floats(min_value=0.0, max_value=50.0),
    cap1=st.floats(min_value=0.0, max_value=50.0),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_property_capacity_never_exceeded(cap0, cap1, seed):
    """Property: no class ever holds more MB than its capacity."""
    f = 300
    rng = np.random.default_rng(seed)
    freqs = rng.integers(0, 6, f)
    sizes = rng.uniform(0.1, 2.0, f)
    p = frequency_placement(freqs, sizes, [cap0, cap1], 0)
    assert sizes[p.class_ids[0]].sum() <= cap0 + 1e-9
    assert sizes[p.class_ids[1]].sum() <= cap1 + 1e-9


# -- the one-sort ranking against the lexsort it replaced ------------------


def _frozen_jitter(ids, worker):
    """``_tie_jitter`` as the lexsort ranking used it (frozen copy)."""
    salt = np.uint64(((worker + 1) * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF)
    with np.errstate(over="ignore"):
        x = ids.astype(np.uint64) * np.uint64(2654435761)
        x ^= salt
        x ^= x >> np.uint64(33)
        x *= np.uint64(0xFF51AFD7ED558CCD)
        x ^= x >> np.uint64(33)
    return x


def _lexsort_placement(accessed_ids, counts, sizes_mb, capacities_mb, worker):
    """``frequency_placement_sparse``'s class ids as its lexsort body built
    them (frozen oracle)."""
    accessed = np.asarray(accessed_ids, dtype=np.int64)
    counts = np.asarray(counts)
    sizes = np.asarray(sizes_mb, dtype=np.float64)
    if accessed.size == 0 or not capacities_mb:
        return [np.empty(0, dtype=np.int64) for _ in capacities_mb]
    jitter = _frozen_jitter(accessed, worker)
    order_idx = np.lexsort((jitter, -counts))
    order = accessed[order_idx]
    cum = np.cumsum(sizes[order_idx])
    class_ids = []
    start = 0
    for capacity in capacities_mb:
        if capacity <= 0 or start >= order.size:
            class_ids.append(np.empty(0, dtype=np.int64))
            continue
        base = float(cum[start - 1]) if start > 0 else 0.0
        end = int(np.searchsorted(cum, base + float(capacity), side="right"))
        class_ids.append(order[start:end].astype(np.int64, copy=False))
        start = end
    return class_ids


def _assert_same_placement(ids, counts, sizes, capacities, worker):
    got = frequency_placement_sparse(ids, counts, sizes, capacities, worker)
    want = _lexsort_placement(ids, counts, sizes, capacities, worker)
    assert len(got.class_ids) == len(want)
    for got_ids, want_ids in zip(got.class_ids, want):
        assert got_ids.dtype == want_ids.dtype
        np.testing.assert_array_equal(got_ids, want_ids)


#: Count-level regimes: one level, a few, more than 256 and more than
#: 65,536 (the widths the packed level field must hold).
LEVELS = {"one": 1, "few": 4, "over-256": 300, "over-65536": 70_000}


class TestOneSortRanking:
    @settings(max_examples=120, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=400),
        levels=st.sampled_from(sorted(LEVELS)),
        duplicates=st.booleans(),
        dtype=st.sampled_from(["int64", "int32", "int8", "float64"]),
        fractions=st.lists(st.floats(0.0, 0.7), min_size=2, max_size=3),
        worker=st.integers(min_value=0, max_value=4096),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_matches_frozen_lexsort(self, n, levels, duplicates, dtype, fractions, worker, seed):
        """Arrays and their order equal the lexsort ranking's, for every
        level regime, count dtype, duplicate ids (the tie fallback) and
        capacities cutting the ranked list mid-way across 2-3 classes."""
        rng = np.random.default_rng(seed)
        if duplicates:
            ids = rng.integers(0, max(2, n // 3), n)
        else:
            ids = rng.choice(10 * n + 10, n, replace=False)
        top = LEVELS[levels]
        if dtype == "int8":
            top = min(top, 200)
            counts = (rng.integers(0, top, n) - 100).astype(np.int8)
        else:
            counts = rng.integers(1, top + 1, n).astype(dtype)
        sizes = rng.uniform(0.05, 2.0, n)
        total = float(sizes.sum())
        capacities = [f * total for f in fractions]
        _assert_same_placement(ids, counts, sizes, capacities, worker)

    def test_only_tied_jitters_take_the_lexsort(self, monkeypatch):
        """Distinct ids never reach the lexsort; a duplicate id at one
        count level (tied jitters) does."""
        calls = []
        lexsort = np.lexsort
        monkeypatch.setattr(np, "lexsort", lambda keys: calls.append(1) or lexsort(keys))
        rng = np.random.default_rng(3)
        ids = rng.choice(100_000, 3_000, replace=False)
        counts = rng.integers(1, 4, ids.size)
        sizes = rng.uniform(0.1, 1.0, ids.size)
        frequency_placement_sparse(ids, counts, sizes, [300.0, 600.0], 7)
        assert calls == []
        ids[1], counts[1] = ids[0], counts[0]
        frequency_placement_sparse(ids, counts, sizes, [300.0, 600.0], 7)
        assert calls == [1]

    def test_jitter_is_a_bijection_on_distinct_ids(self):
        """Why the one-sort path is the rule: distinct ids, distinct jitters."""
        ids = np.arange(200_000, dtype=np.int64)
        for worker in (0, 1, 1023):
            jitter = _tie_jitter(ids, worker)
            np.testing.assert_array_equal(jitter, _frozen_jitter(ids, worker))
            assert np.unique(jitter).size == ids.size

    def test_frequency_table_equals_per_row_unique(self):
        """The one-sort frequency table NoPFS ranks from equals a per-row
        ``np.unique(..., return_counts=True)`` (values and dtypes)."""
        from repro.datasets import DatasetModel
        from repro.perfmodel import sec6_cluster
        from repro.sim import ScenarioContext, SimulationConfig

        config = SimulationConfig(
            dataset=DatasetModel("table", 3_000, 0.1),
            system=sec6_cluster(num_workers=8),
            batch_size=4,
            num_epochs=4,
            seed=11,
        )
        ctx = ScenarioContext(config)
        table = ctx.worker_frequencies_sparse()
        stacked = np.hstack([ctx.epoch_matrix(e) for e in range(config.num_epochs)])
        assert len(table) == ctx.num_workers
        for (ids, counts), row in zip(table, stacked, strict=True):
            want_ids, want_counts = np.unique(row, return_counts=True)
            assert (ids.dtype, counts.dtype) == (want_ids.dtype, want_counts.dtype)
            np.testing.assert_array_equal(ids, want_ids)
            np.testing.assert_array_equal(counts, want_counts)
        assert any((counts > 1).any() for _, counts in table)
