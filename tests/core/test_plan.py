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
    partition_placement,
)
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
