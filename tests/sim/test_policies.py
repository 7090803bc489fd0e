"""Per-policy preparation behaviour and Table 1 capability rows."""

import numpy as np
import pytest

from repro.api import fig8_lineup, table1_lineup
from repro.datasets import DatasetModel
from repro.errors import ConfigurationError, PolicyError
from repro.perfmodel import sec6_cluster
from repro.sim import (
    DeepIOPolicy,
    DoubleBufferPolicy,
    LBANNPolicy,
    LocalityAwarePolicy,
    NaivePolicy,
    NoPFSPolicy,
    ParallelStagingPolicy,
    PerfectPolicy,
    ScenarioContext,
    SimulationConfig,
    StagingBufferPolicy,
    WorkerLookup,
)
from repro.units import GB, TB


def ctx(total_mb=100.0, n_samples=2_000, epochs=3):
    ds = DatasetModel("x", n_samples, total_mb / n_samples)
    cfg = SimulationConfig(
        dataset=ds, system=sec6_cluster(), batch_size=8, num_epochs=epochs
    )
    return ScenarioContext(cfg)


class TestWorkerLookup:
    def test_lookup_roundtrip(self):
        lk = WorkerLookup((np.array([5, 2]), np.array([9])))
        out = lk.classes_of(np.array([2, 5, 9, 7]))
        np.testing.assert_array_equal(out, [0, 0, 1, -1])

    def test_empty(self):
        lk = WorkerLookup((np.empty(0, dtype=np.int64),))
        np.testing.assert_array_equal(lk.classes_of(np.array([1, 2])), [-1, -1])
        assert all(ids.size == 0 for ids in lk.class_ids)


class TestSimplePolicies:
    def test_perfect(self):
        prep = PerfectPolicy().prepare(ctx())
        assert prep.ideal and prep.plan is None

    def test_naive(self):
        prep = NaivePolicy().prepare(ctx())
        assert not prep.overlap and prep.plan is None

    def test_staging_buffer(self):
        prep = StagingBufferPolicy().prepare(ctx())
        assert prep.plan is None and prep.overlap
        assert prep.lookahead_batches is None

    def test_double_buffer_depth(self):
        prep = DoubleBufferPolicy(prefetch_batches=2).prepare(ctx())
        assert prep.lookahead_batches == 2
        with pytest.raises(ValueError):
            DoubleBufferPolicy(prefetch_batches=0)


class TestDeepIO:
    def test_bad_mode(self):
        with pytest.raises(ConfigurationError):
            DeepIOPolicy("eager")

    def test_ordered_caches_ram_only(self):
        prep = DeepIOPolicy("ordered").prepare(ctx())
        for placement in prep.plan.placements:
            assert all(len(ids) == 0 for ids in placement.class_ids[1:])

    def test_ordered_first_touch(self):
        c = ctx()
        prep = DeepIOPolicy("ordered").prepare(c)
        for worker, placement in enumerate(prep.plan.placements):
            epoch0 = set(c.worker_epoch_ids(worker, 0).tolist())
            assert set(placement.cached_ids.tolist()) <= epoch0

    def test_opportunistic_never_pfs(self):
        prep = DeepIOPolicy("opportunistic").prepare(ctx())
        assert not prep.pfs_in_warm
        assert prep.warm_pfs_fraction == 0.0
        assert prep.pools is not None

    def test_opportunistic_stream_only_cached(self):
        c = ctx()
        prep = DeepIOPolicy("opportunistic").prepare(c)
        cached0 = set(prep.plan.placements[0].cached_ids.tolist())
        stream = c.tiled_epoch_stream(prep.pools[0], 0, 1, prep.name)
        assert set(stream.tolist()) <= cached0

    def test_opportunistic_pools_are_the_ram_tier(self):
        prep = DeepIOPolicy("opportunistic").prepare(ctx())
        for pool, placement in zip(prep.pools, prep.plan.placements, strict=True):
            assert np.shares_memory(pool, placement.class_ids[0])


class TestParallelStaging:
    def test_prestage_paid(self):
        prep = ParallelStagingPolicy().prepare(ctx())
        assert prep.prestage_time_s > 0
        assert prep.warm_epochs == 0

    def test_shards_disjoint(self):
        prep = ParallelStagingPolicy().prepare(ctx())
        assert prep.plan.holder_counts().max() <= 1

    def test_small_dataset_fully_covered(self):
        prep = ParallelStagingPolicy().prepare(ctx())
        assert prep.accesses_full_dataset

    def test_huge_dataset_not_covered(self):
        c = ctx(total_mb=6 * TB)
        prep = ParallelStagingPolicy().prepare(c)
        assert not prep.accesses_full_dataset

    def test_pools_are_the_ram_tier(self):
        prep = ParallelStagingPolicy().prepare(ctx())
        for pool, placement in zip(prep.pools, prep.plan.placements, strict=True):
            assert np.shares_memory(pool, placement.class_ids[0])


class TestLBANN:
    def test_bad_mode(self):
        with pytest.raises(ConfigurationError):
            LBANNPolicy("lazy")

    def test_overflow_rejected(self):
        """S >> aggregate RAM (480 GB) -> the paper's 'Does not support'."""
        with pytest.raises(PolicyError):
            LBANNPolicy("dynamic").prepare(ctx(total_mb=1.5 * TB))

    def test_slight_overflow_tolerated(self):
        """The OpenImages case: ~4% above aggregate RAM still runs."""
        prep = LBANNPolicy("dynamic").prepare(ctx(total_mb=500 * GB))
        assert prep.plan is not None

    def test_single_owner(self):
        prep = LBANNPolicy("dynamic").prepare(ctx())
        assert prep.plan.holder_counts().max() <= 1

    def test_memory_only(self):
        prep = LBANNPolicy("dynamic").prepare(ctx())
        for placement in prep.plan.placements:
            assert all(len(ids) == 0 for ids in placement.class_ids[1:])

    def test_preloading_pays_prestage(self):
        prep = LBANNPolicy("preloading").prepare(ctx())
        assert prep.prestage_time_s > 0 and prep.warm_epochs == 0
        assert LBANNPolicy("dynamic").prepare(ctx()).prestage_time_s == 0.0


class TestLocalityAware:
    def test_full_coverage_flag(self):
        prep = LocalityAwarePolicy().prepare(ctx())
        assert prep.accesses_full_dataset

    def test_pools_partition_dataset(self):
        c = ctx()
        prep = LocalityAwarePolicy().prepare(c)
        pools = [
            set(c.tiled_epoch_stream(prep.pools[w], w, 1, prep.name).tolist())
            for w in range(c.num_workers)
        ]
        # streams are truncated to L, so pools need not be exhaustive, but
        # they must be pairwise disjoint (each sample has one serving pool)
        for i in range(len(pools)):
            for j in range(i + 1, len(pools)):
                assert not (pools[i] & pools[j])

    def test_leftover_fraction_zero_when_fits(self):
        prep = LocalityAwarePolicy().prepare(ctx())
        assert prep.warm_pfs_fraction == 0.0

    def test_leftover_fraction_positive_when_overflow(self):
        prep = LocalityAwarePolicy().prepare(ctx(total_mb=6 * TB))
        assert prep.warm_pfs_fraction > 0.0


class TestNoPFS:
    def test_uses_full_hierarchy(self):
        c = ctx(total_mb=800 * GB)  # forces spill into SSD
        prep = NoPFSPolicy().prepare(c)
        spilled = any(
            len(p.class_ids[1]) > 0 for p in prep.plan.placements
        )
        assert spilled

    def test_caches_by_own_frequency(self):
        c = ctx()
        prep = NoPFSPolicy().prepare(c)
        for worker, placement in enumerate(prep.plan.placements):
            freqs = c.stream.worker_frequencies(worker)
            cached = placement.cached_ids
            if cached.size:
                assert freqs[cached].min() >= 1

    def test_full_coverage_small_dataset(self):
        prep = NoPFSPolicy().prepare(ctx())
        # every accessed sample is cached somewhere when capacity allows
        assert prep.best_map is not None

    def test_warm_after_first_epoch(self):
        prep = NoPFSPolicy().prepare(ctx())
        assert prep.warm_epochs == 1


class TestRegistry:
    def test_fig8_lineup_order(self):
        names = [p.name for p in fig8_lineup()]
        assert names == [
            "naive",
            "staging_buffer",
            "deepio_ordered",
            "deepio_opportunistic",
            "parallel_staging",
            "lbann_dynamic",
            "lbann_preloading",
            "locality_aware",
            "nopfs",
        ]

    def test_table1_rows_match_paper(self):
        """Table 1's check/cross pattern, row by row."""
        rows = {p.name: p.capabilities.as_row() for p in table1_lineup()}
        assert rows["pytorch"] == ("no", "yes", "yes", "no", "yes")
        assert rows["staging_buffer"] == ("no", "yes", "no", "no", "yes")
        assert rows["parallel_staging"] == ("yes", "no", "no", "no", "yes")
        assert rows["deepio_ordered"] == ("yes", "no", "no", "no", "yes")
        assert rows["lbann_dynamic"] == ("yes", "no", "yes", "no", "no")
        assert rows["locality_aware"] == ("yes", "yes", "yes", "no", "no")
        assert rows["nopfs"] == ("yes", "yes", "yes", "yes", "yes")

    def test_nopfs_only_fully_capable(self):
        """Only NoPFS has every Table 1 capability (the paper's point)."""
        for p in table1_lineup():
            caps = p.capabilities
            all_yes = all(caps.as_row()[i] == "yes" for i in range(5))
            assert all_yes == (p.name == "nopfs")
