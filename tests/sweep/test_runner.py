"""SweepRunner: caching, parallelism, unsupported cells, stats."""

import os

import pytest

from repro.api import Session
from repro.datasets import imagenet22k, mnist
from repro.errors import ConfigurationError
from repro.experiments.common import policy_cells, scaled_scenario
from repro.perfmodel import sec6_cluster
from repro.sim import LBANNPolicy, NaivePolicy, NoPFSPolicy, StagingBufferPolicy
from repro.sweep import InMemoryBackend, SweepCell, SweepRunner, executors


class ExplodingPolicy(NaivePolicy):
    """Simulates an unexpected (non-PolicyError) worker crash."""

    name = "exploding"

    def prepare(self, ctx):
        raise RuntimeError("boom")


@pytest.fixture(scope="module")
def config():
    return scaled_scenario(
        mnist(0).scaled(0.2), sec6_cluster(num_workers=2), batch_size=16, num_epochs=2
    )


@pytest.fixture(scope="module")
def cells(config):
    return policy_cells(config, [NaivePolicy(), StagingBufferPolicy(), NoPFSPolicy()])


class TestSerial:
    def test_results_indexed_by_tag(self, cells):
        outcome = SweepRunner(n_jobs=1).run(cells)
        assert set(outcome.results) == {"naive", "staging_buffer", "nopfs"}
        assert outcome["nopfs"].policy == "nopfs"
        assert len(outcome) == 3

    def test_matches_direct_simulation(self, config, cells):
        from repro.sim import Simulator

        outcome = SweepRunner(n_jobs=1).run(cells)
        direct = Simulator(config).run(NoPFSPolicy())
        assert outcome["nopfs"] == direct

    def test_stats_without_cache(self, cells):
        stats = SweepRunner(n_jobs=1).run(cells).stats
        assert stats.cells == 3
        assert stats.hits == 0 and stats.misses == 3
        assert stats.hit_rate == 0.0
        assert stats.cells_per_sec > 0
        assert "3 cells" in stats.render()


class TestCacheBehaviour:
    def test_second_run_all_hits_identical_results(self, cells):
        runner = SweepRunner(n_jobs=1, cache=InMemoryBackend())
        cold = runner.run(cells)
        warm = runner.run(cells)
        assert cold.stats.misses == len(cells) and cold.stats.hits == 0
        assert warm.stats.misses == 0 and warm.stats.hits == len(cells)
        assert warm.results == cold.results

    def test_cache_shared_between_runners(self, tmp_path, cells):
        SweepRunner(n_jobs=1, cache_dir=tmp_path).run(cells)
        warm = SweepRunner(n_jobs=1, cache_dir=tmp_path).run(cells)
        assert warm.stats.misses == 0

    def test_config_change_misses(self, config, cells):
        import dataclasses

        runner = SweepRunner(n_jobs=1, cache=InMemoryBackend())
        runner.run(cells)
        other = dataclasses.replace(config, num_epochs=3)
        outcome = runner.run(policy_cells(other, [NoPFSPolicy()]))
        assert outcome.stats.misses == 1

    def test_lifetime_accumulates(self, cells):
        runner = SweepRunner(n_jobs=1, cache=InMemoryBackend())
        runner.run(cells)
        runner.run(cells)
        assert runner.lifetime.cells == 2 * len(cells)
        assert runner.lifetime.hits == len(cells)
        assert runner.lifetime.misses == len(cells)


class TestParallel:
    def test_parallel_bitwise_identical_to_serial(self, cells):
        serial = SweepRunner(n_jobs=1).run(cells)
        parallel = SweepRunner(n_jobs=2).run(cells)
        assert serial.results.keys() == parallel.results.keys()
        for tag in serial.results:
            assert serial[tag] == parallel[tag], tag

    def test_parallel_batch_durations_identical(self, config):
        """Raw durations (excluded from dataclass eq) match exactly too."""
        import dataclasses

        import numpy as np

        cfg = dataclasses.replace(config, record_batch_times=True)
        cells = policy_cells(cfg, [NaivePolicy(), NoPFSPolicy()])
        serial = SweepRunner(n_jobs=1).run(cells)
        parallel = SweepRunner(n_jobs=2).run(cells)
        for tag in serial.results:
            for a, b in zip(serial[tag].epochs, parallel[tag].epochs):
                np.testing.assert_array_equal(a.batch_durations, b.batch_durations)

    def test_parallel_populates_cache_for_serial(self, cells):
        backend = InMemoryBackend()
        SweepRunner(n_jobs=2, cache=backend).run(cells)
        warm = SweepRunner(n_jobs=1, cache=backend).run(cells)
        assert warm.stats.misses == 0

    def test_n_jobs_validation(self):
        with pytest.raises(ConfigurationError):
            SweepRunner(n_jobs=0)
        assert SweepRunner(n_jobs=None).n_jobs >= 1

    def test_all_cores_counts_cpus_this_process_may_run_on(self, monkeypatch):
        """``None`` follows the affinity mask (cgroup/taskset), not the host."""
        monkeypatch.setattr(executors, "_cpu_quota", lambda: None)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
        assert SweepRunner(n_jobs=None).n_jobs == 3
        assert Session(jobs=None).runner.n_jobs == 3
        monkeypatch.delattr(os, "sched_getaffinity")  # no affinity API
        assert SweepRunner(n_jobs=None).n_jobs == 64
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert SweepRunner(n_jobs=None).n_jobs == 1

    def test_all_cores_honours_a_cpu_quota(self, monkeypatch):
        """``None`` counts the CPUs the cgroup quota lets this process use,
        rounded up, as the helper-thread rule does."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
        monkeypatch.setattr(executors, "_cpu_quota", lambda: 1.5)
        assert SweepRunner(n_jobs=None).n_jobs == 2
        assert Session(jobs=None).runner.n_jobs == 2

    def test_worker_crash_raises_but_keeps_finished_cells(self, cells, config):
        """Unexpected failures propagate; completed cells stay memoized."""
        backend = InMemoryBackend()
        bad = SweepCell(tag="boom", config=config, policy=ExplodingPolicy())
        with pytest.raises(RuntimeError, match="boom"):
            SweepRunner(n_jobs=2, cache=backend).run(list(cells) + [bad])
        # The good cells were queued ahead of the crashing one, so their
        # results were written before the error surfaced.
        warm = SweepRunner(n_jobs=2, cache=backend).run(cells)
        assert warm.stats.misses == 0


class TestUnsupported:
    @pytest.fixture(scope="class")
    def lbann_cell(self):
        # ImageNet-22k far exceeds aggregate RAM at this scale: LBANN
        # (in-memory sharding) must refuse, as in Fig 8d.
        config = scaled_scenario(
            imagenet22k(0), sec6_cluster(), batch_size=32, num_epochs=2, scale=0.01
        )
        return SweepCell(tag="lbann", config=config, policy=LBANNPolicy("dynamic"))

    def test_unsupported_reported_not_raised(self, lbann_cell):
        outcome = SweepRunner(n_jobs=1).run([lbann_cell])
        assert outcome.unsupported == ("lbann",)
        assert outcome.get("lbann") is None
        assert "lbann" not in outcome

    def test_unsupported_reason_recorded(self, lbann_cell):
        outcome = SweepRunner(n_jobs=1).run([lbann_cell])
        assert outcome.errors["lbann"]  # the PolicyError message survives

    def test_unsupported_is_cached(self, lbann_cell):
        runner = SweepRunner(n_jobs=1, cache=InMemoryBackend())
        runner.run([lbann_cell])
        warm = runner.run([lbann_cell])
        assert warm.stats.misses == 0
        assert warm.unsupported == ("lbann",)

    def test_require_supported_raises_loudly(self, lbann_cell):
        from repro.errors import PolicyError
        from repro.experiments.common import require_supported

        outcome = SweepRunner(n_jobs=1).run([lbann_cell])
        with pytest.raises(PolicyError, match="fig-test.*lbann"):
            require_supported(outcome, "fig-test")


class TestHitStatsFlush:
    def test_hit_counters_survive_mid_sweep_crash(self, cells, config):
        """ISSUE 9 regression: the flush lives in a finally block.

        A sweep that serves cache hits and then dies in the executor
        must still fold those hits into the backend's index — before
        the fix they evaporated with the exception.
        """
        from repro.sweep.gc import CacheIndex

        backend = InMemoryBackend()
        runner = SweepRunner(n_jobs=1, cache=backend)
        runner.run(cells)  # populate
        bad = SweepCell(tag="boom", config=config, policy=ExplodingPolicy())
        with pytest.raises(RuntimeError, match="boom"):
            runner.run(list(cells) + [bad])
        # The cached cells' hits were flushed despite the crash...
        assert sum(CacheIndex(backend).hits.values()) == len(cells)
        # ...and the session counters were drained, not re-counted later.
        assert runner.cache._session_hits == {}


class TestIncrementalWriteback:
    def test_partial_parallel_run_keeps_finished_cells(self, cells, config):
        """Cells completed before an abort stay cached.

        Simulated by running a subset first (as an interrupted sweep
        would have persisted), then the full grid: only the remainder
        may miss.
        """
        runner = SweepRunner(n_jobs=2, cache=InMemoryBackend())
        runner.run(cells[:2])
        full = runner.run(cells)
        assert full.stats.hits == 2
        assert full.stats.misses == len(cells) - 2
