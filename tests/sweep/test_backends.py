"""CacheBackend protocol: both implementations, cache naming, lifecycle interop.

The corruption-quarantine / hit-stat / stale-tmp behaviours are
exercised *through the protocol* (parametrized over both backends), not
just against the concrete dir layout — the contract a remote backend
must satisfy to plug in.
"""

import os
import time

import pytest

from repro.datasets import mnist
from repro.errors import ConfigurationError
from repro.experiments.common import scaled_scenario
from repro.perfmodel import sec6_cluster
from repro.sim import NoPFSPolicy, Simulator
from repro.sweep import (
    CacheBackend,
    CachedOutcome,
    CacheIndex,
    InMemoryBackend,
    LocalDirBackend,
    ResultCache,
    SweepRunner,
    as_backend,
    cache_stats,
    cell_key,
    collect_garbage,
    merge_caches,
    scan_entries,
    verify_cache,
)
from repro.sweep.cli import demo_grid


@pytest.fixture(params=["dir", "mem"])
def backend(request, tmp_path):
    """One instance of each protocol implementation."""
    if request.param == "dir":
        b = LocalDirBackend(tmp_path / "cache")
        b.prepare()
        return b
    return InMemoryBackend()


@pytest.fixture(scope="module")
def config():
    return scaled_scenario(
        mnist(0).scaled(0.2), sec6_cluster(num_workers=2), batch_size=16, num_epochs=2
    )


@pytest.fixture(scope="module")
def result(config):
    return Simulator(config).run(NoPFSPolicy())


KEY_A = "ab" * 32
KEY_B = "cd" * 32


class TestProtocolContract:
    """Semantics every CacheBackend implementation must share."""

    def test_read_write_roundtrip(self, backend):
        assert backend.read(KEY_A) is None
        backend.write(KEY_A, '{"x": 1}')
        assert backend.read(KEY_A) == '{"x": 1}'
        assert list(backend.keys()) == [KEY_A]

    def test_stat_and_touch_drive_the_lru_clock(self, backend):
        backend.write(KEY_A, "{}", mtime_ns=1_000_000_000)
        stat = backend.stat(KEY_A)
        assert stat is not None and stat.mtime == pytest.approx(1.0)
        backend.touch(KEY_A)
        assert backend.stat(KEY_A).mtime > 1.0
        assert backend.stat(KEY_B) is None

    def test_write_pins_mtime_ns_exactly(self, backend):
        stamp = 1_234_567_890_123_456_789
        backend.write(KEY_A, "{}", mtime_ns=stamp)
        assert backend.stat(KEY_A).mtime_ns == stamp

    def test_delete(self, backend):
        backend.write(KEY_A, "{}")
        assert backend.delete(KEY_A) is True
        assert backend.delete(KEY_A) is False
        assert backend.read(KEY_A) is None

    def test_quarantine_hides_entry_but_counts_it(self, backend):
        backend.write(KEY_A, "{truncated")
        assert backend.quarantine(KEY_A) is True
        assert backend.read(KEY_A) is None
        assert list(backend.keys()) == []
        assert backend.quarantined() == 1
        assert backend.quarantine_label()

    def test_index_document_roundtrip(self, backend):
        assert backend.read_index() is None
        backend.write_index('{"hits": {}}')
        assert backend.read_index() == '{"hits": {}}'

    def test_same_store_identity(self, backend):
        assert backend.same_store(backend)
        assert not backend.same_store(InMemoryBackend())

    def test_protocol_isinstance(self, backend):
        assert isinstance(backend, CacheBackend)


class TestResultCacheOverProtocol:
    """ResultCache semantics exercised through either backend."""

    def test_miss_then_hit(self, backend, config, result):
        cache = ResultCache(backend)
        key = cell_key(config, NoPFSPolicy())
        assert cache.get(key) is None
        cache.put(key, CachedOutcome(result=result, error=None))
        got = cache.get(key)
        assert got is not None and got.supported
        assert got.result == result

    def test_corruption_quarantines_through_protocol(self, backend, result):
        cache = ResultCache(backend)
        cache.put(KEY_A, CachedOutcome(result=result, error=None))
        backend.write(KEY_A, "{truncated")  # simulate a torn write
        assert cache.get(KEY_A) is None  # miss, not a crash
        assert backend.quarantined() == 1
        assert cache.count() == 0

    def test_hit_stats_flush_through_protocol(self, backend, result):
        cache = ResultCache(backend)
        cache.put(KEY_A, CachedOutcome(result=result, error=None))
        cache.get(KEY_A)
        cache.get(KEY_A)
        cache.flush_hit_stats()
        assert CacheIndex(backend).hits == {KEY_A: 2}
        # flushing again is a no-op (counters cleared on success)
        cache.flush_hit_stats()
        assert CacheIndex(backend).hits == {KEY_A: 2}

    def test_gc_lifecycle_through_protocol(self, backend, result):
        cache = ResultCache(backend)
        for i, key in enumerate((KEY_A, KEY_B)):
            cache.put(key, CachedOutcome(result=result, error=None))
            backend.write(key, backend.read(key), mtime_ns=(i + 1) * 10**9)
        entries = scan_entries(backend)
        assert [e.key for e in entries] == [KEY_A, KEY_B]  # LRU order
        report = collect_garbage(backend, max_bytes=entries[-1].size_bytes)
        assert report.evicted == (entries[0].key,)  # LRU first
        assert cache_stats(backend).entries == 1

    def test_verify_through_protocol(self, backend, result):
        cache = ResultCache(backend)
        cache.put(KEY_A, CachedOutcome(result=result, error=None))
        backend.write(KEY_B, '{"neither": true}')
        report = verify_cache(backend)
        assert report.checked == 2 and report.ok == 1
        assert len(report.corrupt) == 1
        assert backend.quarantined() == 1

    def test_path_for_only_on_dir_backends(self, backend):
        cache = ResultCache(backend)
        if isinstance(backend, LocalDirBackend):
            assert cache.path_for(KEY_A).name == f"{KEY_A}.json"
            assert cache.root == backend.root
        else:
            with pytest.raises(ConfigurationError, match="dir:"):
                cache.path_for(KEY_A)
            assert cache.root is None


class TestStaleTmpSweep:
    def test_prepare_sweeps_old_tmp_but_keeps_fresh(self, tmp_path):
        root = tmp_path / "cache"
        backend = LocalDirBackend(root)
        backend.prepare()
        shard = root / "ab"
        shard.mkdir()
        stale = shard / "dead.tmp"
        stale.write_text("")
        old = time.time() - 3600
        os.utime(stale, (old, old))
        fresh = shard / "live.tmp"
        fresh.write_text("")
        LocalDirBackend(root).prepare()  # a new writer starting up
        assert not stale.exists()
        assert fresh.exists()  # a concurrent writer's in-flight file survives

    def test_prepare_runs_via_result_cache_construction(self, tmp_path):
        root = tmp_path / "cache"
        root.mkdir()
        stale = root / "dead.tmp"
        stale.write_text("")
        old = time.time() - 3600
        os.utime(stale, (old, old))
        ResultCache(root)
        assert not stale.exists()


class TestSpecs:
    """A cache is a directory path or a live backend instance."""

    def test_dir_spec(self, tmp_path):
        backend = as_backend(tmp_path / "c")
        assert isinstance(backend, LocalDirBackend)
        assert backend.url == f"dir:{tmp_path}/c"

    def test_bare_path_is_a_dir(self, tmp_path):
        assert isinstance(as_backend(str(tmp_path)), LocalDirBackend)
        assert isinstance(as_backend(tmp_path), LocalDirBackend)

    def test_backend_instance_passes_through(self):
        backend = InMemoryBackend()
        assert as_backend(backend) is backend

    def test_single_letter_scheme_is_a_path(self):
        # Windows drive spellings must stay directories.
        assert isinstance(as_backend("c:cache"), LocalDirBackend)

    def test_empty_and_bad_specs_rejected(self):
        with pytest.raises(ConfigurationError):
            as_backend("")
        with pytest.raises(ConfigurationError):
            as_backend(42)

    def test_unknown_scheme_fails_loudly(self, tmp_path, monkeypatch):
        # cache= takes live instances only: a spec-shaped string must
        # fail loudly, not silently become a junk local directory.
        monkeypatch.chdir(tmp_path)
        for spec in ("men:shared", "s3:bucket", "mem:", "dir:c"):
            with pytest.raises(ConfigurationError, match="cache_dir="):
                SweepRunner(cache=spec)
        assert list(tmp_path.iterdir()) == []

    def test_runner_accepts_spec_and_backend(self, tmp_path):
        assert SweepRunner(cache=InMemoryBackend()).cache is not None
        cache = ResultCache(InMemoryBackend())
        assert SweepRunner(cache=cache).cache is cache
        assert SweepRunner(cache_dir=tmp_path / "c").cache.root == tmp_path / "c"
        with pytest.raises(ConfigurationError, match="CacheBackend or ResultCache"):
            SweepRunner(cache=tmp_path / "d")
        assert not (tmp_path / "d").exists()
        with pytest.raises(ConfigurationError, match="not both"):
            SweepRunner(cache=InMemoryBackend(), cache_dir=tmp_path)


class TestMergeAcrossBackends:
    def test_mem_to_dir_merge_serves_warm(self, tmp_path):
        mem = InMemoryBackend()
        SweepRunner(n_jobs=1, cache=mem).run(demo_grid(scale=0.2))
        dest = tmp_path / "merged"
        report = merge_caches([mem], dest)
        assert report.copied == 6
        warm = SweepRunner(n_jobs=1, cache_dir=dest).run(demo_grid(scale=0.2))
        assert warm.stats.misses == 0

    def test_dir_to_mem_merge_serves_warm(self, tmp_path):
        src = tmp_path / "src"
        SweepRunner(n_jobs=1, cache_dir=src).run(demo_grid(scale=0.2))
        mem = InMemoryBackend()
        merge_caches([src], mem)
        warm = SweepRunner(n_jobs=1, cache=mem).run(demo_grid(scale=0.2))
        assert warm.stats.misses == 0

    def test_merge_preserves_entry_bytes_and_recency(self, tmp_path):
        src = tmp_path / "src"
        SweepRunner(n_jobs=1, cache_dir=src).run(demo_grid(scale=0.2))
        src_backend = LocalDirBackend(src)
        mem = InMemoryBackend()
        merge_caches([src_backend], mem)
        for key in src_backend.keys():
            assert mem.read(key) == src_backend.read(key)
            assert mem.stat(key).mtime_ns == src_backend.stat(key).mtime_ns

    def test_merge_skips_same_store_and_folds_hits(self, tmp_path):
        src = tmp_path / "src"
        runner = SweepRunner(n_jobs=1, cache_dir=src)
        runner.run(demo_grid(scale=0.2))
        runner.run(demo_grid(scale=0.2))  # record hits into the index
        mem = InMemoryBackend()
        merge_caches([src, src], mem)  # duplicate source: second pass skips
        assert sum(1 for _ in mem.keys()) == 6
        assert sum(CacheIndex(mem).hits.values()) == 6
        # merging a store into itself copies nothing
        report = merge_caches([src], src)
        assert report.copied == 0

    def test_missing_dir_source_still_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="not a directory"):
            merge_caches([tmp_path / "nope"], tmp_path / "dest")


class TestRunnerOverMemBackend:
    def test_warm_sweep_without_disk(self):
        runner = SweepRunner(n_jobs=1, cache=InMemoryBackend())
        cold = runner.run(demo_grid(scale=0.2))
        warm = runner.run(demo_grid(scale=0.2))
        assert cold.stats.misses == 6
        assert warm.stats.misses == 0 and warm.stats.hits == 6

    def test_corrupt_mem_entry_resimulates(self):
        backend = InMemoryBackend()
        runner = SweepRunner(n_jobs=1, cache=backend)
        grid = demo_grid(scale=0.2)
        runner.run(grid)
        victim = next(iter(backend.keys()))
        backend.write(victim, "{torn")
        outcome = SweepRunner(n_jobs=1, cache=backend).run(grid)
        assert outcome.stats.misses == 1 and outcome.stats.hits == 5
        assert backend.quarantined() == 1
        warm = SweepRunner(n_jobs=1, cache=backend).run(grid)
        assert warm.stats.misses == 0
