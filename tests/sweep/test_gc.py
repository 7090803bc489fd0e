"""Cache lifecycle: index, stats, LRU GC, verify/quarantine, corruption."""

import os
import time

import pytest

from repro.errors import ConfigurationError
from repro.sweep import (
    QUARANTINE_DIR,
    CacheIndex,
    ResultCache,
    SweepRunner,
    cache_stats,
    collect_garbage,
    scan_entries,
    verify_cache,
)
from repro.sweep.cli import demo_grid, parse_bytes, parse_duration


@pytest.fixture()
def warm_cache(tmp_path):
    """A cache holding the demo grid's six entries."""
    root = tmp_path / "cache"
    runner = SweepRunner(n_jobs=1, cache_dir=root)
    runner.run(demo_grid(scale=0.2))
    return root


def _set_mtimes_spread(root, step_s=100.0):
    """Give entries strictly increasing mtimes in scan (key) order."""
    base = time.time() - 1e6
    paths = sorted(root.glob("[0-9a-f]*/*.json"))
    for i, path in enumerate(paths):
        stamp = base + i * step_s
        os.utime(path, (stamp, stamp))
    return paths


class TestScanAndStats:
    def test_scan_reports_all_entries_lru_first(self, warm_cache):
        paths = _set_mtimes_spread(warm_cache)
        entries = scan_entries(warm_cache)
        assert len(entries) == 6
        assert [e.path for e in entries] == paths  # oldest mtime first
        assert all(e.size_bytes > 0 for e in entries)

    def test_stats_counts_bytes_hits_quarantine(self, warm_cache):
        SweepRunner(n_jobs=1, cache_dir=warm_cache).run(demo_grid(scale=0.2))  # 6 hits
        report = cache_stats(warm_cache)
        assert report.entries == 6
        assert report.total_bytes == sum(e.size_bytes for e in scan_entries(warm_cache))
        assert report.total_hits == 6
        assert report.quarantined == 0
        assert "entries: 6" in report.render()

    def test_index_survives_and_accumulates(self, warm_cache):
        SweepRunner(n_jobs=1, cache_dir=warm_cache).run(demo_grid(scale=0.2))
        SweepRunner(n_jobs=1, cache_dir=warm_cache).run(demo_grid(scale=0.2))
        index = CacheIndex(warm_cache)
        assert sum(index.hits.values()) == 12


class TestGC:
    def test_needs_a_policy(self, warm_cache):
        with pytest.raises(ConfigurationError):
            collect_garbage(warm_cache)

    def test_max_bytes_bounds_cache_evicting_lru_first(self, warm_cache):
        _set_mtimes_spread(warm_cache)
        entries = scan_entries(warm_cache)
        keep_bytes = sum(e.size_bytes for e in entries[-2:])  # newest two
        report = collect_garbage(warm_cache, max_bytes=keep_bytes)
        assert set(report.evicted) == {e.key for e in entries[:4]}  # oldest four
        survivors = {e.key for e in scan_entries(warm_cache)}
        assert survivors == {e.key for e in entries[-2:]}
        assert sum(e.size_bytes for e in scan_entries(warm_cache)) <= keep_bytes

    def test_hit_refreshes_lru_position(self, warm_cache):
        _set_mtimes_spread(warm_cache)
        entries = scan_entries(warm_cache)
        oldest = entries[0]
        cache = ResultCache(warm_cache)
        assert cache.get(oldest.key) is not None  # bumps mtime
        keep_bytes = sum(e.size_bytes for e in entries) - 1  # must evict one
        report = collect_garbage(warm_cache, max_bytes=keep_bytes)
        # The hit entry is now newest; the second-oldest goes instead.
        assert oldest.key not in report.evicted
        assert report.evicted == (entries[1].key,)

    def test_max_age_evicts_stale_entries(self, warm_cache):
        _set_mtimes_spread(warm_cache, step_s=100.0)
        entries = scan_entries(warm_cache)
        # Entries sit at base+0, +100, +200, ...; from now = entries[2].mtime
        # + 60 a 150 s horizon reaches back to base+110, so exactly the two
        # oldest entries are stale.
        now = entries[2].mtime + 60.0
        report = collect_garbage(warm_cache, max_age_s=150.0, now=now)
        assert set(report.evicted) == {e.key for e in entries[:2]}

    def test_dry_run_deletes_nothing(self, warm_cache):
        report = collect_garbage(warm_cache, max_bytes=0, dry_run=True)
        assert len(report.evicted) == 6
        assert len(scan_entries(warm_cache)) == 6

    def test_gc_drops_index_counters(self, warm_cache):
        SweepRunner(n_jobs=1, cache_dir=warm_cache).run(demo_grid(scale=0.2))
        collect_garbage(warm_cache, max_bytes=0)
        assert CacheIndex(warm_cache).hits == {}


class TestVerifyAndCorruption:
    def _corrupt_one(self, root, payload="{truncated"):
        path = sorted(root.glob("[0-9a-f]*/*.json"))[0]
        path.write_text(payload)
        return path

    def test_verify_quarantines_corrupt_entries(self, warm_cache):
        path = self._corrupt_one(warm_cache)
        report = verify_cache(warm_cache)
        assert report.checked == 6 and report.ok == 5
        assert len(report.corrupt) == 1
        assert report.corrupt[0][0] == path.name
        assert not path.exists()
        assert (warm_cache / QUARANTINE_DIR / path.name).exists()
        assert "1 corrupt" in report.render()

    def test_verify_report_only_mode(self, warm_cache):
        path = self._corrupt_one(warm_cache)
        report = verify_cache(warm_cache, quarantine=False)
        assert len(report.corrupt) == 1
        assert path.exists()  # left in place

    def test_verify_flags_foreign_and_mismatched_entries(self, warm_cache):
        paths = sorted(warm_cache.glob("[0-9a-f]*/*.json"))
        paths[0].write_text("[]")  # not an object
        paths[1].write_text('{"key": "wrong", "error": "x"}')  # key mismatch
        paths[2].write_text("{}")  # neither result nor error
        report = verify_cache(warm_cache, quarantine=False)
        assert len(report.corrupt) == 3

    def test_corrupt_entry_read_quarantines_and_resimulates(self, warm_cache):
        self._corrupt_one(warm_cache)
        outcome = SweepRunner(n_jobs=1, cache_dir=warm_cache).run(demo_grid(scale=0.2))
        assert outcome.stats.hits == 5 and outcome.stats.misses == 1
        assert len(outcome.results) == 6  # the cell re-simulated fine
        assert sum(1 for _ in (warm_cache / QUARANTINE_DIR).glob("*.json")) == 1
        # The re-simulated entry replaced the corrupt one: next run all hits.
        warm = SweepRunner(n_jobs=1, cache_dir=warm_cache).run(demo_grid(scale=0.2))
        assert warm.stats.misses == 0

    def test_quarantined_entries_do_not_count_as_cache_entries(self, warm_cache):
        self._corrupt_one(warm_cache)
        verify_cache(warm_cache)
        assert ResultCache(warm_cache).count() == 5
        assert cache_stats(warm_cache).quarantined == 1


class TestCLIParsers:
    @pytest.mark.parametrize(
        "text,expected",
        [("123", 123), ("1k", 1024), ("2K", 2048), ("1M", 1024**2),
         ("1.5m", int(1.5 * 1024**2)), ("2G", 2 * 1024**3), ("1T", 1024**4)],
    )
    def test_parse_bytes(self, text, expected):
        assert parse_bytes(text) == expected

    @pytest.mark.parametrize("bad", ["", "x", "-1", "1Q", "inf", "nan", "-inf", "1e400k"])
    def test_parse_bytes_rejects(self, bad):
        with pytest.raises(ConfigurationError):
            parse_bytes(bad)

    @pytest.mark.parametrize(
        "text,expected",
        [("90", 90.0), ("30s", 30.0), ("2m", 120.0), ("12h", 43200.0), ("7d", 604800.0)],
    )
    def test_parse_duration(self, text, expected):
        assert parse_duration(text) == expected

    @pytest.mark.parametrize("bad", ["", "x", "-5", "inf", "nan", "-nan", "1e400d"])
    def test_parse_duration_rejects(self, bad):
        with pytest.raises(ConfigurationError):
            parse_duration(bad)
