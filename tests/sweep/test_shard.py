"""Shard planning: determinism, disjointness, merge ≡ single-run."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.errors import ConfigurationError
from repro.sweep import (
    ScenarioGrid,
    ShardManifest,
    ShardPlanner,
    ShardSpec,
    SweepRunner,
    estimate_cell_cost,
    merge_caches,
    merge_manifests,
)
from repro.sweep.cli import demo_grid


@pytest.fixture(scope="module")
def grid() -> ScenarioGrid:
    return demo_grid(scale=0.2)


@pytest.fixture(scope="module")
def cells(grid):
    return grid.cells()


class TestShardSpec:
    def test_parse(self):
        spec = ShardSpec.parse("1/3")
        assert (spec.index, spec.count) == (1, 3)
        assert str(spec) == "1/3"

    @pytest.mark.parametrize("bad", ["", "3", "a/b", "3/3", "-1/3", "0/0"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ConfigurationError):
            ShardSpec.parse(bad)


class TestPlanner:
    @pytest.mark.parametrize("strategy", ["round_robin", "cost"])
    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_partition_is_disjoint_and_complete(self, cells, strategy, k):
        plan = ShardPlanner(strategy).plan(cells, k)
        assert len(plan) == k
        seen = [c.tag for shard in plan.shards for c in shard]
        assert sorted(map(repr, seen)) == sorted(repr(c.tag) for c in cells)
        assert len(seen) == len(cells)

    @pytest.mark.parametrize("strategy", ["round_robin", "cost"])
    def test_same_grid_same_partition(self, grid, strategy):
        a = ShardPlanner(strategy).plan(grid, 3)
        b = ShardPlanner(strategy).plan(grid, 3)
        assert [[c.tag for c in s] for s in a.shards] == [
            [c.tag for c in s] for s in b.shards
        ]

    def test_cost_strategy_balances_heavy_cells(self):
        # Two heavy Fig-8-style scenarios and four light ones: LPT must
        # not put both heavy cells on one shard.
        from repro.datasets import imagenet22k, mnist
        from repro.perfmodel import sec6_cluster
        from repro.sim import NaivePolicy, NoPFSPolicy

        big = ScenarioGrid(
            datasets=[imagenet22k(0).scaled(0.001)],
            systems=[sec6_cluster(num_workers=2)],
            policies=[NaivePolicy(), NoPFSPolicy()],
            batch_sizes=[32],
            epoch_counts=[2],
        ).cells()
        small = ScenarioGrid(
            datasets=[mnist(0).scaled(0.05)],
            systems=[sec6_cluster(num_workers=2)],
            policies=[NaivePolicy(), NoPFSPolicy()],
            batch_sizes=[16, 32],
            epoch_counts=[2],
        ).cells()
        plan = ShardPlanner("cost").plan(big + small, 2)
        loads = [sum(estimate_cell_cost(c) for c in shard) for shard in plan.shards]
        naive_worst = sum(estimate_cell_cost(c) for c in big)
        assert max(loads) < naive_worst  # heavy cells split across shards

    def test_shard_accessor_validates(self, cells):
        plan = ShardPlanner().plan(cells, 2)
        with pytest.raises(ConfigurationError):
            plan.shard(ShardSpec(0, 3))  # count mismatch
        with pytest.raises(ConfigurationError):
            plan.shard(5)

    def test_unknown_strategy(self):
        with pytest.raises(ConfigurationError):
            ShardPlanner("random")


class TestShardedSweepEquivalence:
    def test_shards_merge_bitwise_identical_to_single_run(self, tmp_path, grid):
        single_dir = tmp_path / "single"
        single = SweepRunner(n_jobs=1, cache_dir=single_dir).run(grid)

        shard_dirs = [tmp_path / f"shard{i}" for i in range(3)]
        for i, d in enumerate(shard_dirs):
            SweepRunner(n_jobs=1, cache_dir=d).run_shard(grid, f"{i}/3")
        merged_dir = tmp_path / "merged"
        report = merge_caches(shard_dirs, merged_dir)
        assert report.copied == len(grid.cells())

        warm = SweepRunner(n_jobs=1, cache_dir=merged_dir).run(grid)
        assert warm.stats.misses == 0
        assert warm.results == single.results
        assert warm.unsupported == single.unsupported

        # Bitwise: every cache entry file has identical bytes.
        single_entries = {
            p.name: p.read_bytes() for p in single_dir.glob("[0-9a-f]*/*.json")
        }
        merged_entries = {
            p.name: p.read_bytes() for p in merged_dir.glob("[0-9a-f]*/*.json")
        }
        assert merged_entries == single_entries

    def test_merge_is_idempotent(self, tmp_path, grid):
        from repro.sweep import CacheIndex

        src = tmp_path / "src"
        runner = SweepRunner(n_jobs=1, cache_dir=src)
        runner.run(grid)
        runner.run(grid)  # warm: records one hit per entry in src's index
        dest = tmp_path / "dest"
        first = merge_caches([src], dest)
        second = merge_caches([src], dest)
        assert first.copied == len(grid.cells())
        assert second.copied == 0 and second.skipped == first.copied
        # Hit counters must not double on the re-merge either.
        assert CacheIndex(dest).hits == CacheIndex(src).hits


class TestManifests:
    def test_roundtrip(self, tmp_path, cells):
        manifest = ShardManifest.for_cells(
            cells[:2], grid="g", strategy="cost", shard=ShardSpec(0, 2),
            stats={"cells": 2}, cache_dir="d",
        )
        path = tmp_path / "m.json"
        manifest.save(path)
        loaded = ShardManifest.load(path)
        assert loaded == manifest

    def test_merge_unions_and_sums(self, cells):
        a = ShardManifest.for_cells(cells[:2], shard=ShardSpec(0, 2), stats={"cells": 2})
        b = ShardManifest.for_cells(cells[2:], shard=ShardSpec(1, 2), stats={"cells": len(cells) - 2})
        merged = merge_manifests([a, b])
        assert merged.shard is None
        assert len(merged.cells) == len(cells)
        assert merged.stats["cells"] == len(cells)

    def test_merge_rejects_mixed_code_versions(self, cells):
        import dataclasses

        a = ShardManifest.for_cells(cells[:1])
        b = dataclasses.replace(ShardManifest.for_cells(cells[1:2]), code="other")
        with pytest.raises(ConfigurationError):
            merge_manifests([a, b])

    def test_load_rejects_garbage(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigurationError):
            ShardManifest.load(bad)


class TestCLI:
    """End-to-end: separate processes per shard, CLI merge, warm run."""

    def _run(self, *args: str, cwd: Path) -> str:
        proc = subprocess.run(
            [sys.executable, "-m", "repro", *args],
            capture_output=True, text=True, cwd=cwd,
            env={"PYTHONPATH": str(Path(__file__).resolve().parents[2] / "src"),
                 "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    def test_three_shard_processes_merge_to_single_run(self, tmp_path):
        grid_arg = ["--grid", "repro.sweep.cli:demo_grid", "--grid-kwargs", '{"scale": 0.2}']
        for i in range(3):
            out = self._run(
                "sweep", "run", *grid_arg, "--shard", f"{i}/3",
                "--cache-dir", f"s{i}", "--manifest", f"m{i}.json",
                cwd=tmp_path,
            )
            assert f"shard {i}/3" in out
        out = self._run(
            "sweep", "merge", "s0", "s1", "s2", "--into", "merged",
            "--manifests", "m0.json", "m1.json", "m2.json",
            "--manifest-out", "merged.json",
            cwd=tmp_path,
        )
        assert "merge: 6 entries" in out
        merged = json.loads((tmp_path / "merged.json").read_text())
        assert len(merged["cells"]) == 6 and merged["shard"] is None

        warm = self._run("sweep", "run", *grid_arg, "--cache-dir", "merged", cwd=tmp_path)
        assert "/ 0 miss" in warm

        stats = self._run("cache", "stats", "--cache-dir", "merged", cwd=tmp_path)
        assert "entries: 6" in stats
        verify = self._run(
            "cache", "verify", "--cache-dir", "merged", "--strict", cwd=tmp_path
        )
        assert "0 corrupt" in verify
