"""Deterministic sweep sharding: split one grid across many hosts.

A :class:`ShardPlanner` partitions any :class:`~repro.sweep.grid.ScenarioGrid`
(or explicit cell list) into ``K`` disjoint shards such that the union
of the shards is exactly the original grid and the partition is a pure
function of the cells and ``K`` — every host that plans the same grid
computes the same shards, so ``python -m repro sweep run --shard i/K``
needs no coordination service.

Two strategies:

* ``round_robin`` — cell ``i`` goes to shard ``i % K``. Zero-cost,
  good when cells are homogeneous.
* ``cost`` — longest-processing-time greedy: cells are weighted by a
  :mod:`repro.perfmodel`-derived runtime estimate
  (:func:`estimate_cell_cost`) and each is placed on the currently
  lightest shard, so one shard full of CosmoFlow-sized scenarios does
  not straggle behind five shards of MNIST.

Each shard run writes a :class:`ShardManifest` (grid identity, shard
spec, per-cell tags and content keys, sweep stats);
:func:`merge_manifests` unions the manifests of a completed shard set
back into a single-host-equivalent record. The caches themselves merge
with :func:`repro.sweep.gc.merge_caches` — cache entries are
content-addressed, so the merged cache is bitwise-identical to the one
a single-host sweep would have produced.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Sequence

from ..errors import ConfigurationError
from .cache import atomic_write_json, cell_key_from_dict, code_fingerprint
from .grid import ScenarioGrid, SweepCell, as_cells

__all__ = [
    "ShardManifest",
    "ShardPlan",
    "ShardPlanner",
    "ShardSpec",
    "estimate_cell_cost",
    "merge_manifests",
]

#: Manifest file format version (bump on incompatible layout changes).
MANIFEST_SCHEMA_VERSION = 1

#: Planner strategies accepted by :class:`ShardPlanner`.
STRATEGIES = ("round_robin", "cost")

#: Manifest stat keys that are additive across shards (the
#: :class:`~repro.sweep.runner.SweepStats` counters); everything else —
#: ``n_jobs``, ``cached`` — is per-host configuration, not a count.
_ADDITIVE_STATS = ("cells", "hits", "misses", "unsupported", "elapsed_s")


@dataclass(frozen=True)
class ShardSpec:
    """One shard's coordinates: ``index`` of ``count`` (0-based).

    Parameters
    ----------
    index:
        Which shard this host runs, in ``[0, count)``.
    count:
        Total number of shards the grid is split into.
    """

    index: int
    count: int

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ConfigurationError("shard count must be >= 1")
        if not 0 <= self.index < self.count:
            raise ConfigurationError(
                f"shard index {self.index} out of range for count {self.count}"
            )

    @classmethod
    def parse(cls, text: str) -> "ShardSpec":
        """Parse the CLI form ``"i/K"`` (e.g. ``--shard 0/3``)."""
        try:
            index_s, count_s = text.split("/", 1)
            return cls(index=int(index_s), count=int(count_s))
        except ValueError as exc:
            raise ConfigurationError(
                f"invalid shard spec {text!r}; expected 'i/K' (e.g. '0/3')"
            ) from exc

    def __str__(self) -> str:
        return f"{self.index}/{self.count}"


def estimate_cell_cost(cell: SweepCell) -> float:
    """A cheap :mod:`repro.perfmodel`-based runtime estimate for one cell.

    ``E * (bytes per worker per epoch) / compute_mbps`` — the analytic
    compute-bound time, evaluated from the dataset and system models
    alone (no access streams are built, so planning a 10k-cell grid is
    instant). Relative weights are what matters for load balancing;
    absolute accuracy is not.

    Parameters
    ----------
    cell:
        The grid cell to weigh.
    """
    config = cell.config
    per_worker_mb = (
        config.dataset.num_samples
        * config.dataset.mean_size_mb
        / max(config.system.num_workers, 1)
    )
    return config.num_epochs * per_worker_mb / config.system.compute_mbps


@dataclass(frozen=True)
class ShardPlan:
    """A complete, deterministic partition of one grid into shards.

    ``shards[i]`` holds shard ``i``'s cells in their original grid
    order; the concatenation of all shards is a permutation of the
    input cells and every cell appears in exactly one shard.
    """

    shards: tuple[tuple[SweepCell, ...], ...]
    strategy: str

    def __len__(self) -> int:
        return len(self.shards)

    def shard(self, spec: ShardSpec | int) -> list[SweepCell]:
        """The cells of one shard (accepts a :class:`ShardSpec` or index)."""
        index = spec.index if isinstance(spec, ShardSpec) else int(spec)
        if isinstance(spec, ShardSpec) and spec.count != len(self.shards):
            raise ConfigurationError(
                f"shard spec {spec} does not match plan with {len(self.shards)} shards"
            )
        if not 0 <= index < len(self.shards):
            raise ConfigurationError(
                f"shard index {index} out of range for {len(self.shards)}-shard plan"
            )
        return list(self.shards[index])

    def cell_counts(self) -> list[int]:
        """Cells per shard, in shard order."""
        return [len(s) for s in self.shards]


class ShardPlanner:
    """Deterministically partitions grids into disjoint shards.

    Parameters
    ----------
    strategy:
        ``"round_robin"`` (default) or ``"cost"`` (see module docs), which
        weighs cells by :func:`estimate_cell_cost`.
    """

    def __init__(self, strategy: str = "round_robin") -> None:
        if strategy not in STRATEGIES:
            raise ConfigurationError(
                f"unknown shard strategy {strategy!r}; known: {STRATEGIES}"
            )
        self.strategy = strategy

    def plan(self, grid: ScenarioGrid | Iterable[SweepCell], count: int) -> ShardPlan:
        """Partition ``grid`` into ``count`` disjoint shards.

        The partition depends only on the expanded cell list, the
        strategy and ``count`` — planning the same grid on two hosts
        yields the same shards.
        """
        if count < 1:
            raise ConfigurationError("shard count must be >= 1")
        cells = as_cells(grid)
        if self.strategy == "round_robin":
            buckets = [cells[i::count] for i in range(count)]
        else:
            buckets = self._plan_by_cost(cells, count)
        return ShardPlan(
            shards=tuple(tuple(b) for b in buckets), strategy=self.strategy
        )

    def _plan_by_cost(self, cells: Sequence[SweepCell], count: int) -> list[list[SweepCell]]:
        # Longest-processing-time greedy: heaviest cell first onto the
        # lightest shard. Costs are evaluated once per cell. Ties break
        # on (load, shard index) and the sort on (-cost, original index),
        # both total orders, so the result is reproducible across hosts
        # and Python hash seeds.
        costs = [estimate_cell_cost(cell) for cell in cells]
        order = sorted(range(len(cells)), key=lambda i: (-costs[i], i))
        loads = [0.0] * count
        assignment: list[list[int]] = [[] for _ in range(count)]
        for i in order:
            target = min(range(count), key=lambda s: (loads[s], s))
            loads[target] += costs[i]
            assignment[target].append(i)
        # Keep each shard's cells in original grid order so the shard's
        # own sweep output is stable and readable.
        return [[cells[i] for i in sorted(bucket)] for bucket in assignment]


@dataclass(frozen=True)
class ShardManifest:
    """What one shard run computed: cells, keys, stats, provenance.

    Written by ``python -m repro sweep run --manifest out.json`` and
    consumed by the ``merge`` step. ``cells`` pairs each cell's
    human-readable tag with its content key (the cache address); the
    ``code`` fingerprint pins the simulator version the keys were
    computed against, so merging manifests from mismatched checkouts
    fails loudly instead of silently unioning incompatible keys.
    ``cache_dir`` records the directory this shard's results were
    memoized in (None when the run was uncached).
    """

    grid: str
    strategy: str
    shard: ShardSpec | None
    code: str
    cells: tuple[tuple[str, str], ...]  # (tag repr, cell key) pairs
    stats: dict[str, Any] = field(default_factory=dict)
    cache_dir: str | None = None

    @classmethod
    def for_cells(
        cls,
        cells: Sequence[SweepCell],
        grid: str = "",
        strategy: str = "round_robin",
        shard: ShardSpec | None = None,
        stats: dict[str, Any] | None = None,
        cache_dir: str | None = None,
    ) -> "ShardManifest":
        """Build a manifest for ``cells`` (computes each cell's key).

        Config serialization is memoized per config object — grids
        share one config across their policy cells, so a large shard's
        manifest costs one ``to_dict`` per scenario, not per cell.
        """
        config_dicts: dict[int, dict[str, Any]] = {}
        pairs: list[tuple[str, str]] = []
        for cell in cells:
            config_dict = config_dicts.get(id(cell.config))
            if config_dict is None:
                config_dict = config_dicts[id(cell.config)] = cell.config.to_dict()
            pairs.append((repr(cell.tag), cell_key_from_dict(config_dict, cell.policy)))
        return cls(
            grid=grid,
            strategy=strategy,
            shard=shard,
            code=code_fingerprint(),
            cells=tuple(pairs),
            stats=dict(stats or {}),
            cache_dir=cache_dir,
        )

    def keys(self) -> list[str]:
        """The content keys of every cell in this manifest."""
        return [key for _, key in self.cells]

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready form (inverse of :meth:`from_dict`)."""
        return {
            "schema": MANIFEST_SCHEMA_VERSION,
            "grid": self.grid,
            "strategy": self.strategy,
            "shard": None if self.shard is None else {
                "index": self.shard.index, "count": self.shard.count
            },
            "code": self.code,
            "cells": [list(pair) for pair in self.cells],
            "stats": self.stats,
            "cache_dir": self.cache_dir,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ShardManifest":
        """Rebuild a manifest from its JSON form."""
        shard = data.get("shard")
        return cls(
            grid=data.get("grid", ""),
            strategy=data.get("strategy", "round_robin"),
            shard=None if shard is None else ShardSpec(shard["index"], shard["count"]),
            code=data.get("code", ""),
            cells=tuple((tag, key) for tag, key in data.get("cells", [])),
            stats=dict(data.get("stats", {})),
            cache_dir=data.get("cache_dir"),
        )

    def save(self, path: str | Path) -> None:
        """Write the manifest as JSON (atomic replace)."""
        atomic_write_json(path, self.to_dict(), indent=2)

    @classmethod
    def load(cls, path: str | Path) -> "ShardManifest":
        """Read a manifest written by :meth:`save`."""
        try:
            data = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigurationError(f"unreadable shard manifest {path}: {exc}") from exc
        return cls.from_dict(data)


def merge_manifests(manifests: Sequence[ShardManifest]) -> ShardManifest:
    """Union a completed shard set into one single-host-style manifest.

    Requires every manifest to carry the same code fingerprint (keys
    from different simulator versions do not address the same results).
    Cells are deduplicated by content key; the additive sweep counters
    are summed (gauges like ``n_jobs``, which no single host ran at the
    summed value, are dropped rather than misreported).
    """
    if not manifests:
        raise ConfigurationError("nothing to merge: no manifests given")
    codes = {m.code for m in manifests}
    if len(codes) > 1:
        raise ConfigurationError(
            f"refusing to merge manifests from different code versions: {sorted(codes)}"
        )
    seen: set[str] = set()
    cells: list[tuple[str, str]] = []
    stats: dict[str, Any] = {}
    for manifest in manifests:
        for tag, key in manifest.cells:
            if key not in seen:
                seen.add(key)
                cells.append((tag, key))
        for name in _ADDITIVE_STATS:
            value = manifest.stats.get(name)
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                stats[name] = stats.get(name, 0) + value
    return ShardManifest(
        grid=manifests[0].grid,
        strategy=manifests[0].strategy,
        shard=None,
        code=manifests[0].code,
        cells=tuple(cells),
        stats=stats,
        cache_dir=None,
    )
