"""The sweep orchestrator: cache lookup, executor dispatch, memoization.

:class:`SweepRunner` evaluates a grid in three steps:

1. Every cell's content key is checked against the
   :class:`~repro.sweep.cache.ResultCache` (when one is configured);
   hits are returned without any simulation.
2. Misses are handed to the runner's
   :class:`~repro.sweep.executors.Executor` — ``serial`` in-process,
   ``process`` one-cell-per-worker, or ``batched`` (the ``n_jobs > 1``
   default) which dispatches whole scenario batches so workers reuse
   one :class:`~repro.sim.engine.Simulator` across a scenario's
   policies. Results are bitwise-identical across all three: the
   simulator is deterministic in the config's seed and every path
   reconstructs results through the same (lossless) serializer.
3. Fresh outcomes are memoized the moment they land (an interrupted
   sweep keeps its finished cells), and all cells — cached and fresh —
   are assembled into a :class:`SweepOutcome` indexed by the cells'
   tags.

Progress streams on the runner's
:class:`~repro.sweep.events.ProgressBus` (``runner.bus``): one typed
event per cell lifecycle transition (cached / started / finished /
unsupported) plus sweep start/finish brackets — what the CLI's
``--progress`` printer and the ROADMAP's sweep service subscribe to.

Policies that reject a scenario (:class:`~repro.errors.PolicyError`,
the paper's "Does not support" cells) land in ``outcome.unsupported``
instead of aborting the sweep, and the rejection itself is memoized.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Hashable, Iterable

from ..errors import ConfigurationError
from ..sim import SimulationResult
from .backends import CacheBackend
from .cache import CachedOutcome, ResultCache, cell_key_from_dict
from .events import CellCached, ProgressBus, SweepFinished, SweepStarted
from .executors import CellResult, CellTask, Executor, _cpu_budget, resolve_executor
from .grid import ScenarioGrid, SweepCell, as_cells
from .shard import ShardPlanner, ShardSpec

__all__ = ["SweepOutcome", "SweepRunner", "SweepStats"]


@dataclass
class SweepStats:
    """Bookkeeping for one :meth:`SweepRunner.run` call."""

    cells: int = 0
    hits: int = 0
    misses: int = 0
    unsupported: int = 0
    elapsed_s: float = 0.0
    n_jobs: int = 1
    cached: bool = True
    executor: str = "serial"

    @property
    def hit_rate(self) -> float:
        """Fraction of cells served from the cache."""
        return self.hits / self.cells if self.cells else 0.0

    @property
    def cells_per_sec(self) -> float:
        """Sweep throughput, cache hits included."""
        return self.cells / self.elapsed_s if self.elapsed_s > 0 else 0.0

    #: Counter fields combined by :meth:`accumulate` / :meth:`minus`.
    _COUNTERS = ("cells", "hits", "misses", "unsupported", "elapsed_s")

    def accumulate(self, other: "SweepStats") -> None:
        """Add ``other``'s counters into this instance (lifetime totals)."""
        for attr in self._COUNTERS:
            setattr(self, attr, getattr(self, attr) + getattr(other, attr))

    def minus(self, before: "SweepStats") -> "SweepStats":
        """The counter delta since a ``before`` snapshot."""
        delta = SweepStats(n_jobs=self.n_jobs, cached=self.cached, executor=self.executor)
        for attr in self._COUNTERS:
            setattr(delta, attr, getattr(self, attr) - getattr(before, attr))
        return delta

    def render(self) -> str:
        """One-line human-readable summary."""
        cache = (
            f"cache: {self.hits} hit / {self.misses} miss "
            f"({100 * self.hit_rate:.0f}% hit rate)"
            if self.cached
            else "cache: disabled"
        )
        return (
            f"{self.cells} cells in {self.elapsed_s:.2f}s "
            f"({self.cells_per_sec:.1f} cells/s, n_jobs={self.n_jobs}, "
            f"executor={self.executor}) | "
            f"{cache} | {self.unsupported} unsupported"
        )


@dataclass(frozen=True)
class SweepOutcome:
    """Results of one sweep, indexed by cell tag.

    ``errors`` maps each unsupported tag to the recorded
    :class:`~repro.errors.PolicyError` message (the *why* behind the
    rejection).
    """

    results: dict[Hashable, SimulationResult]
    unsupported: tuple[Hashable, ...] = ()
    stats: SweepStats = field(default_factory=SweepStats)
    errors: dict[Hashable, str] = field(default_factory=dict)

    def __getitem__(self, tag: Hashable) -> SimulationResult:
        return self.results[tag]

    def get(self, tag: Hashable) -> SimulationResult | None:
        """Result for ``tag``, or None when unsupported/absent."""
        return self.results.get(tag)

    def __contains__(self, tag: Hashable) -> bool:
        return tag in self.results

    def __len__(self) -> int:
        return len(self.results)


def _resolve_cache(
    cache: "CacheBackend | ResultCache | None", cache_dir: str | Path | None
) -> ResultCache | None:
    """The one (optional) ResultCache a directory or a live cache names."""
    if cache is not None and cache_dir is not None:
        raise ConfigurationError("pass cache or cache_dir, not both")
    if cache_dir is not None:
        return ResultCache(cache_dir)
    if cache is None or isinstance(cache, ResultCache):
        return cache
    if isinstance(cache, CacheBackend):  # runtime_checkable: structural
        return ResultCache(cache)
    raise ConfigurationError(
        f"cache= takes a CacheBackend or ResultCache instance, got "
        f"{type(cache).__name__}; name a directory with cache_dir="
    )


class SweepRunner:
    """Runs scenario grids through a pluggable executor and cache.

    Parameters
    ----------
    n_jobs:
        Worker processes. ``1`` (the default) runs serially in-process;
        ``None`` uses every core this process may run on: its CPU
        affinity (which ``taskset`` narrows), capped by a cgroup CPU
        quota rounded up. Results are identical either way.
    cache_dir:
        Root of the on-disk result cache. ``None`` disables caching
        (every cell simulates).
    executor:
        Execution strategy: ``"serial"`` / ``"process"`` /
        ``"batched"``, or any :class:`~repro.sweep.executors.Executor`
        instance. ``None`` picks ``serial`` for ``n_jobs == 1`` and
        ``batched`` otherwise.
    cache:
        Alternative to ``cache_dir``: a live
        :class:`~repro.sweep.backends.CacheBackend` (e.g. an
        :class:`~repro.sweep.backends.InMemoryBackend`) or a ready
        :class:`ResultCache`. Directories are named by ``cache_dir``.
    tile_rows:
        Engine streaming tile height: execute each epoch in bands of
        this many worker rows (``None`` = the engine's derived height,
        :func:`repro.sim.engine.band_rows`). Results — and
        therefore cache keys and cached bytes — are bitwise identical
        for every value, so it is an execution knob, not part of any
        scenario fingerprint.
    """

    def __init__(
        self,
        n_jobs: int | None = 1,
        cache_dir: str | Path | None = None,
        *,
        executor: "str | Executor | None" = None,
        cache: "CacheBackend | ResultCache | None" = None,
        tile_rows: int | None = None,
    ) -> None:
        if n_jobs is None:
            n_jobs = _cpu_budget()
        if n_jobs < 1:
            raise ConfigurationError("n_jobs must be >= 1 (or None for all cores)")
        if tile_rows is not None and int(tile_rows) < 1:
            raise ConfigurationError(
                "tile_rows must be >= 1 (or None for the derived band height)"
            )
        self.n_jobs = int(n_jobs)
        self.tile_rows = None if tile_rows is None else int(tile_rows)
        self.cache = _resolve_cache(cache, cache_dir)
        self.executor = resolve_executor(executor, self.n_jobs)
        #: The progress bus every sweep on this runner publishes to.
        self.bus = ProgressBus()
        #: Totals accumulated over every :meth:`run` call on this runner —
        #: the full-paper driver reports one line for its whole sweep.
        self.lifetime = SweepStats(
            n_jobs=self.n_jobs,
            cached=self.cache is not None,
            executor=self.executor.name,
        )

    def run(self, grid: ScenarioGrid | Iterable[SweepCell]) -> SweepOutcome:
        """Evaluate every cell of ``grid`` and collect the outcome."""
        cells = as_cells(grid)
        stats = SweepStats(
            cells=len(cells),
            n_jobs=self.n_jobs,
            cached=self.cache is not None,
            executor=self.executor.name,
        )
        start = time.perf_counter()
        self.bus.emit(SweepStarted(total=len(cells)))

        # Configs are serialized only when a cache key or a pool
        # payload needs them, and once per config object (grids share
        # one config across their policy cells).
        serialize_configs = self.cache is not None or not self.executor.in_process
        config_dicts: dict[int, dict[str, Any]] = {}  # id(config) -> to_dict()

        def config_dict_of(cell: SweepCell) -> dict[str, Any] | None:
            if not serialize_configs:
                return None
            config_dict = config_dicts.get(id(cell.config))
            if config_dict is None:
                config_dict = config_dicts[id(cell.config)] = cell.config.to_dict()
            return config_dict

        # The hit-stat flush lives in a finally: a sweep that dies
        # mid-execute (worker crash, Ctrl-C) still records the hits it
        # served — hit counters are observability data and must survive
        # the failure, like the memoized cells themselves do.
        try:
            outcomes: dict[int, CachedOutcome] = {}
            tasks: list[CellTask] = []
            keys: dict[int, str] = {}  # task index -> content key
            for idx, cell in enumerate(cells):
                config_dict = config_dict_of(cell)
                cached: CachedOutcome | None = None
                if self.cache is not None:
                    key = cell_key_from_dict(config_dict, cell.policy)
                    keys[idx] = key
                    cached = self.cache.get(key)
                if cached is not None:
                    outcomes[idx] = cached
                    stats.hits += 1
                    self.bus.emit(
                        CellCached(tag=cell.tag, index=idx, supported=cached.supported)
                    )
                else:
                    tasks.append(
                        CellTask(
                            index=idx,
                            cell=cell,
                            config_dict=config_dict,
                            tile_rows=self.tile_rows,
                        )
                    )
            stats.misses = len(tasks)

            # Memoize each outcome as it lands (not after the whole
            # batch): an interrupted long sweep keeps its finished
            # cells, and a restart only re-simulates the remainder.
            if tasks:
                for result in self.executor.execute(tasks, self.bus.emit):
                    outcomes[result.index] = self._record(
                        keys.get(result.index), result
                    )
        finally:
            if self.cache is not None:
                self.cache.flush_hit_stats()

        results: dict[Hashable, SimulationResult] = {}
        unsupported: list[Hashable] = []
        errors: dict[Hashable, str] = {}
        for idx, cell in enumerate(cells):
            outcome = outcomes[idx]
            if outcome.supported:
                results[cell.tag] = outcome.result
            else:
                unsupported.append(cell.tag)
                errors[cell.tag] = outcome.error or ""
        stats.unsupported = len(unsupported)
        stats.elapsed_s = time.perf_counter() - start
        self.lifetime.accumulate(stats)
        self.bus.emit(SweepFinished(stats=stats))
        return SweepOutcome(
            results=results, unsupported=tuple(unsupported), stats=stats, errors=errors
        )

    def run_shard(
        self,
        grid: ScenarioGrid | Iterable[SweepCell],
        shard: ShardSpec | str,
        strategy: str = "round_robin",
    ) -> SweepOutcome:
        """Evaluate only this host's shard of ``grid``.

        Plans the full grid with :class:`~repro.sweep.shard.ShardPlanner`
        (deterministic: every host planning the same grid computes the
        same partition) and runs shard ``shard`` — the string form
        ``"i/K"`` is accepted as-is from the CLI. Running every shard
        and merging the caches reproduces the single-host sweep bit for
        bit (see :mod:`repro.sweep.gc`).
        """
        spec = ShardSpec.parse(shard) if isinstance(shard, str) else shard
        cells = ShardPlanner(strategy).plan(grid, spec.count).shard(spec)
        return self.run(cells)

    # -- internals -----------------------------------------------------------

    def _record(self, key: str | None, raw: CellResult) -> CachedOutcome:
        """Deserialize one executor result; memoize it when cache-backed."""
        outcome = CachedOutcome(
            result=(
                None
                if raw.result_dict is None
                else SimulationResult.from_dict(raw.result_dict)
            ),
            error=raw.error,
        )
        if self.cache is not None and key is not None:
            self.cache.put(key, outcome, result_dict=raw.result_dict)
        return outcome
