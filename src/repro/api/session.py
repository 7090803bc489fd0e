"""`Session`: the one entry point for running scenarios and sweeps.

A :class:`Session` wraps a configured
:class:`~repro.sweep.runner.SweepRunner` (executor + worker count +
cache backend) behind two verbs:

* :meth:`Session.run` — one :class:`~repro.api.scenario.Scenario` in,
  one :class:`~repro.sim.result.SimulationResult` out (memoized when
  the session is cache-backed).
* :meth:`Session.sweep` — evaluate a whole grid: a
  :class:`~repro.sweep.grid.ScenarioGrid`, a list of
  :class:`~repro.sweep.grid.SweepCell` s, or a list of
  :class:`Scenario` s (tags default to their fingerprints). ``shard``
  runs only this host's deterministic slice.

A session keeps one runner, so one configuration, for its whole life;
a different worker count, executor, cache or tile height means a
second session.

The engine, the sweep CLI, the figure modules and any future job-queue
service all sit on the same runner underneath, so results and cache
entries are interchangeable across every path.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Any, Callable, Hashable, Iterable, Mapping, Sequence

from ..datasets import DatasetModel
from ..errors import ConfigurationError, PolicyError
from ..sim import SimulationResult
from ..sweep.backends import CacheBackend
from ..sweep.cache import ResultCache
from ..sweep.events import ProgressBus, SweepEvent
from ..sweep.executors import Executor
from ..sweep.grid import ScenarioGrid, SweepCell, as_cells
from ..sweep.runner import SweepOutcome, SweepRunner, SweepStats
from ..sweep.shard import ShardSpec
from .scenario import Scenario

__all__ = ["Session"]

#: Grid forms :meth:`Session.sweep` accepts.
GridLike = ScenarioGrid | Iterable[SweepCell | Scenario | Mapping[str, Any]]


class Session:
    """A configured simulation context: executor, worker pool, cache.

    Parameters
    ----------
    jobs:
        Sweep worker processes (``1`` = serial in-process, ``None`` =
        every CPU this process may run on). Results are identical.
    cache_dir:
        Root of the on-disk result cache; ``None`` disables caching.
    executor:
        Execution strategy: ``"serial"`` / ``"process"`` /
        ``"batched"``, or any :class:`~repro.sweep.executors.Executor`.
        ``None`` picks the default for ``jobs`` (serial when 1,
        batched otherwise). Results are bitwise-identical across all
        built-in executors.
    cache:
        Alternative to ``cache_dir``: a live
        :class:`~repro.sweep.backends.CacheBackend` (e.g. an
        :class:`~repro.sweep.backends.InMemoryBackend`) or
        :class:`~repro.sweep.cache.ResultCache` instance — the seam
        other cache stores plug into. Sessions that share the instance
        share its entries.
    tile_rows:
        Engine streaming tile height (worker rows per execute-phase
        band); ``None`` lets the engine derive it from the epoch's
        per-worker stream length (:func:`repro.sim.engine.band_rows`).
        Results and cache entries are bitwise identical for every
        value.
    """

    def __init__(
        self,
        jobs: int | None = 1,
        cache_dir: str | Path | None = None,
        *,
        executor: "str | Executor | None" = None,
        cache: "CacheBackend | ResultCache | None" = None,
        tile_rows: int | None = None,
    ) -> None:
        self._runner = SweepRunner(
            n_jobs=jobs,
            cache_dir=cache_dir,
            executor=executor,
            cache=cache,
            tile_rows=tile_rows,
        )

    @property
    def runner(self) -> SweepRunner:
        """The underlying sweep runner (shared with figure modules)."""
        return self._runner

    @property
    def cache_dir(self) -> Path | None:
        """The cache root for dir-backed caches; None otherwise."""
        return None if self._runner.cache is None else self._runner.cache.root

    @property
    def bus(self) -> ProgressBus:
        """The progress bus this session's sweeps publish on.

        ``session.bus.subscribe(cb)`` attaches for the session's whole
        life; per-sweep listeners pass ``on_event`` to :meth:`sweep`.
        """
        return self._runner.bus

    @property
    def stats(self) -> SweepStats:
        """Lifetime sweep statistics accumulated by this session."""
        return self._runner.lifetime

    # -- scenario normalization ---------------------------------------

    @staticmethod
    def as_scenario(scenario: "Scenario | Mapping[str, Any] | str") -> Scenario:
        """Coerce a scenario argument: instance, dict, or JSON string."""
        if isinstance(scenario, Scenario):
            return scenario
        if isinstance(scenario, Mapping):
            return Scenario.from_dict(dict(scenario))
        if isinstance(scenario, str):
            return Scenario.from_json(scenario)
        raise ConfigurationError(
            f"cannot interpret {type(scenario).__name__!r} as a Scenario"
        )

    @classmethod
    def as_cells(
        cls,
        grid: GridLike,
        tags: Sequence[Hashable] | None = None,
    ) -> list[SweepCell]:
        """Normalize any grid form to a validated :class:`SweepCell` list.

        ``tags`` supplies explicit labels, one per grid entry,
        positionally — relabelling :class:`SweepCell` entries too.
        Without it, scenario entries (instances or dicts) are tagged
        with their fingerprints and cells keep their own tags.

        Scenario entries whose built datasets compare equal share one
        :class:`~repro.datasets.DatasetModel` instance, so the sweep
        generates (and holds) each sample-size table once rather than
        once per cell. Equal values make this invisible to tags,
        fingerprints and cache keys. :class:`SweepCell` entries pass
        through untouched.
        """
        if isinstance(grid, ScenarioGrid):
            if tags is not None:
                raise ConfigurationError("tags cannot relabel a ScenarioGrid")
            return grid.cells()
        items = list(grid)
        if tags is not None and len(tags) != len(items):
            raise ConfigurationError(
                f"got {len(tags)} tags for {len(items)} grid entries"
            )
        cells: list[SweepCell] = []
        datasets: dict[DatasetModel, DatasetModel] = {}
        for i, item in enumerate(items):
            if isinstance(item, SweepCell):
                if tags is not None:
                    item = dataclasses.replace(item, tag=tags[i])
                cells.append(item)
                continue
            scenario = cls.as_scenario(item)
            cell = scenario.cell(tag=None if tags is None else tags[i])
            config = cell.config
            dataset = datasets.setdefault(config.dataset, config.dataset)
            if dataset is not config.dataset:
                config = dataclasses.replace(config, dataset=dataset)
                cell = dataclasses.replace(cell, config=config)
            cells.append(cell)
        return as_cells(cells)

    # -- execution -----------------------------------------------------

    def run(self, scenario: "Scenario | Mapping[str, Any] | str") -> SimulationResult:
        """Simulate one scenario (cache-memoized) and return its result.

        Raises :class:`~repro.errors.PolicyError` when the policy
        rejects the scenario (the paper's "Does not support" cells) —
        single-scenario callers want the loud failure, not a sentinel.
        """
        scenario = self.as_scenario(scenario)
        cell = scenario.cell()
        outcome = self._runner.run([cell])
        if outcome.unsupported:
            reason = outcome.errors.get(cell.tag) or "no reason recorded"
            raise PolicyError(f"{scenario.label}: {reason}")
        return outcome[cell.tag]

    def sweep(
        self,
        grid: GridLike,
        *,
        tags: Sequence[Hashable] | None = None,
        shard: ShardSpec | str | None = None,
        strategy: str = "round_robin",
        on_event: Callable[[SweepEvent], None] | None = None,
    ) -> SweepOutcome:
        """Evaluate a grid (optionally one shard of it) and collect results.

        ``on_event`` subscribes a progress listener for just this sweep
        — every cell lifecycle transition (:mod:`repro.sweep.events`)
        is delivered to it.
        """
        unsubscribe = None if on_event is None else self.bus.subscribe(on_event)
        try:
            cells = self.as_cells(grid, tags=tags)
            if shard is not None:
                return self._runner.run_shard(cells, shard, strategy)
            return self._runner.run(cells)
        finally:
            if unsubscribe is not None:
                unsubscribe()
