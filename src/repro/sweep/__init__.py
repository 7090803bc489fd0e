"""Parallel scenario-sweep engine with an on-disk result cache.

The paper's evaluation is a large grid of (dataset x system x policy x
batch size x epochs x seed) simulations — embarrassingly parallel and
fully deterministic. This package makes that grid a first-class object:

* :class:`~repro.sweep.grid.ScenarioGrid` declares the axes and expands
  them into :class:`~repro.sweep.grid.SweepCell` s (one simulation each).
* :class:`~repro.sweep.runner.SweepRunner` hands cache misses to a
  pluggable :class:`~repro.sweep.executors.Executor` — ``serial``
  in-process, ``process`` one-cell-per-worker, or ``batched`` (the
  parallel default: whole scenario batches per worker, so access
  streams are built once per scenario, not once per cell) — and
  memoizes every cell's :class:`~repro.sim.result.SimulationResult`
  in a content-addressed cache (:class:`~repro.sweep.cache.ResultCache`)
  over a pluggable :class:`~repro.sweep.backends.CacheBackend` (a
  directory named by ``cache_dir``, or any live backend instance
  passed as ``cache``).
* Sweeps stream typed progress events (cell started / cached /
  finished / unsupported) on the runner's
  :class:`~repro.sweep.events.ProgressBus` — what the CLI's
  ``--progress`` flag and ``Session.sweep(on_event=...)`` subscribe to.

Cache entries are keyed by a stable SHA-256 of the fully serialized
:class:`~repro.sim.config.SimulationConfig`, the policy fingerprint
(class, name, constructor state) and the code fingerprint (package
version + a digest of the simulation-relevant source) — identical
scenarios hit, any config/policy/simulator-code change misses. Cached results are
bitwise-identical to freshly simulated ones; parallel and serial runs
of the same grid agree exactly (the simulator is deterministic given
the config's seed).

Sweeps scale past one machine and one disk:

* :mod:`repro.sweep.shard` deterministically partitions a grid into K
  disjoint shards (round-robin or cost-weighted), each runnable on a
  separate host; shard manifests and caches merge back into a result
  set bitwise-identical to a single-host sweep.
* :mod:`repro.sweep.gc` manages the cache directory's lifecycle: an
  on-disk hit index, LRU eviction under ``max_bytes``/``max_age``
  policies, corruption detection with quarantine, and shard-cache
  merging.
* :mod:`repro.sweep.cli` exposes all of it on the command line as
  ``python -m repro sweep run|merge`` and ``python -m repro cache
  gc|stats|verify``.

The experiment harness (:mod:`repro.experiments`) composes on top of
this: figure modules declare their grids via
:func:`repro.experiments.common.policy_cells` and consume the
:class:`~repro.sweep.runner.SweepOutcome`, so the full-paper driver
(:mod:`repro.experiments.paper`) shares one runner — and one cache —
across every figure, and its artifact pipeline
(:mod:`repro.experiments.artifacts`) re-renders only figures whose
cells or rendering code changed.
"""

from .backends import (
    CacheBackend,
    EntryStat,
    InMemoryBackend,
    LocalDirBackend,
    as_backend,
)
from .cache import (
    CACHE_SCHEMA_VERSION,
    QUARANTINE_DIR,
    CachedOutcome,
    ResultCache,
    cell_key,
    code_fingerprint,
    policy_fingerprint,
)
from .events import (
    CellCached,
    CellFinished,
    CellStarted,
    CellUnsupported,
    ProgressBus,
    SweepEvent,
    SweepFinished,
    SweepStarted,
)
from .executors import (
    EXECUTORS,
    BatchedExecutor,
    CellResult,
    CellTask,
    Executor,
    ProcessExecutor,
    SerialExecutor,
    resolve_executor,
)
from .gc import (
    CacheEntry,
    CacheIndex,
    CacheStatsReport,
    GCReport,
    MergeReport,
    VerifyReport,
    cache_stats,
    collect_garbage,
    merge_caches,
    scan_entries,
    verify_cache,
)
from .grid import ScenarioGrid, SweepCell
from .runner import SweepOutcome, SweepRunner, SweepStats
from .shard import (
    ShardManifest,
    ShardPlan,
    ShardPlanner,
    ShardSpec,
    estimate_cell_cost,
    merge_manifests,
)

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "EXECUTORS",
    "QUARANTINE_DIR",
    "BatchedExecutor",
    "CacheBackend",
    "CacheEntry",
    "CacheIndex",
    "CacheStatsReport",
    "CachedOutcome",
    "CellCached",
    "CellFinished",
    "CellResult",
    "CellStarted",
    "CellTask",
    "CellUnsupported",
    "EntryStat",
    "Executor",
    "GCReport",
    "InMemoryBackend",
    "LocalDirBackend",
    "MergeReport",
    "ProcessExecutor",
    "ProgressBus",
    "ResultCache",
    "ScenarioGrid",
    "SerialExecutor",
    "ShardManifest",
    "ShardPlan",
    "ShardPlanner",
    "ShardSpec",
    "SweepCell",
    "SweepEvent",
    "SweepFinished",
    "SweepOutcome",
    "SweepRunner",
    "SweepStarted",
    "SweepStats",
    "VerifyReport",
    "as_backend",
    "cache_stats",
    "cell_key",
    "code_fingerprint",
    "collect_garbage",
    "estimate_cell_cost",
    "merge_caches",
    "merge_manifests",
    "policy_fingerprint",
    "resolve_executor",
    "scan_entries",
    "verify_cache",
]
