"""Pluggable sweep execution: the :class:`Executor` protocol.

:class:`~repro.sweep.runner.SweepRunner` no longer hard-wires *how*
cache misses get simulated — it hands the pending cells to an executor
and records whatever comes back. Three implementations ship:

``serial`` (:class:`SerialExecutor`)
    In-process — easiest to debug/profile. Runs each scenario batch
    (below) on one :class:`~repro.sim.engine.Simulator`, so every
    policy of a scenario shares one epoch-major pass (Fig 10's seven
    policies on one scenario build each epoch's permutation once),
    keeping only the *current* batch's simulator alive. On two or more
    CPUs a large scenario's simulator prices each epoch of several
    policies on two threads (:func:`_helper_pays`).

``process`` (:class:`ProcessExecutor`)
    One cell per :class:`~concurrent.futures.ProcessPoolExecutor`
    task. Maximum scheduling freedom, but every cell pays a fresh
    ``Simulator`` — the access streams are rebuilt per *cell*.

``batched`` (:class:`BatchedExecutor`) — **the default when
``n_jobs > 1``**
    Cuts any scenario batch longer than an even share of the sweep
    (``ceil(cells / max_workers)``) into contiguous chunks, so a
    one-scenario multi-seed sweep still fills every worker. Each chunk
    is one pool task: the worker rebuilds one ``Simulator`` and runs
    the chunk's cells on it. This amortizes spawn/pickle overhead and
    keeps the serial path's stream reuse under parallelism; seed
    replicas of one scenario (the paper's Sec 7 multi-seed
    replications) run on sibling simulators that share the dataset's
    size table.

One grouping rule serves both: a *scenario batch*
(:func:`_scenario_batches`) is every cell with the same seed-invariant
scenario fingerprint — the canonical serialized config minus ``seed``
— and the same ``tile_rows``, in first-seen order. Equal configs held
as distinct objects (one per :class:`~repro.api.Scenario`, as
``Session.sweep`` and ``sweep run --scenarios`` build them) share a
batch, and so do cells that differ only in their noise seed.

Every executor runs its cells through one batch step,
:func:`_run_batch` (each run of cells sharing a seed is one
:meth:`~repro.sim.engine.Simulator.run_many_seed` call): the serial
executor in-process per scenario batch, the pool executors inside one
worker function (:func:`_simulate_batch`; the ``process`` executor with
one-cell batches) fed by one dispatch loop.

All three produce **bitwise-identical** results: every path simulates
from the same serialized config, and the simulator is deterministic in
the config's seed. Executors emit typed
:mod:`~repro.sweep.events` progress events (cell started / finished /
unsupported) through the ``emit`` callback — always from the sweeping
process, never from workers — and *yield* results as they land, so the
runner can memoize each cell the moment it completes (an interrupted
sweep keeps its finished cells).

Failure contract: a :class:`~repro.errors.PolicyError` is data (an
"unsupported" cell result); any other exception aborts the sweep.
Executors cancel undispatched work, keep draining/yielding the results
that did complete, then raise the first error — so a restart only
re-simulates what truly never ran. The pool worker returns its
partial batch alongside the failure for the same reason.
"""

from __future__ import annotations

import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator, Protocol, Sequence, runtime_checkable

from ..errors import ConfigurationError, PolicyError
from ..sim import Policy, ScenarioContext, SimulationConfig, Simulator
from .events import CellFinished, CellStarted, CellUnsupported, SweepEvent
from .grid import SweepCell

__all__ = [
    "EXECUTORS",
    "BatchedExecutor",
    "CellResult",
    "CellTask",
    "Executor",
    "ProcessExecutor",
    "SerialExecutor",
    "resolve_executor",
]

#: Executor spec names accepted by :func:`resolve_executor` / the CLI.
EXECUTORS = ("serial", "process", "batched")

#: The event sink executors publish progress through.
Emit = Callable[[SweepEvent], None]


@dataclass(frozen=True)
class CellTask:
    """One pending simulation handed to an executor.

    ``config_dict`` is the cell's serialized config — the runner fills
    it (memoized per config object) for out-of-process executors,
    which must rebuild the config worker-side; in-process executors
    may receive None and use ``cell.config`` directly.

    ``tile_rows`` (the engine's streaming tile height; ``None`` = the
    engine's derived height) is an execution knob, not part of the scenario: results are
    bitwise identical for every value, so it deliberately stays out of
    the config dict and therefore out of the cache key.
    """

    index: int
    cell: SweepCell
    config_dict: dict[str, Any] | None = None
    tile_rows: int | None = None


@dataclass(frozen=True)
class CellResult:
    """One completed simulation, in the wire format the cache stores.

    Either ``result_dict`` (a serialized
    :class:`~repro.sim.result.SimulationResult`) or ``error`` (the
    recorded :class:`~repro.errors.PolicyError` message) is set —
    mirroring :class:`~repro.sweep.cache.CachedOutcome`.
    """

    index: int
    result_dict: dict[str, Any] | None
    error: str | None
    elapsed_s: float = 0.0

    @property
    def supported(self) -> bool:
        """Whether the policy ran on this scenario."""
        return self.result_dict is not None


@runtime_checkable
class Executor(Protocol):
    """How a batch of pending cells gets simulated.

    Implementations yield a :class:`CellResult` per task, in completion
    order, emitting progress events along the way; ``name`` labels the
    strategy in stats and manifests; ``in_process`` tells the runner
    whether tasks need their configs serialized (workers in other
    processes cannot share the parent's objects).
    """

    name: str
    in_process: bool

    def execute(
        self, tasks: Sequence[CellTask], emit: Emit
    ) -> Iterator[CellResult]:
        """Simulate ``tasks``, yielding one result each as it completes."""
        ...


def _task_config_dict(task: CellTask) -> dict[str, Any]:
    """The serialized config a pool payload needs (runner pre-fills it)."""
    if task.config_dict is not None:
        return task.config_dict
    return task.cell.config.to_dict()


def _consecutive_groups(items: Sequence, key: Callable) -> Iterator[list]:
    """Split ``items`` into maximal runs sharing ``key(item)``."""
    group: list = []
    group_key = None
    for item in items:
        item_key = key(item)
        if group and item_key != group_key:
            yield group
            group = []
        group_key = item_key
        group.append(item)
    if group:
        yield group


def _scenario_batches(tasks: Sequence[CellTask]) -> list[list[CellTask]]:
    """``tasks`` grouped into scenario batches, in first-seen order.

    A batch holds every task whose config serializes to the same
    canonical JSON once ``seed`` is stripped, at the same ``tile_rows``
    (a batch shares one Simulator, so it must be uniform in its tile
    height). Tasks keep their relative order within a batch.
    """
    # The serialization memo keys on the config *object* (kept alive by
    # its cell, so ids cannot be recycled mid-loop), while batches key
    # on the canonical seed-stripped JSON.
    scenario_keys: dict[int, str] = {}  # id(cell.config) -> seedless JSON
    batches: dict[tuple[str, int | None], list[CellTask]] = {}
    for task in tasks:
        config_id = id(task.cell.config)
        scenario_key = scenario_keys.get(config_id)
        if scenario_key is None:
            config_dict = _task_config_dict(task)
            scenario_key = scenario_keys[config_id] = json.dumps(
                {k: v for k, v in config_dict.items() if k != "seed"},
                sort_keys=True,
                separators=(",", ":"),
            )
        batches.setdefault((scenario_key, task.tile_rows), []).append(task)
    return list(batches.values())


#: One completed cell on the wire: ``(index, result_dict, error, elapsed_s)``.
Done = tuple[int, dict[str, Any] | None, str | None, float]


def _run_seed_group(sim: Simulator, group: list[tuple[int, Policy, int]]) -> list[Done]:
    """One epoch-major ``run_many_seed`` call over cells sharing a seed."""
    start = time.perf_counter()
    outcomes = sim.run_many_seed([policy for _, policy, _ in group], group[0][2])
    elapsed = (time.perf_counter() - start) / len(group)
    return [
        (index, None, str(outcome), elapsed)
        if isinstance(outcome, PolicyError)
        else (index, outcome.to_dict(), None, elapsed)
        for (index, _, _), outcome in zip(group, outcomes)
    ]


def _run_batch(
    sim: Simulator, items: Sequence[tuple[int, Policy, int]]
) -> tuple[list[Done], BaseException | None]:
    """Run ``(index, policy, seed)`` cells of ``sim``'s scenario, in order.

    The one batch step every executor runs. Consecutive cells sharing a
    seed go through one epoch-major
    :meth:`~repro.sim.engine.Simulator.run_many_seed` call, which shares
    each epoch's permutation and size gather across their policies —
    bitwise identical to fresh per-cell runs. Grouped cells report the
    group's mean per-cell wall time.

    Returns ``(completed_cells, failure)``: on an unexpected error the
    cells that finished *before* it are returned alongside the
    exception, so the caller can memoize them before re-raising. A group
    that crashes re-runs its cells one at a time (determinism makes the
    re-run bitwise free) to keep that per-cell guarantee.
    """
    done: list[Done] = []
    for group in _consecutive_groups(items, key=lambda item: item[2]):
        try:
            done += _run_seed_group(sim, group)
        except BaseException as exc:  # noqa: BLE001 - handed to the caller to re-raise
            if len(group) > 1:
                for item in group:
                    try:
                        done += _run_seed_group(sim, [item])
                    except BaseException as cell_exc:  # noqa: BLE001 - same
                        return done, cell_exc
            return done, exc
    return done, None


def _simulate_batch(
    payload: tuple[dict[str, Any], list[tuple[int, Policy, int]], int | None],
) -> tuple[list[Done], BaseException | None]:
    """The pool worker: rebuild the batch's Simulator, then :func:`_run_batch`.

    Top-level so it pickles. A batch is a scenario batch, a contiguous
    chunk of one (the cut may fall inside a seed run — determinism makes
    that bitwise free), or the ``process`` executor's single cell.
    ``config_dict`` is the batch's first cell's config; the other cells
    may differ only in ``seed``.
    """
    config_dict, items, tile_rows = payload
    # No helper thread: the pool's processes already fill the cores.
    sim = Simulator(SimulationConfig.from_dict(config_dict), tile_rows=tile_rows, helper=False)
    return _run_batch(sim, items)


#: The smallest scenario whose lineup epochs the serial executor
#: finishes on a helper thread: every worker reads at least
#: ``_HELPER_MIN_ROW`` samples per epoch and the epoch at least
#: ``_HELPER_MIN_READS`` in all. Below either minimum most measured
#: lineups ran slower on two threads than on one (2-vCPU x86-64 VM;
#: docs/performance.md, "Two threads per epoch").
_HELPER_MIN_ROW = 1024
_HELPER_MIN_READS = 2**18

#: The cgroup v2 CPU limit (``"<quota> <period>"`` or ``"max <period>"``)
#: and the cgroup v1 CPU controller's directory.
_CPU_MAX = Path("/sys/fs/cgroup/cpu.max")
_CFS_DIR = Path("/sys/fs/cgroup/cpu")


def _helper_pays(config: SimulationConfig) -> bool:
    """Whether the serial executor's simulator for ``config`` gets a helper.

    It needs a second CPU and a scenario of at least the
    ``_HELPER_MIN_*`` size: with shorter rows the band loop's per-row
    Python, which holds the interpreter lock, outweighs the NumPy work
    that releases it, and a smaller epoch leaves too little work per
    item to pay for the hand-offs.
    """
    row = config.stream_config.samples_per_worker_per_epoch
    return (
        row >= _HELPER_MIN_ROW
        and row * config.system.num_workers >= _HELPER_MIN_READS
        and _cpu_budget() > 1
    )


def _cpu_budget() -> int:
    """CPUs this process may use: its affinity mask, capped by a cgroup quota."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    quota = _cpu_quota()
    return cpus if quota is None else max(1, min(cpus, math.ceil(quota)))


def _cpu_quota() -> float | None:
    """The cgroup's CPU quota in CPUs (v2 ``cpu.max``, else v1), or None."""
    try:
        if _CPU_MAX.exists():
            quota, period = _CPU_MAX.read_text().split()
            if quota == "max":
                return None
        else:
            quota = (_CFS_DIR / "cpu.cfs_quota_us").read_text()
            period = (_CFS_DIR / "cpu.cfs_period_us").read_text()
        quota_us, period_us = int(quota), int(period)
    except (OSError, ValueError):
        return None
    if quota_us <= 0 or period_us <= 0:
        return None
    return quota_us / period_us


def _yield_done(
    done: list[Done], by_index: dict[int, CellTask], emit: Emit
) -> Iterator[CellResult]:
    """Yield each completed cell as a :class:`CellResult`, emitting its completion."""
    for index, result_dict, error, elapsed in done:
        result = CellResult(
            index=index, result_dict=result_dict, error=error, elapsed_s=elapsed
        )
        task = by_index[index]
        if result.supported:
            emit(CellFinished(tag=task.cell.tag, index=index, elapsed_s=elapsed))
        else:
            emit(CellUnsupported(tag=task.cell.tag, index=index, error=error or ""))
        yield result


class SerialExecutor:
    """In-process execution, one Simulator per scenario batch.

    Cells are grouped by :func:`_scenario_batches` — the rule the
    ``batched`` executor uses, without its cut — so every cell of a
    scenario runs through one :func:`_run_batch`, however the grid
    spelled it: cells sharing a config object, equal configs built one
    per :class:`~repro.api.Scenario`, or seed replicas. The scenario's
    permutations, size gathers and noise RNG states are materialized
    once per epoch for every policy of a seed — bitwise identical to
    per-cell runs. Finished cells of a batch hit by an unexpected error
    still yield before the error propagates. A scenario's simulator
    gets a helper thread (:class:`~repro.sim.engine.Simulator`'s
    ``helper``) when :func:`_helper_pays` for its config, and a lent
    context (:meth:`lend`) when the context was built for its config.
    """

    name = "serial"
    in_process = True
    #: The context :meth:`lend` lends to the sweep in progress, or ``None``.
    _lent: ScenarioContext | None = None

    @contextmanager
    def lend(self, ctx: ScenarioContext) -> Iterator[None]:
        """Within the block, simulate on ``ctx`` each batch whose config
        equals ``ctx.config``; other batches build their own context.

        The search evaluator lends its context to the sweeps it starts,
        so the prepared policies its lower bounds memoized on the context
        (:meth:`~repro.sim.context.ScenarioContext.prepare`) are not
        prepared again. The executor forgets the context when the block
        ends.
        """
        self._lent = ctx
        try:
            yield
        finally:
            self._lent = None

    def execute(self, tasks: Sequence[CellTask], emit: Emit) -> Iterator[CellResult]:
        """Simulate each scenario batch in turn, yielding results as they finish."""
        # Keep only the *current* batch's Simulator alive: retaining
        # every scenario's streams would balloon peak memory on
        # many-scenario sweeps.
        lent = self._lent
        for batch in _scenario_batches(tasks):
            config = batch[0].cell.config
            ctx = lent if lent is not None and lent.config == config else None
            sim = Simulator(
                config, tile_rows=batch[0].tile_rows, ctx=ctx, helper=_helper_pays(config)
            )
            for task in batch:
                emit(CellStarted(tag=task.cell.tag, index=task.index))
            done, failure = _run_batch(
                sim, [(t.index, t.cell.policy, t.cell.config.seed) for t in batch]
            )
            yield from _yield_done(done, {t.index: t for t in batch}, emit)
            if failure is not None:
                raise failure


class _PoolExecutorBase:
    """Shared pool plumbing: submit, drain, cancel-on-failure, raise."""

    def __init__(self, max_workers: int) -> None:
        if max_workers < 1:
            raise ConfigurationError("executor max_workers must be >= 1")
        self.max_workers = int(max_workers)

    def _dispatch(
        self, batches: list[list[CellTask]], emit: Emit
    ) -> Iterator[CellResult]:
        """Submit one :func:`_simulate_batch` pool task per batch; drain.

        Each future's finished cells are yielded (completion emitted) as
        it lands, before its shipped failure, if any, is recorded; the
        first failure cancels the undispatched rest and is re-raised
        once the drain ends. Memoization happens caller-side per
        yielded result, so cells completed before an unexpected failure
        survive a restart.
        """
        by_index = {task.index: task for batch in batches for task in batch}
        workers = max(1, min(self.max_workers, len(batches)))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = []
            for batch in batches:
                payload = (
                    _task_config_dict(batch[0]),
                    [(t.index, t.cell.policy, t.cell.config.seed) for t in batch],
                    batch[0].tile_rows,
                )
                futures.append(pool.submit(_simulate_batch, payload))
                for task in batch:
                    emit(CellStarted(tag=task.cell.tag, index=task.index))
            first_error: BaseException | None = None
            for future in as_completed(futures):
                try:
                    done, failure = future.result()
                    yield from _yield_done(done, by_index, emit)
                    if failure is not None:
                        raise failure
                except GeneratorExit:
                    # The consumer closed us mid-drain (it raised between
                    # results); cancel what we can and let close() proceed.
                    for other in futures:
                        other.cancel()
                    raise
                except BaseException as exc:  # noqa: BLE001 - deferred re-raise below
                    if first_error is None:
                        first_error = exc
                        for other in futures:
                            other.cancel()
            if first_error is not None:
                raise first_error


class ProcessExecutor(_PoolExecutorBase):
    """One cell per pool task (the historical ``n_jobs > 1`` path)."""

    name = "process"
    in_process = False

    def execute(self, tasks: Sequence[CellTask], emit: Emit) -> Iterator[CellResult]:
        """Fan one pool task out per cell; yield in completion order."""
        if len(tasks) == 1:
            # A lone cell (Session.run, a warm sweep's single miss)
            # is not worth a worker process — run it in-process, as
            # the pre-protocol runner did. Results are identical.
            yield from SerialExecutor().execute(tasks, emit)
            return
        yield from self._dispatch([[task] for task in tasks], emit)


class BatchedExecutor(_PoolExecutorBase):
    """Scenario-batched dispatch: one Simulator per pool task.

    Cells are grouped into scenario batches by :func:`_scenario_batches`
    (the serial executor's rule), so two equal-but-distinct config
    objects still share one batch, and so do cells that differ only in
    their noise seed. A batch longer than ``ceil(len(tasks) /
    max_workers)`` cells is cut into contiguous chunks of at most that
    many, so a sweep with fewer scenarios than workers (Sec 7's
    one-scenario seed replications) still keeps every worker busy;
    batches that already fit stay whole.
    Each batch or chunk is one pool task: the worker rebuilds the
    scenario's ``Simulator`` once and runs every (policy, seed) cell in
    it through :func:`_run_batch`.
    """

    name = "batched"
    in_process = False

    @staticmethod
    def group(tasks: Sequence[CellTask], parts: int = 1) -> list[list[CellTask]]:
        """Pool tasks: scenario batches, cut to at most an even share.

        Batches come in first-seen order; one longer than
        ``ceil(len(tasks) / parts)`` cells is cut into contiguous chunks
        of at most that many (``parts=1`` keeps every batch whole).
        """
        size = -(-len(tasks) // parts)
        return [
            batch[start : start + size]
            for batch in _scenario_batches(tasks)
            for start in range(0, len(batch), size)
        ]

    def execute(self, tasks: Sequence[CellTask], emit: Emit) -> Iterator[CellResult]:
        """Fan one pool task out per scenario batch or chunk; yield per cell."""
        if len(tasks) == 1:
            # A lone cell is not worth a worker process (see
            # ProcessExecutor); the serial path shares its semantics.
            yield from SerialExecutor().execute(tasks, emit)
            return
        yield from self._dispatch(self.group(tasks, self.max_workers), emit)


def resolve_executor(spec: "str | Executor | None", n_jobs: int) -> Executor:
    """Normalize an executor naming to a live instance.

    ``None`` picks the default for the worker count: ``serial`` when
    ``n_jobs == 1`` (in-process, debuggable, stream-reusing), else
    ``batched`` (the parallel path that keeps the stream reuse).
    Strings name the built-ins; anything implementing the protocol
    passes through — the seam a distributed executor plugs into.
    """
    if spec is None:
        spec = "serial" if n_jobs == 1 else "batched"
    if isinstance(spec, str):
        if spec == "serial":
            return SerialExecutor()
        if spec == "process":
            return ProcessExecutor(n_jobs)
        if spec == "batched":
            return BatchedExecutor(n_jobs)
        raise ConfigurationError(
            f"unknown executor {spec!r}; known: {', '.join(EXECUTORS)}"
        )
    if isinstance(spec, Executor):
        return spec
    raise ConfigurationError(
        f"cannot interpret {type(spec).__name__!r} as a sweep executor"
    )
