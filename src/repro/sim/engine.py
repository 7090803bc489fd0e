"""The I/O performance simulator (Sec 6).

"We developed a performance simulator based on our performance model to
evaluate different data loading strategies. The simulator supports
arbitrary dataset, system, and I/O strategy configurations. We do not
aim for a precise simulation of training, but rather to capture the
relative performance of different I/O strategies."

The engine evaluates whole epochs as ``(N, L)`` matrices — ``N``
workers by ``L = T * B`` samples — in two phases:

1. **Plan** (:meth:`Simulator.plan_epoch`): the policy's
   :class:`~repro.sim.policies.base.PreparedPolicy` fixes the cache
   placement, stream rewriting, prestaging cost and PFS usage. The
   epoch-invariant part — the PFS byte fraction, the contention level
   ``gamma`` and its derived share/latency, the placement coverage and
   the staging lookahead — is computed once per prepared policy by the
   simulator's :class:`~repro.sim.plancache.PlanCache` and reused for
   every epoch (and across the policies of :meth:`Simulator.run_many`).
   Per epoch only the id permutation is resolved, yielding an
   :class:`EpochPlan`.
2. **Execute** (:meth:`Simulator.execute_epoch`): the plan is
   materialized tile by tile (:meth:`EpochPlan.tiles`) — contiguous
   worker-row bands of configurable height ``tile_rows`` — and pure
   array kernels (:mod:`repro.sim.kernels`) gather each band's fetch
   sources from the epoch's :class:`FetchTable` (local tier / fastest
   remote tier / PFS — Sec 4's three cases), apply seeded per-worker
   noise, and aggregate per-batch read/compute times. The assembled ``(N, T)`` totals feed
   the bulk-synchronous lockstep scan (:mod:`repro.sim.lockstep`),
   which turns them into global batch completion times under the
   allreduce barrier and the staging-buffer lookahead window.

With ``tile_rows=None`` (the default) an epoch is one full-height tile
— the PR-5 behaviour. With a finite ``tile_rows`` the float
``(N, L)`` working set (sizes, fetch times, noise draws, read times)
exists only ``tile_rows`` rows at a time, so paper-scale scenarios
(N=1024 over multi-million-sample streams) execute in bounded memory.
Every per-element float operation is row-local and the cross-worker
reductions run after the loop in strict worker order, so results are
**bitwise identical for every tile height** — pinned, along with the
equivalence to the seed scalar engine, by
``tests/sim/test_engine_equivalence.py`` and ``tests/sim/test_tiling.py``
against the reference copy kept in ``tests/sim/reference_engine.py``.

Every entry point — :meth:`Simulator.run`, :meth:`Simulator.run_seed`,
:meth:`Simulator.run_many_outcomes` and :meth:`Simulator.run_many_seed`
— prepares its policies and then drives them through one epoch-major
loop: epochs outermost, each epoch's permutation materialized once and
shared by every policy of the call. The two ``*_seed`` entry points run
that loop on a sibling simulator for the reseeded config — the seed
alone fixes a run (Sec 2), so another seed needs nothing more.

Caches follow the paper's observed dynamics: during epoch 0 every
policy reads from the PFS while caches fill ("without caching, it is
always 'the first epoch' for a data loader"); placements activate from
``warm_epochs`` on. Prestaged policies instead pay an explicit upfront
cost.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from ..errors import ConfigurationError, PolicyError
from ..perfmodel import Source, SystemModel, resolve_fetch, write_times
from . import kernels
from .config import SimulationConfig
from .context import ScenarioContext
from .lockstep import lockstep_epoch
from .noise import apply_noise_matrix
from .plancache import PlanCache
from .policies.base import Policy, PreparedPolicy
from .result import BatchTimeStats, EpochResult, SimulationResult

__all__ = [
    "Simulator",
    "EpochPlan",
    "EpochTile",
    "FetchTable",
    "analytic_lower_bound",
]


def analytic_lower_bound(
    config: SimulationConfig, ctx: ScenarioContext | None = None
) -> float:
    """The paper's "Perfect" lower bound: pure compute, no stalls.

    ``E * (per-worker bytes per epoch) / c`` — the time to push every
    byte a worker consumes through its compute engine, with I/O and
    synchronization assumed free (Sec 6's "not realistic in practice").

    Pass ``ctx`` to reuse an existing :class:`ScenarioContext` (e.g.
    ``Simulator.ctx``) for ``config`` instead of regenerating the
    scenario's access stream and sample sizes from scratch.
    """
    if ctx is None:
        ctx = ScenarioContext(config)
    per_worker_mb = ctx.worker_mb(0)
    worst = float(per_worker_mb.max()) if per_worker_mb.size else 0.0
    return config.num_epochs * worst / config.system.compute_mbps


@dataclass(frozen=True)
class FetchTable:
    """Sec 4's fetch decision for every ``(local tier, remote tier)`` pair.

    :meth:`build` runs :func:`~repro.perfmodel.resolve_fetch` once on the
    ``(C+1)**2`` class pairs (``-1`` = none) for one epoch's PFS share, so
    its tie rules carry over; :meth:`resolve` gathers each sample's pair
    — bitwise equal to resolving every sample and adding the PFS latency.
    """

    num_tiers: int
    sources: np.ndarray
    divisors: np.ndarray
    latency: np.ndarray | None

    @classmethod
    def build(cls, system: SystemModel, pfs_share: float, pfs_latency: float) -> "FetchTable":
        """The table for one epoch's PFS share and latency."""
        tiers = len(system.storage_classes)
        classes = np.arange(-1, tiers, dtype=np.int8)
        local, remote = np.repeat(classes, tiers + 1), np.tile(classes, tiers + 1)
        res = resolve_fetch(np.ones(local.shape), local, remote, system, pfs_share)
        latency = pfs_latency * (res.sources == int(Source.PFS)) if pfs_latency > 0 else None
        return cls(tiers, res.sources, np.maximum(res.bandwidths, 1e-300), latency)

    def resolve(
        self, sizes_mb: np.ndarray, local: np.ndarray, remote: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(fetch_times, sources)`` for aligned size/class matrices."""
        pairs = kernels.pair_index(local, remote, self.num_tiers)
        fetch = sizes_mb / self.divisors[pairs]
        if self.latency is not None:
            fetch += self.latency[pairs]
        return fetch, self.sources[pairs]


@dataclass(frozen=True)
class EpochTile:
    """One materialized row band of an :class:`EpochPlan`.

    The execute-phase kernels consume tiles: a contiguous block of
    worker rows with every per-sample matrix the fetch resolution needs
    gathered for exactly those rows.

    Attributes
    ----------
    rows:
        The worker-row slice of the full ``(N, L)`` epoch this tile
        covers (``rows.start`` is the first absolute worker index).
    ids:
        ``(rows, L)`` sample ids, row ``i`` = worker
        ``rows.start + i``'s stream order.
    sizes_mb:
        ``(rows, L)`` per-sample sizes aligned with ``ids``.
    local_classes / remote_classes:
        ``(rows, L)`` int8 cache-tier matrices (``-1`` = unavailable);
        ``None`` for the ideal (no-I/O) policy, which skips fetching.
    """

    rows: slice
    ids: np.ndarray
    sizes_mb: np.ndarray
    local_classes: np.ndarray | None
    remote_classes: np.ndarray | None


@dataclass(frozen=True)
class EpochPlan:
    """One epoch's inputs to the execute-phase kernels.

    Everything the policy and contention model decide about an epoch.
    Only the integer id permutation is held in full; the float
    size/class matrices are materialized on demand, tile by tile, via
    :meth:`tile` / :meth:`tiles` — so a plan's resident cost stays at
    one ``(N, L)`` integer matrix even at paper scale.

    Attributes
    ----------
    epoch:
        Epoch index.
    warm:
        Whether the policy's cache placement is active this epoch.
    ids:
        ``(N, L)`` sample ids, row ``w`` = worker ``w``'s stream order.
    gamma:
        Effective PFS contention level for the epoch.
    pfs_share_mbps:
        Per-consumer PFS share ``t(gamma)/gamma`` handed to the fetch
        resolution (already divided by the staging threads when the
        policy overlaps I/O with compute).
    pfs_latency_s:
        Per-request PFS latency under ``gamma``.
    """

    epoch: int
    warm: bool
    ids: np.ndarray
    gamma: float
    pfs_share_mbps: float
    pfs_latency_s: float
    prep: PreparedPolicy = field(repr=False)
    cache: PlanCache = field(repr=False)
    #: True when ``ids`` is the context's canonical (clairvoyant) epoch
    #: matrix, making the size gather shareable across policies.
    shared_ids: bool = field(repr=False, default=False)

    def tile(self, rows: slice) -> EpochTile:
        """Materialize the size/class matrices for one row band.

        Whole-epoch tiles over the canonical stream reuse the plan
        cache's shared per-epoch size gather; partial tiles gather just
        their band. Class resolution is row-local by construction —
        local tiers via the band's workers' lookups
        (``worker_offset=rows.start``), remote tiers via the placement
        gather, warm-up availability via the column-indexed progress
        hash — so a band's matrices are bitwise equal to the same rows
        of the full-epoch materialization.
        """
        prep = self.prep
        ids = self.ids[rows]
        if self.shared_ids and ids.shape[0] == self.ids.shape[0]:
            sizes = self.cache.sizes_matrix(self.epoch, self.ids)
        elif self.shared_ids:
            # A canonical-stream band can slice an epoch gather that
            # already exists; otherwise it gathers just its own rows.
            sizes = self.cache.sizes_band(self.epoch, ids, rows)
        else:
            sizes = self.cache.ctx.sizes_mb[ids]

        local_cls: np.ndarray | None = None
        remote_cls: np.ndarray | None = None
        if not prep.ideal:
            if self.warm:
                local_cls = prep.classes_matrix(ids, worker_offset=rows.start)
                remote_cls = prep.remote_classes_matrix(ids)
            else:
                local_cls = self.cache.cold_classes(ids.shape[0])
                remote_cls = local_cls
                if prep.plan is not None and prep.best_map is not None:
                    remote_cls = kernels.warmup_remote_classes(ids, prep.best_map)

        return EpochTile(
            rows=rows,
            ids=ids,
            sizes_mb=sizes,
            local_classes=local_cls,
            remote_classes=remote_cls,
        )

    def tiles(self, tile_rows: int | None) -> Iterator[EpochTile]:
        """Iterate the epoch as row bands of height ``tile_rows``.

        ``None`` yields the epoch as a single full-height tile (the
        untiled fast path); otherwise bands of ``tile_rows`` workers
        (the last band ragged) are materialized lazily, one at a time.
        """
        n = self.ids.shape[0]
        step = n if tile_rows is None else max(1, min(int(tile_rows), n))
        for start in range(0, n, step):
            yield self.tile(slice(start, min(start + step, n)))


class Simulator:
    """Evaluates I/O policies on one scenario (dataset x system x E x B).

    A single instance caches the scenario's access streams and the
    epoch-invariant planning state (:class:`~repro.sim.plancache.PlanCache`),
    so comparing many policies (Fig 8's nine bars) reuses the expensive
    state instead of re-planning per policy.

    Parameters
    ----------
    config:
        The scenario to simulate.
    tile_rows:
        Execute epochs in row bands of this many workers to bound peak
        memory (``None`` = whole epochs at once). Any value yields
        bitwise-identical results; see :mod:`docs/performance.md` for
        the memory/speed trade-off.
    ctx:
        Reuse an existing :class:`ScenarioContext` built from the same
        ``config`` (e.g. to share its sample sizes and per-epoch worker
        totals between simulators) instead of constructing a fresh one.
    """

    def __init__(
        self,
        config: SimulationConfig,
        tile_rows: int | None = None,
        ctx: ScenarioContext | None = None,
    ) -> None:
        if tile_rows is not None and int(tile_rows) < 1:
            raise ConfigurationError(
                f"tile_rows must be a positive worker count, got {tile_rows!r}"
            )
        self.config = config
        self.tile_rows = None if tile_rows is None else int(tile_rows)
        self.ctx = ctx if ctx is not None else ScenarioContext(config)
        self.plan_cache = PlanCache(self.ctx)

    # -- public API --------------------------------------------------------

    def run(self, policy: Policy) -> SimulationResult:
        """Simulate ``policy`` and return its full result.

        Raises the policy's :class:`~repro.errors.PolicyError` when it
        does not support the scenario.
        """
        return _unwrap(self._run_epoch_major(self._prepare_slots([policy]))[0])

    def run_many(self, policies: list[Policy]) -> dict[str, SimulationResult]:
        """Simulate several policies, skipping unsupported ones.

        All policies share this simulator's :class:`ScenarioContext`
        and :class:`~repro.sim.plancache.PlanCache`, so the scenario's
        permutations, per-epoch size gathers and cold-class template
        are materialized once for the whole comparison rather than once
        per policy. Policies raising
        :class:`~repro.errors.PolicyError` (the paper's "Does not
        support" / LBANN-overflow cases) are omitted from the result
        dict rather than aborting the comparison.
        """
        out: dict[str, SimulationResult] = {}
        for policy, outcome in zip(policies, self.run_many_outcomes(policies)):
            if isinstance(outcome, SimulationResult):
                out[policy.name] = outcome
        return out

    def run_many_outcomes(
        self, policies: list[Policy]
    ) -> "list[SimulationResult | PolicyError]":
        """Epoch-major evaluation: one outcome per input policy, aligned.

        Unlike :meth:`run_many`'s policy-major predecessor (every
        policy walking all ``E`` epochs before the next policy starts),
        this prepares every policy up front and then iterates **epochs
        outermost**: each epoch's ``(N, L)`` permutation is the
        context's resident epoch (:meth:`ScenarioContext.epoch_matrix`),
        its size gather lands in the plan cache's one-epoch slot, and
        every surviving policy's plan/execute for that epoch runs
        against them. The shared work is materialized once per epoch
        (``E`` builds, not ``E x P``; :attr:`ScenarioContext.perm_builds`
        proves it) while memory stays bounded to ~one epoch's matrices.

        Per-policy results are bitwise identical to :meth:`run`: every
        shared value is a pure function of ``(epoch, scenario)`` and
        every tile derives its noise streams' initial states afresh, so
        iteration order cannot change a bit (pinned by
        ``tests/sim/test_run_many.py``). A policy raising
        :class:`~repro.errors.PolicyError` — at prepare time or
        mid-epoch — yields that error in its slot (the same error the
        per-policy run would raise) without disturbing its siblings.
        """
        return self._run_epoch_major(self._prepare_slots(policies))

    def _prepare_slots(
        self, policies: list[Policy]
    ) -> "list[tuple[Policy, PreparedPolicy] | PolicyError]":
        """Prepare ``policies`` on this context for :meth:`_run_epoch_major`.

        Each slot is ``(policy, policy.prepare(ctx))`` or the
        :class:`~repro.errors.PolicyError` the prepare raised. Epoch 0
        is held through the prepares: placement-building prepares
        (DeepIO, LBANN) gather it, and the loop's first epoch then
        reuses that build. Any other error drops the resident epoch
        and propagates.
        """
        slots: list[tuple[Policy, PreparedPolicy] | PolicyError] = []
        self.ctx.hold_epoch(0)
        try:
            for policy in policies:
                try:
                    slots.append((policy, policy.prepare(self.ctx)))
                except PolicyError as exc:
                    slots.append(exc)
        except BaseException:
            self.ctx.release_held_epoch()
            raise
        return slots

    def _run_epoch_major(
        self, slots: "list[tuple[Policy, PreparedPolicy] | PolicyError]"
    ) -> "list[SimulationResult | PolicyError]":
        """Drive prepared per-policy slots through the epoch-major loop."""
        epoch_lists: list[list[EpochResult]] = [[] for _ in slots]
        preps = [slot[1] for slot in slots if not isinstance(slot, PolicyError)]
        try:
            for epoch in range(self.config.num_epochs):
                self.ctx.hold_epoch(epoch)
                for i, slot in enumerate(slots):
                    if isinstance(slot, PolicyError):
                        continue
                    policy, prep = slot
                    try:
                        plan = self.plan_epoch(prep, epoch)
                        epoch_lists[i].append(
                            self.execute_epoch(policy, prep, plan)
                        )
                    except PolicyError as exc:
                        slots[i] = exc
        finally:
            self.ctx.release_held_epoch()
            self.plan_cache.release(preps)
        out: list[SimulationResult | PolicyError] = []
        for slot, epoch_results in zip(slots, epoch_lists):
            if isinstance(slot, PolicyError):
                out.append(slot)
                continue
            policy, prep = slot
            out.append(
                SimulationResult(
                    policy=policy.name,
                    scenario=self.config.scenario,
                    prestage_time_s=prep.prestage_time_s,
                    accesses_full_dataset=prep.accesses_full_dataset,
                    epochs=tuple(epoch_results),
                )
            )
        return out

    def lower_bound(self) -> float:
        """:func:`analytic_lower_bound` reusing this simulator's context."""
        return analytic_lower_bound(self.config, self.ctx)

    # -- other seeds ---------------------------------------------------------

    def _reseeded(self, seed: int) -> "Simulator":
        """This scenario under ``seed``: ``self``, or a fresh sibling.

        The sibling's config is a ``dataclasses.replace`` of this one, so
        it holds the same :class:`~repro.datasets.DatasetModel` instance
        and its materialized sample-size table (sizes derive from the
        dataset's own seed, not the simulation seed). Everything else —
        permutations, prepared policies, plan scalars — is rebuilt, so
        results are bitwise identical to a fresh ``Simulator`` on the
        reseeded config.
        """
        if seed == self.config.seed:
            return self
        config = dataclasses.replace(self.config, seed=seed)
        return Simulator(config, tile_rows=self.tile_rows)

    def run_seed(self, policy: Policy, seed: int) -> SimulationResult:
        """:meth:`run` on this scenario under another noise seed.

        Bitwise identical to
        ``Simulator(replace(config, seed=seed)).run(policy)``; raises the
        policy's :class:`~repro.errors.PolicyError` when it does not
        support the scenario.
        """
        sim = self._reseeded(seed)
        return _unwrap(sim._run_epoch_major(sim._prepare_slots([policy]))[0])

    def run_many_seed(
        self, policies: list[Policy], seed: int
    ) -> "list[SimulationResult | PolicyError]":
        """:meth:`run_many_outcomes` on this scenario under another seed.

        The sweep executors' batch step: the policies of one scenario
        batch that share a seed run through one epoch-major loop.
        Outcomes align with ``policies``; each is bitwise identical to
        ``run_seed(policy, seed)``.
        """
        sim = self._reseeded(seed)
        return sim._run_epoch_major(sim._prepare_slots(policies))

    # -- plan phase ----------------------------------------------------------

    def _epoch_ids(
        self, prep: PreparedPolicy, epoch: int, warm: bool
    ) -> tuple[np.ndarray, bool]:
        """The epoch's ``(N, L)`` id matrix, honouring stream rewrites.

        Clairvoyant policies get the context's resident epoch matrix
        (zero copies; flagged shared so the size gather can be reused
        across policies); order-changing policies (sharding, DeepIO
        opportunistic) have their per-worker ``stream_fn`` rows stacked
        — each row is one deterministic per-worker shuffle, so the loop
        is O(N) RNG setups, not O(N*L) Python work.
        """
        ctx = self.ctx
        if prep.stream_fn is None or not (warm or prep.warm_epochs == 0):
            return ctx.epoch_matrix(epoch), True
        stacked = np.stack(
            [prep.stream_fn(worker, epoch) for worker in range(ctx.num_workers)]
        )
        return stacked, False

    def plan_epoch(self, prep: PreparedPolicy, epoch: int) -> EpochPlan:
        """Resolve one epoch's ids and (cached) contention scalars.

        Public because the plan is the sim/runtime seam: the parity
        harness (:mod:`repro.ports.worlds`) replays ``plan.ids`` — the
        exact per-worker stream, honouring policy stream rewrites —
        through the threaded runtime, so both worlds consume
        bitwise-identical access streams.
        """
        warm = prep.plan is not None and epoch >= prep.warm_epochs
        phase = self.plan_cache.scalars(prep).phase(epoch < prep.warm_epochs)
        ids, shared = self._epoch_ids(prep, epoch, warm)
        return EpochPlan(
            epoch=epoch,
            warm=warm,
            ids=ids,
            gamma=phase.gamma,
            pfs_share_mbps=phase.pfs_share_mbps,
            pfs_latency_s=phase.pfs_latency_s,
            prep=prep,
            cache=self.plan_cache,
            shared_ids=shared,
        )

    # -- execute phase -------------------------------------------------------

    def execute_epoch(
        self, policy: Policy, prep: PreparedPolicy, plan: EpochPlan
    ) -> EpochResult:
        """Run one planned epoch through the array kernels, tile by tile.

        Public because it is the pricing half of the sim/runtime seam:
        the parity harness (:mod:`repro.ports.worlds`) replays the tier
        assignments the *threaded runtime* actually served through this
        very method (via a recorded plan whose tiles carry the observed
        class matrices), so both worlds are timed by identical kernels.

        ``plan`` may be any object with the :class:`EpochPlan` surface
        (``epoch`` / ``gamma`` / ``pfs_share_mbps`` / ``pfs_latency_s``
        and a ``tiles(tile_rows)`` iterator).

        Per-sample float work (:class:`FetchTable` gathers, noise, write
        times, per-batch totals) happens inside the tile loop on
        ``(rows, L)`` bands; only the small ``(N, T)`` batch totals and
        ``(N, 4)`` per-source aggregates persist across tiles. The
        cross-worker reductions (:func:`kernels.accumulate_rows`) run
        after the loop over the assembled rows in strict worker order —
        exactly the seed engine's accumulation order — so the tile
        height never changes a single bit of the result.
        """
        cfg = self.config
        system = cfg.system
        n = self.ctx.num_workers
        t_iters = cfg.iterations_per_epoch
        batch = cfg.batch_size
        p0 = system.staging.threads
        divisor = float(p0) if prep.overlap else 1.0

        batch_comps = np.empty((n, t_iters))
        batch_reads = np.zeros((n, t_iters))
        seconds_by_source = np.zeros((n, kernels.NUM_SOURCES))
        bytes_by_source = np.zeros((n, kernels.NUM_SOURCES))
        counts_by_source = np.zeros((n, kernels.NUM_SOURCES), dtype=np.int64)

        if not prep.ideal:
            table = FetchTable.build(system, plan.pfs_share_mbps, plan.pfs_latency_s)
        for tile in plan.tiles(self.tile_rows):
            rows = tile.rows
            comps = tile.sizes_mb / system.compute_mbps
            tile_comps = kernels.batch_totals(comps, t_iters, batch)
            if prep.ideal:
                batch_comps[rows] = tile_comps
                continue

            fetch, sources = table.resolve(
                tile.sizes_mb, tile.local_classes, tile.remote_classes
            )
            if int(Source.NONE) in table.sources:
                unsourced = sources == int(Source.NONE)
                if unsourced.any():
                    worker = rows.start + int(np.argmax(unsourced.any(axis=1)))
                    raise PolicyError(
                        f"policy {policy.name!r} scheduled a sample with no "
                        f"available source (epoch {plan.epoch}, worker {worker})"
                    )
            index = kernels.source_index(sources)
            counts = kernels.source_totals(index)
            if cfg.noise.enabled:
                # The band's per-worker stream states, derived in one
                # vectorized pass — bitwise identical to fresh
                # generator() calls. Disabled noise skips the call
                # outright (it would only copy).
                states = self.plan_cache.noise_stream_states(plan.epoch, rows)
                fetch = apply_noise_matrix(fetch, sources, cfg.noise, states, counts)
            reads = fetch + write_times(tile.sizes_mb, system)

            tile_bytes = kernels.source_totals(index, tile.sizes_mb)
            seconds_by_source[rows] = kernels.source_totals(index, fetch) / divisor
            bytes_by_source[rows] = tile_bytes
            counts_by_source[rows] = counts

            # I/O noise on the allreduce path (Sec 7.1): non-local
            # traffic (PFS + remote) shares the network/cores with
            # communication and slows the compute step down.
            if cfg.network_interference > 0:
                factors = kernels.interference_factors(
                    tile_bytes, cfg.network_interference
                )
                tile_comps *= factors[:, np.newaxis]

            per_batch_read = kernels.batch_totals(reads, t_iters, batch)
            if prep.overlap:
                batch_reads[rows] = per_batch_read / p0
            else:
                # Synchronous loader: reads serialize with compute.
                tile_comps += per_batch_read
            batch_comps[rows] = tile_comps

        fetch_seconds = kernels.accumulate_rows(seconds_by_source)
        fetch_bytes = kernels.accumulate_rows(bytes_by_source)
        fetch_counts = counts_by_source.sum(axis=0)

        lookahead = self.plan_cache.scalars(prep).lookahead_batches
        step = lockstep_epoch(
            batch_reads,
            batch_comps,
            lookahead if prep.overlap else None,
            barrier=cfg.barrier,
        )
        durations = step.batch_durations
        return EpochResult(
            epoch=plan.epoch,
            time_s=step.epoch_time,
            stall_mean_s=float(step.worker_stalls.mean()),
            stall_max_s=float(step.worker_stalls.max()),
            fetch_seconds=tuple((fetch_seconds / n).tolist()),
            fetch_bytes=tuple(fetch_bytes.tolist()),
            fetch_counts=tuple(int(c) for c in fetch_counts),
            batch_stats=BatchTimeStats.from_durations(durations),
            gamma=plan.gamma,
            batch_durations=durations if cfg.record_batch_times else None,
        )


def _unwrap(outcome: "SimulationResult | PolicyError") -> SimulationResult:
    """A single-policy entry point's result, re-raising its PolicyError."""
    if isinstance(outcome, PolicyError):
        raise outcome
    return outcome
