"""The I/O performance simulator (Sec 6).

"We developed a performance simulator based on our performance model to
evaluate different data loading strategies. The simulator supports
arbitrary dataset, system, and I/O strategy configurations. We do not
aim for a precise simulation of training, but rather to capture the
relative performance of different I/O strategies."

The engine evaluates epochs as ``(N, L)`` matrices — ``N`` workers by
``L = T * B`` samples — in two phases:

1. **Plan** (:meth:`Simulator.plan_epoch`): the policy's
   :class:`~repro.sim.policies.base.PreparedPolicy` fixes the cache
   placement, stream rewriting, prestaging cost and PFS usage. The
   epoch-invariant part — the PFS byte fraction, the contention level
   ``gamma`` and its derived share/latency, the placement coverage and
   the staging lookahead — is computed once per prepared policy
   (:func:`~repro.sim.scalars.plan_scalars`), kept on the policy as
   ``prep.scalars`` and reused for every epoch. Per epoch only the id
   stream is resolved — the context's resident permutation, or a
   rewritten stream built band by band when executed — yielding an
   :class:`EpochPlan`.
2. **Execute** (:meth:`Simulator.execute_epoch`): the epoch's whole
   lineup of planned policies is priced **band-major** — contiguous
   worker-row bands outermost, the policies inside. For each band every
   policy's plan materializes its tile (:meth:`EpochPlan.tile`), and
   pure array kernels (:mod:`repro.sim.kernels`) gather each band's
   fetch sources from the policy's :class:`FetchTable` (local tier /
   fastest remote tier / PFS — Sec 4's three cases), apply seeded
   per-worker noise, and aggregate per-batch read/compute times. The
   assembled ``(N, T)`` totals feed the bulk-synchronous lockstep scan
   (:mod:`repro.sim.lockstep`), which turns them into global batch
   completion times under the allreduce barrier and the staging-buffer
   lookahead window.

A band's inputs that do not depend on the policy are built once for
the whole lineup: the clairvoyant stream's size gather with its compute
totals, write times and (in a cold epoch) remote availability (a
:class:`SizeBand` the band loop hands to every tile), the per-worker
noise stream states, and for every distinct source matrix its index,
counts, byte totals over the shared gather and noise multipliers — the
draws are keyed ``("noise", epoch, worker)``, never by policy, so
policies whose band reads every sample from the same sources share one
entry (:class:`~repro.sim.noise.SourceBand`).

Bands are ``tile_rows`` workers high; with ``tile_rows=None`` (the
default) the height is derived as ``BAND_ELEMENTS // L`` rows (at least
one), so the float working set — sizes, fetch times, noise
multipliers, read times — exists only one band at a time, and
paper-scale scenarios (N=1024 over multi-million-sample streams)
execute in bounded memory. Every per-element float operation is
row-local and the cross-worker reductions run after the loop in strict
worker order, so results are **bitwise identical for every band
height** — pinned, along with the equivalence to the seed scalar
engine, by ``tests/sim/test_engine_equivalence.py`` and
``tests/sim/test_tiling.py`` against the reference copy kept in
``tests/sim/reference_engine.py``.

Pricing one lineup entry's band has two halves. The *staging* half
(:meth:`Simulator._stage_band`: the tile, the fetch-table gather, the
unsourced-sample :class:`~repro.errors.PolicyError` check and the
band's memo entry for the tile's sources) always runs on the thread
that runs the band loop, in worker order. The *finishing* half
(:meth:`Simulator._finish_band`: noise, byte and seconds totals,
per-batch read and compute totals) runs inline after it, or — when
the simulator was built with ``helper=True`` and the epoch's lineup
has at least two entries — on one helper thread that finishes items
in staging order while the band loop stages the next. Both schedules
call the same two halves in the same order on every band's state, so
they are bitwise identical.

Every entry point — :meth:`Simulator.run`, :meth:`Simulator.run_seed`,
:meth:`Simulator.run_many_outcomes` and :meth:`Simulator.run_many_seed`
— prepares its policies and then drives them through one epoch-major
loop: epochs outermost, each epoch's permutation materialized once and
shared by every policy of the call, whose plans are then executed as
one band-major lineup. The two ``*_seed`` entry points run
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
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from ..errors import ConfigurationError, PolicyError
from ..perfmodel import Source, SystemModel, resolve_fetch, write_times
from ..rng import generator_states
from . import kernels
from .config import SimulationConfig
from .context import ScenarioContext
from .lockstep import lockstep_epoch
from .noise import SourceBand, SourceEntry, apply_noise_matrix
from .policies.base import Policy, PreparedPolicy
from .result import BatchTimeStats, EpochResult, SimulationResult
from .scalars import PlanScalars, plan_scalars

__all__ = [
    "BAND_ELEMENTS",
    "Simulator",
    "EpochPlan",
    "EpochTile",
    "FetchTable",
    "SizeBand",
    "analytic_lower_bound",
    "band_rows",
]

#: Per-sample elements (rows x L) of one row band when ``tile_rows`` is
#: None: each band-sized float temporary is 512 KiB. On the 1024-GPU
#: Fig 10 lineup (L = 1248) bands of 2**14 to 2**18 elements ran within
#: run-to-run noise of each other, while the traced peak read ~117 MB
#: at 2**14 and 2**16, 127 MB at 2**18 and 228 MB for whole-epoch bands
#: (where every band temporary and memoized multiplier matrix is
#: epoch-sized); 2**16 is the largest flat-peak size measured.
BAND_ELEMENTS = 2**16

#: Items a pipelined epoch keeps submitted to its helper thread while
#: the band loop stages the next. A band's items alternate between
#: heavy finishes (a first noise draw) and heavy stagings (rewritten
#: streams, warm class lookups); on the 1024-GPU Fig 10 lineup four
#: absorbed that (epoch-loop time on a 2-vCPU x86-64 VM, median of 4
#: processes: 1.41 s, against 1.71 s at two and 1.85 s serially; 7 and
#: 14 read the same as four).
_HELPER_DEPTH = 4


def band_rows(num_workers: int, length: int, tile_rows: int | None) -> int:
    """Height of the engine's row bands over ``num_workers`` x ``length``.

    ``tile_rows`` when given, else ``BAND_ELEMENTS // length`` rows;
    at least one row and at most ``num_workers``.
    """
    if tile_rows is None:
        tile_rows = BAND_ELEMENTS // max(length, 1)
    return max(1, min(int(tile_rows), num_workers))


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


class SizeBand:
    """One row band's sample sizes and the terms derived from them alone.

    Per-batch compute totals and staging write times depend on nothing
    but the sizes, so every policy sharing a band's size gather (the
    clairvoyant stream's, built once per band by
    :meth:`Simulator.execute_epoch`) shares them too. Given the band's
    ``ids``, it also holds their cold-epoch remote availability
    (:func:`~repro.sim.kernels.warmup_available`), which depends on the
    ids alone. Every array is read-only. All terms are computed with
    the gather, so the band's long-lived arrays are allocated before the
    band's per-policy temporaries: a band computed after them sat at the
    top of the heap, and freeing it at the next band let the allocator
    return that memory, only to page it back in (~100 page faults per
    epoch on a 64-worker cell).
    """

    def __init__(
        self, sizes_mb: np.ndarray, config: SimulationConfig, ids: np.ndarray | None = None
    ) -> None:
        self.sizes_mb = sizes_mb
        #: ``(rows, T)`` per-batch compute seconds.
        self.comp_totals = kernels.batch_totals(
            sizes_mb / config.system.compute_mbps,
            config.iterations_per_epoch,
            config.batch_size,
        )
        #: ``(rows, L)`` per-sample staging write seconds.
        self.write_s = write_times(sizes_mb, config.system)
        #: ``(rows, L)`` cold-epoch remote availability, when ``ids`` given.
        self.available = None if ids is None else kernels.warmup_available(ids)
        for array in (self.sizes_mb, self.comp_totals, self.write_s, self.available):
            if array is not None:
                array.setflags(write=False)


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
    shared:
        The band's :class:`SizeBand` when ``sizes_mb`` is the canonical
        stream's shared gather: its compute totals, write times and
        per-source byte totals are then computed once for every policy
        of the band. ``None`` for sizes of the tile's own (rewritten or
        recorded) streams.
    """

    rows: slice
    ids: np.ndarray
    sizes_mb: np.ndarray
    local_classes: np.ndarray | None
    remote_classes: np.ndarray | None
    shared: SizeBand | None = field(default=None, repr=False)


@dataclass(frozen=True)
class EpochPlan:
    """One epoch's inputs to the execute-phase kernels.

    Everything the policy and contention model decide about an epoch.
    No per-sample matrix is held: the size/class matrices are
    materialized on demand, band by band, via :meth:`tile`, and so are
    a rewritten stream's ids, drawn from the prepared policy's pools —
    a plan holds at most a reference to the context's one resident
    epoch permutation, even at paper scale.

    Attributes
    ----------
    epoch:
        Epoch index.
    warm:
        Whether the policy's cache placement is active this epoch.
    gamma:
        Effective PFS contention level for the epoch.
    pfs_share_mbps:
        Per-consumer PFS share ``t(gamma)/gamma`` handed to the fetch
        resolution (already divided by the staging threads when the
        policy overlaps I/O with compute).
    pfs_latency_s:
        Per-request PFS latency under ``gamma``.
    canonical:
        The context's ``(N, L)`` clairvoyant epoch matrix when the
        policy reads it (its bands' size gathers are then shared across
        policies); ``None`` when the policy rewrites this epoch's
        streams from its pools (``prep.pools``).
    """

    epoch: int
    warm: bool
    gamma: float
    pfs_share_mbps: float
    pfs_latency_s: float
    prep: PreparedPolicy = field(repr=False)
    ctx: ScenarioContext = field(repr=False)
    canonical: np.ndarray | None = field(repr=False, default=None)

    @property
    def ids(self) -> np.ndarray:
        """``(N, L)`` sample ids, row ``w`` = worker ``w``'s stream order.

        The canonical matrix itself, or a rewritten stream's rows
        stacked afresh on every access (the execute phase builds them a
        band at a time instead).
        """
        return self.band_ids(slice(0, self.ctx.num_workers))

    @property
    def warmup(self) -> bool:
        """Whether tiles resolve remote tiers through the cold-epoch
        availability model (:func:`~repro.sim.kernels.warmup_remote_classes`)."""
        prep = self.prep
        cold = not (prep.ideal or self.warm)
        return cold and prep.plan is not None and prep.best_map is not None

    def band_ids(self, rows: slice) -> np.ndarray:
        """``(rows, L)`` sample ids of one row band.

        A rewritten stream stacks the band's workers' rows, each one
        deterministic shuffle of the worker's pool
        (:meth:`ScenarioContext.tiled_epoch_stream`), so a band is
        O(rows) RNG setups, not O(rows*L) Python work.
        """
        if self.canonical is not None:
            return self.canonical[rows]
        prep, ctx = self.prep, self.ctx
        return np.stack(
            [
                ctx.tiled_epoch_stream(prep.pools[worker], worker, self.epoch, prep.name)
                for worker in range(rows.start, rows.stop)
            ]
        )

    def tile(self, rows: slice, shared: SizeBand | None = None) -> EpochTile:
        """Materialize the ids and size/class matrices of one row band.

        ``shared`` is the canonical stream's size gather for ``rows``,
        which the band loop builds once for every policy of the lineup;
        a canonical-stream tile reuses it (and its cold-epoch
        availability, when it holds one), and a rewritten stream (or a
        call without one) gathers its own sizes. Class resolution is
        row-local by construction — local tiers via the band's workers'
        lookups (``worker_offset=rows.start``), remote tiers via the
        placement gather, warm-up availability via the column-indexed
        progress hash — so a band's matrices are bitwise equal to the
        same rows of the full-epoch materialization.
        """
        prep = self.prep
        ids = self.band_ids(rows)
        if self.canonical is None:
            shared = None
        sizes = shared.sizes_mb if shared is not None else self.ctx.sizes_mb[ids]

        local_cls: np.ndarray | None = None
        remote_cls: np.ndarray | None = None
        if not prep.ideal:
            if self.warm:
                local_cls = prep.classes_matrix(ids, worker_offset=rows.start)
                remote_cls = prep.remote_classes_matrix(ids)
            else:
                # Cold: nothing is cached locally yet.
                local_cls = np.full(ids.shape, -1, dtype=np.int8)
                remote_cls = local_cls
                if self.warmup:
                    available = None if shared is None else shared.available
                    remote_cls = kernels.warmup_remote_classes(ids, prep.best_map, available)

        return EpochTile(
            rows=rows,
            ids=ids,
            sizes_mb=sizes,
            local_classes=local_cls,
            remote_classes=remote_cls,
            shared=shared,
        )


@dataclass
class _Pricing:
    """One lineup entry's execute-phase state for one epoch."""

    policy: Policy
    prep: PreparedPolicy
    plan: EpochPlan
    table: FetchTable | None
    batch_comps: np.ndarray
    batch_reads: np.ndarray
    seconds_by_source: np.ndarray
    bytes_by_source: np.ndarray
    counts_by_source: np.ndarray
    error: PolicyError | None = None


@dataclass(frozen=True)
class _Staged:
    """One (band, lineup entry) item after its staging half.

    What :meth:`Simulator._finish_band` needs: the tile, the size
    gather whose compute totals and write times it prices with (the
    band's shared one, or the tile's own), the band's
    :class:`~repro.sim.noise.SourceBand` and — unless the entry is
    ideal — the tile's resolved ``(rows, L)`` fetch times and the
    band's :class:`~repro.sim.noise.SourceEntry` for its sources.
    """

    tile: EpochTile
    size_band: SizeBand
    band: SourceBand
    fetch: np.ndarray | None = None
    entry: SourceEntry | None = None


class Simulator:
    """Evaluates I/O policies on one scenario (dataset x system x E x B).

    A single instance caches the scenario's access streams, so
    comparing many policies (Fig 8's nine bars) reuses the expensive
    state instead of rebuilding it per policy.

    Parameters
    ----------
    config:
        The scenario to simulate.
    tile_rows:
        Execute epochs in row bands of this many workers (``None`` =
        bands of ``BAND_ELEMENTS // L`` rows, see :func:`band_rows`).
        Any value yields bitwise-identical results; see
        :mod:`docs/performance.md` for the memory/speed trade-off.
    ctx:
        Reuse an existing :class:`ScenarioContext` built from the same
        ``config`` (e.g. to share its sample sizes and per-epoch worker
        totals between simulators) instead of constructing a fresh one;
        a context built from an unequal config raises
        :class:`~repro.errors.ConfigurationError`. Prepares go through
        :meth:`ScenarioContext.prepare`, so a context that memoizes its
        prepared policies (the search evaluator's) serves them here.
    helper:
        Finish each epoch's band items on one helper thread while the
        band loop stages the next, for epochs whose lineup has at least
        two entries (:meth:`execute_epoch`); results are bitwise
        identical either way. Whoever builds the simulator decides: the
        serial sweep executor turns it on where two CPUs and the
        scenario's size make it pay
        (:func:`repro.sweep.executors._helper_pays`); pool workers and
        direct construction keep it off.
    """

    def __init__(
        self,
        config: SimulationConfig,
        tile_rows: int | None = None,
        ctx: ScenarioContext | None = None,
        helper: bool = False,
    ) -> None:
        if tile_rows is not None and int(tile_rows) < 1:
            raise ConfigurationError(
                f"tile_rows must be a positive worker count, got {tile_rows!r}"
            )
        if ctx is not None and ctx.config is not config and ctx.config != config:
            raise ConfigurationError(
                "ctx was built for another scenario: a simulator's context "
                "must come from a config equal to its own"
            )
        self.config = config
        self.tile_rows = None if tile_rows is None else int(tile_rows)
        self.helper = bool(helper)
        self.ctx = ctx if ctx is not None else ScenarioContext(config)
        #: The last canonical band's size gather, held until the next
        #: band's exists so the heap keeps its order (see
        #: :class:`SizeBand`); dropped when an epoch-major pass ends.
        self._band: SizeBand | None = None

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
        and run as one band-major lineup, so the scenario's
        permutations and per-band size gathers are materialized once
        for the whole comparison rather than once per policy. Policies
        raising :class:`~repro.errors.PolicyError` (the paper's "Does not
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
        every surviving policy plans against it, and the epoch's plans
        execute as one band-major lineup (:meth:`execute_epoch`), each
        band's size gather, noise streams and noise draws shared by
        every policy that reads them. The permutation is materialized
        once per epoch (``E`` builds, not ``E x P``;
        :attr:`ScenarioContext.perm_builds` proves it) while memory
        stays bounded to ~one epoch's permutation plus one band.

        Per-policy results are bitwise identical to :meth:`run`: every
        shared value is a pure function of ``(epoch, band, scenario)``
        and a noise multiplier matrix is reused only for an exactly
        equal source matrix, so iteration order cannot change a bit
        (pinned by ``tests/sim/test_run_many.py``). A policy raising
        :class:`~repro.errors.PolicyError` — at prepare time or
        mid-epoch — yields that error in its slot (the same error the
        per-policy run would raise) without disturbing its siblings.
        """
        return self._run_epoch_major(self._prepare_slots(policies))

    def _prepare_slots(
        self, policies: list[Policy]
    ) -> "list[tuple[Policy, PreparedPolicy] | PolicyError]":
        """Prepare ``policies`` on this context for :meth:`_run_epoch_major`.

        Each slot is ``(policy, prep)`` or the
        :class:`~repro.errors.PolicyError` the prepare raised, from
        :meth:`ScenarioContext.prepare`: a context that memoizes serves
        the prepared policies it already holds. Epoch 0 is held through
        the prepares: placement-building prepares (DeepIO, LBANN)
        gather it, and the loop's first epoch then reuses that build.
        Any other error drops the resident epoch and propagates.
        """
        slots: list[tuple[Policy, PreparedPolicy] | PolicyError] = []
        self.ctx.hold_epoch(0)
        try:
            for policy in policies:
                prep = self.ctx.prepare(policy)
                slots.append(prep if isinstance(prep, PolicyError) else (policy, prep))
        except BaseException:
            self.ctx.release_held_epoch()
            raise
        return slots

    def _run_epoch_major(
        self, slots: "list[tuple[Policy, PreparedPolicy] | PolicyError]"
    ) -> "list[SimulationResult | PolicyError]":
        """Drive prepared per-policy slots through the epoch-major loop.

        Each epoch plans every surviving policy, then executes them as
        one band-major lineup (:meth:`execute_epoch`); a policy whose
        epoch fails keeps its :class:`~repro.errors.PolicyError`.
        """
        epoch_lists: list[list[EpochResult]] = [[] for _ in slots]
        try:
            for epoch in range(self.config.num_epochs):
                self.ctx.hold_epoch(epoch)
                live = [
                    (i, slot) for i, slot in enumerate(slots) if not isinstance(slot, PolicyError)
                ]
                lineup = [
                    (policy, prep, self.plan_epoch(prep, epoch)) for _, (policy, prep) in live
                ]
                for (i, _), outcome in zip(live, self.execute_epoch(lineup)):
                    if isinstance(outcome, PolicyError):
                        slots[i] = outcome
                    else:
                        epoch_lists[i].append(outcome)
        finally:
            self.ctx.release_held_epoch()
            self._band = None
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
        return Simulator(config, tile_rows=self.tile_rows, helper=self.helper)

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

    def plan_epoch(self, prep: PreparedPolicy, epoch: int) -> EpochPlan:
        """Resolve one epoch's stream and contention scalars.

        Public because the plan is the sim/runtime seam: the parity
        harness (:mod:`repro.ports.worlds`) replays ``plan.ids`` — the
        exact per-worker stream, honouring policy stream rewrites —
        through the threaded runtime, so both worlds consume
        bitwise-identical access streams.

        Clairvoyant policies get the context's resident epoch matrix
        (zero copies; its band gathers are shared across policies).
        Order-changing policies (sharding, DeepIO opportunistic,
        locality-aware) rewrite their warm epochs' streams; their rows
        are built a band at a time by :meth:`EpochPlan.tile`, inside the
        execute phase. The policy's first plan stores its
        epoch-invariant scalars on it (``prep.scalars``).
        """
        warm = prep.plan is not None and epoch >= prep.warm_epochs
        phase = self._scalars(prep).phase(epoch < prep.warm_epochs)
        rewritten = prep.pools is not None and (warm or prep.warm_epochs == 0)
        return EpochPlan(
            epoch=epoch,
            warm=warm,
            gamma=phase.gamma,
            pfs_share_mbps=phase.pfs_share_mbps,
            pfs_latency_s=phase.pfs_latency_s,
            prep=prep,
            ctx=self.ctx,
            canonical=None if rewritten else self.ctx.epoch_matrix(epoch),
        )

    def _scalars(self, prep: PreparedPolicy) -> PlanScalars:
        """``prep``'s plan scalars, computed on first use and kept on it."""
        if prep.scalars is None:
            prep.scalars = plan_scalars(prep, self.ctx)
        return prep.scalars

    # -- execute phase -------------------------------------------------------

    def execute_epoch(
        self, lineup: "list[tuple[Policy, PreparedPolicy, EpochPlan]]"
    ) -> "list[EpochResult | PolicyError]":
        """Price one epoch for a lineup of planned policies, band-major.

        ``lineup`` holds ``(policy, prep, plan)`` entries for one epoch;
        the result holds one :class:`EpochResult`, or the
        :class:`~repro.errors.PolicyError` that entry raised, per entry
        in order. A failing entry names its lowest failing worker — the
        bands run in worker order — and leaves its siblings untouched.

        Public because it is the pricing half of the sim/runtime seam:
        the parity harness (:mod:`repro.ports.worlds`) replays the tier
        assignments the *threaded runtime* actually served through this
        very method (as a lineup of one recorded plan whose tiles carry
        the observed class matrices), so both worlds are timed by
        identical kernels. A plan may be any object with the
        :class:`EpochPlan` surface (``epoch`` / ``gamma`` /
        ``pfs_share_mbps`` / ``pfs_latency_s`` / ``canonical`` and
        ``tile(rows, shared)``; a plan whose ``canonical`` is not
        ``None`` also answers ``warmup``).

        Row bands (:func:`band_rows`) run outermost, the lineup inside,
        so each band's policy-independent inputs are built once: the
        canonical stream's size gather with its compute totals, write
        times and — when a live entry is in its cold epoch — remote
        availability (a :class:`SizeBand`, gathered when any live entry
        reads the canonical stream and handed to every tile), the
        band's noise stream states (:meth:`noise_stream_states`) and,
        through the band's :class:`~repro.sim.noise.SourceBand`, one
        entry per distinct source matrix: its index, counts, byte totals
        over the shared gather and noise multipliers. Per-sample float
        work happens on ``(rows, L)`` bands; only the small ``(N, T)``
        batch totals and ``(N, 4)`` per-source aggregates of each entry
        persist across bands. The cross-worker reductions
        (:func:`kernels.accumulate_rows`) run after the loop over the
        assembled rows in strict worker order — exactly the seed
        engine's accumulation order — so neither the band height nor
        the lineup ever changes a single bit of a result.

        Each (band, entry) item is staged on the calling thread
        (:meth:`_stage_band`) and finished (:meth:`_finish_band`) either
        inline or, on a ``helper=True`` simulator and for a lineup of
        at least two entries, on one helper thread started and joined
        inside this call: the helper finishes items in staging order,
        at most four submitted at a time, while the calling thread
        stages the next. An error raised while finishing propagates
        from this call with its own type, after the queued items are
        cancelled and the helper joined. Of the callables the
        end-to-end tracer wraps (``e2ebench/tracing.py``), only
        :func:`apply_noise_matrix` runs during the band loop, on the
        finishing side, so the tracer's one span stack stays nested.
        """
        if not lineup:
            return []
        epoch = lineup[0][2].epoch
        if any(plan.epoch != epoch for _, _, plan in lineup):
            raise ConfigurationError("execute_epoch prices one epoch's lineup at a time")
        cfg = self.config
        system = cfg.system
        n = self.ctx.num_workers
        t_iters = cfg.iterations_per_epoch
        runs: list[_Pricing] = []
        for policy, prep, plan in lineup:
            table = None
            if not prep.ideal:
                table = FetchTable.build(system, plan.pfs_share_mbps, plan.pfs_latency_s)
            runs.append(
                _Pricing(
                    policy=policy,
                    prep=prep,
                    plan=plan,
                    table=table,
                    batch_comps=np.empty((n, t_iters)),
                    batch_reads=np.zeros((n, t_iters)),
                    seconds_by_source=np.zeros((n, kernels.NUM_SOURCES)),
                    bytes_by_source=np.zeros((n, kernels.NUM_SOURCES)),
                    counts_by_source=np.zeros((n, kernels.NUM_SOURCES), dtype=np.int64),
                )
            )
        step = band_rows(n, self.ctx.samples_per_worker_per_epoch, self.tile_rows)
        bands = [slice(start, min(start + step, n)) for start in range(0, n, step)]
        items = self._stage_epoch(runs, bands, epoch)
        if self.helper and len(runs) > 1:
            _finish_on_helper(self._finish_band, items)
        else:
            for run, staged in items:
                self._finish_band(run, staged)
                # Free the item's arrays before the next one is staged.
                del run, staged
        return [run.error if run.error is not None else self._finish(run) for run in runs]

    def noise_stream_states(self, epoch: int, rows: slice) -> list[dict]:
        """Initial PCG64 states of the band's per-worker noise streams.

        One state per worker in ``rows``, each equal to a fresh
        ``generator(seed, "noise", epoch, worker)``'s — the engine's
        reproducibility contract — derived for the whole band in one
        vectorized :func:`~repro.rng.generator_states` call rather than
        one ``SeedSequence`` expansion per worker. :meth:`execute_epoch`
        calls it once per band for every policy of the lineup.
        """
        return generator_states(self.config.seed, "noise", epoch, range(rows.start, rows.stop))

    def _stage_epoch(
        self, runs: list[_Pricing], bands: list[slice], epoch: int
    ) -> Iterator[tuple[_Pricing, _Staged]]:
        """Stage every (band, live entry) item, bands in worker order.

        Runs on :meth:`execute_epoch`'s calling thread under both
        schedules, so the band's shared state — its noise stream
        states, :class:`~repro.sim.noise.SourceBand` and size gather
        (held in :attr:`_band`), a rewritten stream's scratch generator
        — is built here, and an entry's
        :class:`~repro.errors.PolicyError` is recorded here, without its
        traceback, before the next band decides which entries are live.
        """
        cfg = self.config
        for rows in bands:
            live = [run for run in runs if run.error is None]
            states: list[dict] = []
            if cfg.noise.enabled and any(not run.prep.ideal for run in live):
                # The band's per-worker stream states, derived once for
                # the lineup in one vectorized pass — bitwise identical
                # to fresh generator() calls. Disabled noise skips the
                # derivation outright.
                states = self.noise_stream_states(epoch, rows)
            band = SourceBand(states)
            shared: SizeBand | None = None
            readers = [run.plan for run in live if run.plan.canonical is not None]
            if readers:
                ids = readers[0].canonical[rows]
                cold = any(plan.warmup for plan in readers)
                # Replace the held band only once this one exists.
                shared = self._band = SizeBand(self.ctx.sizes_mb[ids], cfg, ids if cold else None)
            for run in live:
                try:
                    yield run, self._stage_band(run, rows, band, shared)
                except PolicyError as exc:
                    # Its frames would tie this simulator to the outcome.
                    run.error = exc.with_traceback(None)

    def _stage_band(
        self, run: _Pricing, rows: slice, band: SourceBand, shared: SizeBand | None
    ) -> _Staged:
        """The staging half of pricing one entry's row band.

        Materializes the tile, picks its size gather (the band's shared
        one, or a :class:`SizeBand` over the tile's own sizes) and, for
        a non-ideal entry, resolves every sample's fetch time and
        source through the entry's :class:`FetchTable` and finds the
        band's :class:`~repro.sim.noise.SourceEntry` for the sources
        (:meth:`SourceBand.entry`: made by the band's first policy with
        that matrix, reused by the rest). Raises the entry's
        :class:`~repro.errors.PolicyError` when a sample has no
        available source, naming the band's lowest such worker.

        The memo entry is made here, not in the finishing half, so its
        source copy and index come from the calling thread's allocator
        arena: a helper thread's arena keeps the pages it grew to.
        """
        tile = run.plan.tile(rows, shared)
        size_band = tile.shared if tile.shared is not None else SizeBand(tile.sizes_mb, self.config)
        if run.prep.ideal:
            return _Staged(tile, size_band, band)
        table = run.table
        fetch, sources = table.resolve(tile.sizes_mb, tile.local_classes, tile.remote_classes)
        if int(Source.NONE) in table.sources:
            unsourced = sources == int(Source.NONE)
            if unsourced.any():
                worker = rows.start + int(np.argmax(unsourced.any(axis=1)))
                raise PolicyError(
                    f"policy {run.policy.name!r} scheduled a sample with no "
                    f"available source (epoch {run.plan.epoch}, worker {worker})"
                )
        return _Staged(tile, size_band, band, fetch, band.entry(sources))

    def _finish_band(self, run: _Pricing, staged: _Staged) -> None:
        """The finishing half: price one staged item into its accumulators.

        What the tile's source matrix alone determines — its counts,
        its noise multipliers (drawn by the first item that needs them)
        and its byte totals over the band's shared size gather — comes
        from the staged memo entry; a tile with its own sizes totals
        them itself. Seconds totals weigh this policy's fetch times and
        stay its own.

        It writes only the item's own fetch times (in place, into its
        read times), the item's rows of the entry's accumulators and the
        band's memo entries, whose items are finished one at a time in
        staging order under either schedule.
        """
        cfg = self.config
        system = cfg.system
        prep = run.prep
        tile = staged.tile
        rows = tile.rows
        comps = staged.size_band.comp_totals
        if prep.ideal:
            run.batch_comps[rows] = comps
            return

        band = staged.band
        entry = staged.entry
        fetch = staged.fetch
        if cfg.noise.enabled:
            fetch = apply_noise_matrix(fetch, entry.sources, cfg.noise, band)

        p0 = system.staging.threads
        if tile.shared is None:
            tile_bytes = kernels.source_totals(entry.index, tile.sizes_mb)
        elif entry.shared_bytes is None:
            tile_bytes = entry.shared_bytes = kernels.source_totals(entry.index, tile.sizes_mb)
        else:
            tile_bytes = entry.shared_bytes
        run.seconds_by_source[rows] = kernels.source_totals(entry.index, fetch) / (
            float(p0) if prep.overlap else 1.0
        )
        run.bytes_by_source[rows] = tile_bytes
        run.counts_by_source[rows] = entry.counts
        # The item's own fetch times become its read times in place.
        reads = np.add(fetch, staged.size_band.write_s, out=fetch)

        # I/O noise on the allreduce path (Sec 7.1): non-local
        # traffic (PFS + remote) shares the network/cores with
        # communication and slows the compute step down.
        if cfg.network_interference > 0:
            factors = kernels.interference_factors(tile_bytes, cfg.network_interference)
            comps = comps * factors[:, np.newaxis]

        per_batch_read = kernels.batch_totals(reads, cfg.iterations_per_epoch, cfg.batch_size)
        if prep.overlap:
            run.batch_reads[rows] = per_batch_read / p0
        else:
            # Synchronous loader: reads serialize with compute.
            comps = comps + per_batch_read
        run.batch_comps[rows] = comps

    def _finish(self, run: _Pricing) -> EpochResult:
        """Reduce one entry's assembled rows into its :class:`EpochResult`."""
        cfg = self.config
        n = self.ctx.num_workers
        fetch_seconds = kernels.accumulate_rows(run.seconds_by_source)
        fetch_bytes = kernels.accumulate_rows(run.bytes_by_source)
        fetch_counts = run.counts_by_source.sum(axis=0)

        prep = run.prep
        lookahead = self._scalars(prep).lookahead_batches
        step = lockstep_epoch(
            run.batch_reads,
            run.batch_comps,
            lookahead if prep.overlap else None,
            barrier=cfg.barrier,
        )
        durations = step.batch_durations
        return EpochResult(
            epoch=run.plan.epoch,
            time_s=step.epoch_time,
            stall_mean_s=float(step.worker_stalls.mean()),
            stall_max_s=float(step.worker_stalls.max()),
            fetch_seconds=tuple((fetch_seconds / n).tolist()),
            fetch_bytes=tuple(fetch_bytes.tolist()),
            fetch_counts=tuple(int(c) for c in fetch_counts),
            batch_stats=BatchTimeStats.from_durations(durations),
            gamma=run.plan.gamma,
            batch_durations=durations if cfg.record_batch_times else None,
        )


def _finish_on_helper(
    finish: Callable[[_Pricing, _Staged], None],
    items: Iterator[tuple[_Pricing, _Staged]],
) -> None:
    """Call ``finish`` on every item on one helper thread, FIFO.

    The calling thread draws (stages) each next item from ``items``
    while the helper finishes the earlier ones, with at most
    ``_HELPER_DEPTH`` submitted at a time. The helper is started and
    joined here; the first error a finish raises is re-raised with its
    own type once the queued items are cancelled and the helper joined.
    """
    helper = ThreadPoolExecutor(max_workers=1, thread_name_prefix="repro-band")
    pending: deque[Future] = deque()
    try:
        for item in items:
            if len(pending) == _HELPER_DEPTH:
                pending.popleft().result()
            pending.append(helper.submit(finish, *item))
            # Only the helper's queue holds a submitted item's arrays.
            del item
        while pending:
            pending.popleft().result()
    finally:
        helper.shutdown(wait=True, cancel_futures=True)


def _unwrap(outcome: "SimulationResult | PolicyError") -> SimulationResult:
    """A single-policy entry point's result, re-raising its PolicyError."""
    if isinstance(outcome, PolicyError):
        raise outcome
    return outcome
