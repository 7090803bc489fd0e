"""Two executable worlds behind one scenario: analytic sim vs runtime.

The parity harness needs the *same* registered policy to run against
two very different machines:

* :class:`SimWorld` — the analytic epoch-matrix engine
  (:class:`~repro.sim.engine.Simulator`), exactly as ``Simulator.run``
  would execute it.
* :class:`RuntimeWorld` — the threaded middleware's real primitives
  (:class:`~repro.runtime.backends.MemoryBackend` tiers,
  :class:`~repro.runtime.metadata.MetadataStore`, the
  :class:`~repro.runtime.comm.WorkerGroup` remote-serving path and
  :func:`~repro.runtime.planner.best_holders` routing), driven in
  deterministic lockstep over the simulator's own per-epoch access
  streams.

Both produce a :class:`WorldReport` of per-epoch
:class:`~repro.sim.result.EpochResult` values. The trick that makes the
comparison exact rather than statistical: the runtime world *records*
which tier actually served every sample (an observed ``(N, L)`` class
matrix) and then prices those observations through the very same engine
method (:meth:`~repro.sim.engine.Simulator.execute_epoch`, as a lineup
of one) the analytic world uses — identical kernels, identical
accumulation order. Whenever
the runtime serves a sample the way the policy's plan modelled it, the
two worlds agree bit for bit.

Where they legitimately diverge: during *cold* epochs (before
``warm_epochs``) the simulator applies the paper's warm-up
remote-availability model (:func:`repro.sim.kernels.warmup_remote_classes`)
while the lockstep runtime's tiers are simply empty until the warm
boundary, so the runtime leans harder on the PFS. :mod:`repro.ports.parity`
compares those epochs under declared tolerances instead of exactly.

**Local dominance.** The runtime prefers local tiers over remote
holders over the PFS *categorically*; the simulator picks whichever
source is *fastest*. On systems like ``sec6_cluster`` these disagree
(remote RAM over a 24 GB/s fabric beats a local 4 GB/s SSD), which is a
modelling feature, not a bug — but it means parity needs a system where
preference order and speed order coincide. :func:`parity_system` builds
one and validates the invariant: PFS share <= network <= every tier's
per-thread read bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..errors import ConfigurationError, PolicyError, RuntimeIOError
from ..perfmodel import (
    PFSModel,
    StagingBufferModel,
    StorageClassModel,
    SystemModel,
    ThroughputCurve,
)
from ..runtime import MemoryBackend, MetadataStore, WorkerGroup, best_holders
from ..sim import EpochTile, SimulationConfig, Simulator
from ..sim.policies.base import Policy, PreparedPolicy
from ..sim.result import EpochResult
from .fakes import BYTES_PER_MB, FakeClock, FakeDataset

__all__ = ["RuntimeWorld", "SimWorld", "WorldReport", "parity_system"]


# -- the shared report shape -----------------------------------------------


@dataclass(frozen=True)
class WorldReport:
    """One policy's run through one world, in comparable units.

    ``epochs`` are ordinary :class:`~repro.sim.result.EpochResult`
    values — the runtime world prices its observed fetches through the
    engine's kernels, so the fields mean exactly the same thing in both
    worlds. ``cold_epochs`` lists the epochs where the worlds are
    allowed to diverge (see the module docstring).
    """

    world: str
    policy: str
    prestage_time_s: float
    epochs: tuple[EpochResult, ...]
    cold_epochs: tuple[int, ...] = ()

    @property
    def total_time_s(self) -> float:
        """Prestage cost plus every epoch's wall time."""
        return self.prestage_time_s + sum(e.time_s for e in self.epochs)

    @property
    def total_stall_s(self) -> float:
        """Mean worker stall summed over epochs."""
        return sum(e.stall_mean_s for e in self.epochs)

    def fetch_counts(self, epoch: int) -> tuple[int, ...]:
        """The epoch's ``(pfs, remote, local, none)`` fetch counts."""
        return self.epochs[epoch].fetch_counts

    def to_dict(self) -> dict[str, Any]:
        """JSON-able view (used by the parity report)."""
        return {
            "world": self.world,
            "policy": self.policy,
            "prestage_time_s": self.prestage_time_s,
            "total_time_s": self.total_time_s,
            "cold_epochs": list(self.cold_epochs),
            "epochs": [e.to_dict() for e in self.epochs],
        }


def _cold_epochs(prep: PreparedPolicy, num_epochs: int) -> tuple[int, ...]:
    """Epochs where the sim's warm-up model and empty tiers diverge."""
    if prep.plan is None:
        return ()
    return tuple(range(min(prep.warm_epochs, num_epochs)))


# -- the analytic world ----------------------------------------------------


class SimWorld:
    """The analytic engine as a world: ``run(policy) -> WorldReport``.

    Epoch results are exactly ``Simulator.run``'s (same plan scalars,
    same kernels); this wrapper only rephrases them as a
    :class:`WorldReport` and classifies the cold epochs.
    """

    def __init__(self, config: SimulationConfig, sim: Simulator | None = None) -> None:
        self.config = config
        self.sim = sim if sim is not None else Simulator(config)

    def run(self, policy: Policy) -> WorldReport:
        """Simulate ``policy``; may raise :class:`~repro.errors.PolicyError`."""
        sim = self.sim
        prep = policy.prepare(sim.ctx)
        epochs = tuple(
            _execute(sim, policy, prep, sim.plan_epoch(prep, epoch))
            for epoch in range(self.config.num_epochs)
        )
        return WorldReport(
            world="sim",
            policy=policy.name,
            prestage_time_s=prep.prestage_time_s,
            epochs=epochs,
            cold_epochs=_cold_epochs(prep, self.config.num_epochs),
        )


def _execute(sim: Simulator, policy: Policy, prep: PreparedPolicy, plan) -> EpochResult:
    """Price one planned epoch as a lineup of one; raise its PolicyError."""
    (outcome,) = sim.execute_epoch([(policy, prep, plan)])
    if isinstance(outcome, PolicyError):
        raise outcome
    return outcome


# -- the runtime world -----------------------------------------------------


@dataclass(frozen=True)
class _RecordedPlan:
    """An :class:`~repro.sim.engine.EpochPlan` stand-in carrying observations.

    Instead of deriving class matrices from the policy's placement, its
    tiles are row bands of the tiers the runtime *actually served
    from* — which is what :meth:`Simulator.execute_epoch` then prices.
    Its tiles carry their own observed sizes, so it reads no canonical
    stream and the band loop gathers none for it.
    """

    canonical = None

    epoch: int
    warm: bool
    ids: np.ndarray
    gamma: float
    pfs_share_mbps: float
    pfs_latency_s: float
    observed: EpochTile = field(repr=False)

    def tile(self, rows: slice, shared=None) -> EpochTile:
        """The observed matrices' rows ``rows`` (``shared`` is ignored)."""
        observed = self.observed

        def band(matrix: np.ndarray | None) -> np.ndarray | None:
            return None if matrix is None else matrix[rows]

        return EpochTile(
            rows=rows,
            ids=observed.ids[rows],
            sizes_mb=observed.sizes_mb[rows],
            local_classes=band(observed.local_classes),
            remote_classes=band(observed.remote_classes),
        )


class RuntimeWorld:
    """The threaded middleware's primitives, driven in lockstep.

    One "rank" per simulated worker, each owning real
    :class:`~repro.runtime.backends.MemoryBackend` tiers and a
    :class:`~repro.runtime.metadata.MetadataStore`; remote fetches go
    through a real :class:`~repro.runtime.comm.WorkerGroup` serving
    path (the same ``serve_fn`` wiring a :class:`~repro.runtime.job.Job`
    registers). Determinism comes from three choices:

    * samples are consumed epoch-at-a-time in the simulator's own
      stream order (``Simulator.plan_epoch(prep, epoch).ids`` — the
      seam that honours policy stream rewrites),
    * tiers are filled *synchronously* at the warm boundary from the
      prepared policy's placement, instead of racing prefetcher
      threads against consumption,
    * the remote-availability heuristic is bypassed — holders are asked
      directly, which in-process is exact.

    Every served payload is verified against the dataset's expected
    bytes when the dataset supports it (:class:`FakeDataset` does), so
    a torn or corrupted cache entry fails the run instead of silently
    skewing the comparison.

    Parameters
    ----------
    config:
        The scenario, shared verbatim with the sim world.
    dataset:
        Byte-level dataset; defaults to
        ``FakeDataset.from_model(config.dataset)``. Its per-sample byte
        sizes must equal ``sizes_mb * 2**20`` exactly (dyadic ``fake:*``
        profiles guarantee this), or the two worlds would disagree on
        placement arithmetic before a single sample moved.
    sim:
        Share the sim world's :class:`Simulator` so both worlds consume
        the same cached streams.
    sink:
        Optional :class:`~repro.ports.ports.MetricsSink` receiving one
        event per served sample.
    """

    def __init__(
        self,
        config: SimulationConfig,
        dataset: FakeDataset | None = None,
        sim: Simulator | None = None,
        sink=None,
    ) -> None:
        self.config = config
        self.sim = sim if sim is not None else Simulator(config)
        self.dataset = (
            dataset if dataset is not None else FakeDataset.from_model(config.dataset)
        )
        self.sink = sink
        if len(self.dataset) != config.dataset.num_samples:
            raise ConfigurationError(
                f"dataset has {len(self.dataset)} samples, "
                f"scenario expects {config.dataset.num_samples}"
            )
        sizes_bytes = np.array(
            [self.dataset.size(i) for i in range(len(self.dataset))], dtype=np.float64
        )
        if not np.array_equal(sizes_bytes, self.sim.ctx.sizes_mb * BYTES_PER_MB):
            raise ConfigurationError(
                "dataset byte sizes must equal the model's sizes_mb * 2**20 "
                "exactly; use a dyadic fake profile (fake:tiny/small/medium)"
            )
        self._verify = hasattr(self.dataset, "expected_payload")
        #: The last run's worker group (tests inspect serving stats).
        self.group: WorkerGroup | None = None

    # -- plumbing ----------------------------------------------------------

    def _build_ranks(
        self,
    ) -> tuple[WorkerGroup, list[list[MemoryBackend]], list[MetadataStore]]:
        system = self.config.system
        n = self.sim.ctx.num_workers
        group = WorkerGroup(n, clock=FakeClock())
        tiers: list[list[MemoryBackend]] = []
        metas: list[MetadataStore] = []
        for rank in range(n):
            rank_tiers = [
                MemoryBackend(
                    int(round(cls.capacity_mb * BYTES_PER_MB)), name=cls.name
                )
                for cls in system.storage_classes
            ]
            meta = MetadataStore()
            tiers.append(rank_tiers)
            metas.append(meta)

            def serve(sample_id: int, t=rank_tiers, m=meta) -> bytes | None:
                tier = m.tier_of(sample_id)
                if tier is None:
                    return None
                return t[tier].get(sample_id)

            group.register(rank, serve, lambda m=meta: m.progress)
        return group, tiers, metas

    def _fill_from_plan(
        self,
        prep: PreparedPolicy,
        tiers: list[list[MemoryBackend]],
        metas: list[MetadataStore],
    ) -> None:
        """Load every rank's placement into its tiers (the warm boundary).

        Reads go through the dataset — in the real system the tier
        prefetchers pull from the PFS — and a placement that does not
        fit its tier is a planner bug worth failing loudly on.
        """
        assert prep.plan is not None
        for rank, placement in enumerate(prep.plan.placements):
            for tier_idx, ids in enumerate(placement.class_ids):
                backend = tiers[rank][tier_idx]
                for sid in np.asarray(ids, dtype=np.int64):
                    sid = int(sid)
                    if not backend.put(sid, self.dataset.read(sid)):
                        raise ConfigurationError(
                            f"placement overflows tier {backend.name!r} on "
                            f"rank {rank} at sample {sid}"
                        )
                    metas[rank].record(sid, tier_idx)

    def _check_payload(self, sample_id: int, data: bytes, where: str) -> None:
        if self._verify and data != self.dataset.expected_payload(sample_id):
            raise RuntimeIOError(
                f"corrupt payload for sample {sample_id} served from {where}"
            )

    def _emit(self, rank: int, epoch: int, source: str, sid: int, data: bytes) -> None:
        if self.sink is not None:
            self.sink.record_fetch(rank, epoch, source, sid, len(data))

    # -- the run -----------------------------------------------------------

    def run(self, policy: Policy) -> WorldReport:
        """Drive ``policy`` through the runtime primitives and price it.

        Raises :class:`~repro.errors.PolicyError` exactly when the sim
        world does: the pricing pass walks the same fetch resolution, so
        a sample the policy leaves sourceless (``Source.NONE``) fails
        both worlds identically.
        """
        sim = self.sim
        ctx = sim.ctx
        prep = policy.prepare(ctx)
        n = ctx.num_workers
        num_epochs = self.config.num_epochs

        group, tiers, metas = self._build_ranks()
        self.group = group
        if prep.plan is not None:
            holder_of, _ = best_holders(prep.plan.placements, ctx.config.dataset.num_samples)
        else:
            holder_of = None

        epochs: list[EpochResult] = []
        for epoch in range(num_epochs):
            plan = sim.plan_epoch(prep, epoch)
            if prep.plan is not None and epoch == prep.warm_epochs:
                self._fill_from_plan(prep, tiers, metas)
            ids = plan.ids  # a rewritten stream stacks its rows on each access
            observed = self._serve_epoch(prep, ids, epoch, group, tiers, metas, holder_of)
            recorded = _RecordedPlan(
                epoch=plan.epoch,
                warm=plan.warm,
                ids=ids,
                gamma=plan.gamma,
                pfs_share_mbps=plan.pfs_share_mbps,
                pfs_latency_s=plan.pfs_latency_s,
                observed=observed,
            )
            epochs.append(_execute(sim, policy, prep, recorded))

        return WorldReport(
            world="runtime",
            policy=policy.name,
            prestage_time_s=prep.prestage_time_s,
            epochs=tuple(epochs),
            cold_epochs=_cold_epochs(prep, num_epochs),
        )

    def _serve_epoch(
        self,
        prep: PreparedPolicy,
        ids: np.ndarray,
        epoch: int,
        group: WorkerGroup,
        tiers: list[list[MemoryBackend]],
        metas: list[MetadataStore],
        holder_of: np.ndarray | None,
    ) -> EpochTile:
        """Serve one epoch's stream; return the observed class matrices.

        For every ``(worker, position)`` the resolution mirrors
        :meth:`repro.runtime.job.Job._fetch_for_staging` with the
        heuristic off: local catalog first, then the planned holder via
        the group's serving path, then the dataset (the PFS).
        """
        n, length = ids.shape
        local_cls: np.ndarray | None = None
        remote_cls: np.ndarray | None = None
        if not prep.ideal:
            local_cls = np.full((n, length), -1, dtype=np.int8)
            remote_cls = np.full((n, length), -1, dtype=np.int8)
            for worker in range(n):
                row = ids[worker]
                for pos in range(length):
                    sid = int(row[pos])
                    tier = metas[worker].tier_of(sid)
                    if tier is not None:
                        data = tiers[worker][tier].get(sid)
                        if data is not None:
                            self._check_payload(sid, data, f"local tier {tier}")
                            local_cls[worker, pos] = tier
                            self._emit(worker, epoch, "local", sid, data)
                            continue
                    holder = -1 if holder_of is None else int(holder_of[sid])
                    if holder >= 0 and holder != worker:
                        data = group.request_sample(holder, sid)
                        if data is not None:
                            served_tier = metas[holder].tier_of(sid)
                            self._check_payload(sid, data, f"rank {holder}")
                            remote_cls[worker, pos] = served_tier
                            self._emit(worker, epoch, "remote", sid, data)
                            continue
                    data = self.dataset.read(sid)
                    self._check_payload(sid, data, "dataset")
                    self._emit(worker, epoch, "pfs", sid, data)

        return EpochTile(
            rows=slice(0, n),
            ids=ids,
            sizes_mb=self.sim.ctx.sizes_mb[ids],
            local_classes=local_cls,
            remote_classes=remote_cls,
        )


# -- the parity system -----------------------------------------------------


def parity_system(
    num_workers: int = 4,
    ram_mb: float = 1.0,
    ssd_mb: float = 4.0,
    staging_mb: float = 1.0,
) -> SystemModel:
    """A system where runtime preference order equals sim speed order.

    Dyadic capacities and power-of-two bandwidths keep every byte/MB
    conversion exact; the bandwidth ladder enforces *local dominance* —
    ``PFS share <= network <= slowest tier`` — so the simulator's
    fastest-source selection always lands on the source the runtime's
    local-first/remote-second/PFS-last resolution picks (ties break the
    same way: LOCAL > REMOTE > PFS in both).
    """
    system = SystemModel(
        name=f"parity-{num_workers}w",
        num_workers=num_workers,
        compute_mbps=32.0,
        preprocess_mbps=512.0,
        network_mbps=1024.0,
        pfs=PFSModel(
            name="parity-pfs",
            throughput=ThroughputCurve.from_mapping({1: 128.0, 8: 512.0}),
            latency_s=0.0,
        ),
        staging=StagingBufferModel(
            capacity_mb=staging_mb,
            read=ThroughputCurve.from_mapping({2: 4096.0}),
            threads=2,
        ),
        storage_classes=(
            StorageClassModel(
                name="ram",
                capacity_mb=ram_mb,
                read=ThroughputCurve.from_mapping({1: 2048.0}),
                prefetch_threads=1,
            ),
            StorageClassModel(
                name="ssd",
                capacity_mb=ssd_mb,
                read=ThroughputCurve.from_mapping({1: 1024.0}),
                prefetch_threads=1,
            ),
        ),
    )
    check_local_dominance(system)
    return system


def check_local_dominance(system: SystemModel) -> None:
    """Validate the invariant :func:`parity_system` relies on.

    Raises :class:`~repro.errors.ConfigurationError` when a remote fetch
    could beat a local tier or the PFS could beat a remote fetch —
    either would make the runtime's categorical preference diverge from
    the simulator's fastest-source selection on *modelled* epochs, and
    the parity harness would report false mismatches.
    """
    rates = system.hierarchy.read_per_thread()
    if rates.size and system.network_mbps > float(rates.min()):
        raise ConfigurationError(
            f"network ({system.network_mbps} MB/s) outruns the slowest tier "
            f"({float(rates.min())} MB/s); remote fetches could beat local"
        )
    pfs_peak = float(system.pfs.per_worker_mbps(1.0))
    if pfs_peak > system.network_mbps:
        raise ConfigurationError(
            f"PFS peak share ({pfs_peak} MB/s) outruns the network "
            f"({system.network_mbps} MB/s); the PFS could beat remote fetches"
        )
