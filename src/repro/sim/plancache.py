"""Cross-epoch, cross-policy and per-band plan reuse for the engine.

The plan phase of :class:`~repro.sim.engine.Simulator` decides, per
epoch, the contention scalars (``gamma``, the per-worker PFS share and
latency), the staging lookahead, and the size/class matrices the
execute kernels consume, one row band at a time. Most of that work is
*not* policy-dependent:

* the PFS byte fraction — and therefore ``gamma`` and everything
  derived from it — takes exactly two values per policy: the cold
  value (epochs before ``warm_epochs``) and the warm value;
* the uncovered-placement byte fraction and the lookahead depth are
  pure functions of the prepared policy;
* a band's size gather ``sizes_mb[ids]``, and the per-batch compute
  totals and staging write times derived from it alone, are identical
  for every policy that consumes the scenario's clairvoyant stream;
  so is the cold-epoch "nothing cached locally" class template.

A :class:`PlanCache` hoists all of it: scalars are computed once per
:class:`~repro.sim.policies.base.PreparedPolicy` (keyed on the prepared
instance), the clairvoyant stream's sizes once per ``(epoch, band)``
(held in one band slot, :meth:`PlanCache.size_band`, that the engine's
band-major loop shares across every policy of a lineup), and the cold
class template once per scenario. The first two last one pass:
:meth:`PlanCache.release` drops them when the loop ends. Each band's
noise stream states are derived once for the whole lineup
(:meth:`PlanCache.noise_stream_states`, one vectorized call); the
noise draws themselves are memoized on the engine's per-band
:class:`~repro.sim.noise.NoiseBand`.

Everything cached here is a value the per-policy code used to recompute
from the same inputs, so reuse is bitwise-neutral by construction; the
reference-engine equivalence suite pins it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError
from ..perfmodel import write_times
from ..rng import generator_states
from . import kernels
from .config import SimulationConfig
from .context import ScenarioContext
from .policies.base import PreparedPolicy

__all__ = ["PhasePlan", "PlanCache", "PlanScalars", "SizeBand"]


@dataclass(frozen=True)
class PhasePlan:
    """Contention scalars for one cache phase (cold or warm).

    Attributes
    ----------
    pfs_fraction:
        Byte fraction fetched from the PFS during this phase.
    gamma:
        Effective PFS contention level.
    pfs_share_mbps:
        Per-consumer PFS share ``t(gamma)/gamma`` — already divided by
        the staging threads when the policy overlaps I/O with compute.
    pfs_latency_s:
        Per-request PFS latency under ``gamma``.
    """

    pfs_fraction: float
    gamma: float
    pfs_share_mbps: float
    pfs_latency_s: float


@dataclass(frozen=True)
class PlanScalars:
    """Epoch-invariant planning state of one prepared policy.

    ``cold`` applies to epochs before ``prep.warm_epochs``, ``warm``
    from ``warm_epochs`` on; the engine picks per epoch with
    :meth:`phase`.
    """

    lookahead_batches: int | None
    uncovered_fraction: float
    cold: PhasePlan
    warm: PhasePlan

    def phase(self, cold: bool) -> PhasePlan:
        """The scalars governing a cold or warm epoch."""
        return self.cold if cold else self.warm


class SizeBand:
    """One row band's sample sizes and the terms derived from them alone.

    Per-batch compute totals and staging write times depend on nothing
    but the sizes, so every policy sharing a band's size gather (the
    plan cache's band slot, :meth:`PlanCache.size_band`) shares them
    too. Both are computed with the gather, so the slot's long-lived
    arrays are allocated before the band's per-policy temporaries: a
    slot computed after them sat at the top of the heap, and freeing it
    at the next band let the allocator return that memory, only to
    page it back in (~100 page faults per epoch on a 64-worker cell).
    """

    def __init__(self, sizes_mb: np.ndarray, config: SimulationConfig) -> None:
        self.sizes_mb = sizes_mb
        #: ``(rows, T)`` per-batch compute seconds (read-only).
        self.comp_totals = kernels.batch_totals(
            sizes_mb / config.system.compute_mbps,
            config.iterations_per_epoch,
            config.batch_size,
        )
        #: ``(rows, L)`` per-sample staging write seconds (read-only).
        self.write_s = write_times(sizes_mb, config.system)
        self.comp_totals.setflags(write=False)
        self.write_s.setflags(write=False)


class PlanCache:
    """Planning state shared across the epochs and policies of one scenario.

    One instance lives on each :class:`~repro.sim.engine.Simulator`
    (sharing the simulator's :class:`ScenarioContext`), so a
    ``run_many`` comparison — or repeated ``run`` calls on the same
    simulator — pays the epoch-invariant planning work once instead of
    once per epoch per policy.

    ``hits`` / ``misses`` count band-slot traffic (:meth:`size_band`):
    a miss gathers a band's sizes, a hit serves a later policy of the
    same ``(epoch, band)``. They exist for tests and profiling.
    """

    def __init__(self, ctx: ScenarioContext) -> None:
        self.ctx = ctx
        #: id(prep) -> (prep, scalars); the prep reference keeps the id
        #: stable for the cache's lifetime.
        self._scalars: dict[int, tuple[PreparedPolicy, PlanScalars]] = {}
        #: Rolling ``((epoch, start, stop), band)`` slot: the band-major
        #: loop shares each band's gather across a lineup's policies, and
        #: a second band is alive only while it replaces the first.
        self._band: tuple[tuple[int, int, int], SizeBand] | None = None
        self._cold_template: np.ndarray | None = None
        self.hits = 0
        self.misses = 0

    # -- per-policy scalars -------------------------------------------------

    def scalars(self, prep: PreparedPolicy) -> PlanScalars:
        """The epoch-invariant scalars of ``prep`` (computed once)."""
        cached = self._scalars.get(id(prep))
        if cached is not None:
            return cached[1]
        # A label >= C would silently read another fetch-table pair.
        c = self.ctx.config.system.hierarchy.num_classes
        placements = prep.plan.placements if prep.plan is not None else ()
        if any(len(ids) for p in placements for ids in p.class_ids[c:]):
            raise ConfigurationError(f"{prep.name!r} caches in class {c}+; system has {c} tiers")
        scalars = PlanScalars(
            lookahead_batches=self._lookahead_batches(prep),
            uncovered_fraction=self._uncovered_fraction(prep),
            cold=self._phase(prep, self._pfs_fraction(prep, cold=True)),
            warm=self._phase(prep, self._pfs_fraction(prep, cold=False)),
        )
        self._scalars[id(prep)] = (prep, scalars)
        return scalars

    def _lookahead_batches(self, prep: PreparedPolicy) -> int | None:
        """Prefetch depth in batches (policy override or buffer-derived)."""
        if prep.lookahead_batches is not None:
            return prep.lookahead_batches
        config = self.ctx.config
        batch_mb = config.batch_size * config.dataset.mean_realized_size_mb
        if batch_mb <= 0:
            return None
        return max(1, int(config.system.staging.capacity_mb / batch_mb))

    def _uncovered_fraction(self, prep: PreparedPolicy) -> float:
        """Byte fraction of the dataset no worker's placement covers."""
        if prep.best_map is None:
            return 1.0
        sizes = self.ctx.sizes_mb
        uncovered = prep.best_map < 0
        total = float(sizes.sum())
        if total <= 0:
            return 0.0
        return float(sizes[uncovered].sum()) / total

    def _pfs_fraction(self, prep: PreparedPolicy, cold: bool) -> float:
        """The PFS byte fraction governing a cold or warm epoch."""
        if prep.ideal:
            return 0.0
        if cold:
            return 1.0
        if prep.warm_pfs_fraction is not None:
            return float(prep.warm_pfs_fraction)
        if not prep.pfs_in_warm:
            return 0.0
        return self._uncovered_fraction(prep)

    def _phase(self, prep: PreparedPolicy, fraction: float) -> PhasePlan:
        """Contention scalars for one PFS byte fraction."""
        system = self.ctx.config.system
        gamma = system.pfs.effective_gamma(self.ctx.num_workers, fraction)
        pfs_share = float(system.pfs.per_worker_mbps(gamma)) if gamma > 0 else 0.0
        pfs_latency = system.pfs.per_sample_latency(gamma) if gamma > 0 else 0.0
        # t(gamma)/gamma is the whole worker's share; with overlap the
        # p0 staging threads split it (each sees share/p0, and the
        # cumsum/p0 in the timeline restores the worker total).
        p0 = system.staging.threads
        return PhasePlan(
            pfs_fraction=float(fraction),
            gamma=float(gamma),
            pfs_share_mbps=pfs_share / p0 if prep.overlap else pfs_share,
            pfs_latency_s=pfs_latency,
        )

    def release(self, preps: "list[PreparedPolicy]") -> None:
        """End an epoch-major pass: drop its policies' scalars and the band slot.

        Every pass prepares fresh policies, so nothing cached for them
        is read again. Without this, a simulator kept across passes
        (the base of a multi-seed batch) would hold each finished
        pass's prepared policies, placements included, alongside the
        next pass's.
        """
        for prep in preps:
            self._scalars.pop(id(prep), None)
        self._band = None

    # -- shared band gathers ------------------------------------------------

    def size_band(self, epoch: int, ids: np.ndarray, rows: slice) -> SizeBand:
        """The clairvoyant stream's sizes for one ``(epoch, band)``.

        ``ids`` are the band's rows of the context's canonical epoch
        matrix. The gather is held in a rolling one-band slot and shared
        (read-only) by every policy whose band reads the canonical
        stream, so the band-major loop gathers each band once while
        memory stays bounded to one band. The old band is dropped only
        once the new one exists (see :class:`SizeBand`).
        """
        key = (epoch, rows.start, rows.stop)
        held = self._band
        if held is not None and held[0] == key:
            self.hits += 1
            return held[1]
        self.misses += 1
        sizes = self.ctx.sizes_mb[ids]
        sizes.setflags(write=False)
        band = SizeBand(sizes, self.ctx.config)
        self._band = (key, band)
        return band

    # -- per-worker noise streams --------------------------------------------

    def noise_stream_states(self, epoch: int, rows: slice) -> list[dict]:
        """Initial PCG64 states of the band's per-worker noise streams.

        One state per worker in ``rows``, each equal to a fresh
        ``generator(seed, "noise", epoch, worker)``'s — the engine's
        reproducibility contract — derived for the whole band in one
        vectorized :func:`~repro.rng.generator_states` call rather than
        one ``SeedSequence`` expansion per worker. The engine calls it
        once per band for every policy of the lineup.
        """
        return generator_states(
            self.ctx.config.seed, "noise", epoch, last=range(rows.start, rows.stop)
        )

    def cold_classes(self, rows: int) -> np.ndarray:
        """Read-only ``(rows, L)`` "nothing cached" int8 template.

        Cold epochs hand the fetch resolution an all ``-1`` class
        matrix; one full template is built lazily per scenario and
        row-sliced for every band of every policy's cold epochs.
        """
        if self._cold_template is None:
            shape = (self.ctx.num_workers, self.ctx.samples_per_worker_per_epoch)
            template = np.full(shape, -1, dtype=np.int8)
            template.setflags(write=False)
            self._cold_template = template
        return self._cold_template[:rows]
