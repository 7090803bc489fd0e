"""Epoch-invariant plan scalars of a prepared policy.

The plan phase of :class:`~repro.sim.engine.Simulator` decides, per
epoch, the contention scalars (``gamma``, the per-worker PFS share and
latency) and the staging lookahead. None of them depends on the epoch
beyond its phase:

* the PFS byte fraction — and therefore ``gamma`` and everything
  derived from it — takes exactly two values per policy: the cold
  value (epochs before ``warm_epochs``) and the warm value;
* the uncovered-placement byte fraction and the lookahead depth are
  pure functions of the prepared policy.

:func:`plan_scalars` computes them from the prepared policy and its
scenario alone. The engine stores the result on the
:class:`~repro.sim.policies.base.PreparedPolicy` it plans
(``prep.scalars``), so the scalars live exactly as long as the policy;
the search layer's lower bounds call it directly. It is the same
arithmetic the per-epoch code used to run, so reuse is bitwise-neutral
by construction; the reference-engine equivalence suite pins it.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigurationError
from .context import ScenarioContext
from .policies.base import PreparedPolicy

__all__ = ["PhasePlan", "PlanScalars", "plan_scalars"]


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


def plan_scalars(prep: PreparedPolicy, ctx: ScenarioContext) -> PlanScalars:
    """The epoch-invariant scalars of ``prep`` on ``ctx``'s scenario.

    Raises :class:`~repro.errors.ConfigurationError` when the policy
    caches in a tier the system does not have: a label ``>= C`` would
    silently read another fetch-table pair.
    """
    c = ctx.config.system.hierarchy.num_classes
    placements = prep.plan.placements if prep.plan is not None else ()
    if any(len(ids) for p in placements for ids in p.class_ids[c:]):
        raise ConfigurationError(f"{prep.name!r} caches in class {c}+; system has {c} tiers")
    uncovered = _uncovered_fraction(prep, ctx)
    return PlanScalars(
        lookahead_batches=_lookahead_batches(prep, ctx),
        uncovered_fraction=uncovered,
        cold=_phase(prep, ctx, _pfs_fraction(prep, uncovered, cold=True)),
        warm=_phase(prep, ctx, _pfs_fraction(prep, uncovered, cold=False)),
    )


def _lookahead_batches(prep: PreparedPolicy, ctx: ScenarioContext) -> int | None:
    """Prefetch depth in batches (policy override or buffer-derived)."""
    if prep.lookahead_batches is not None:
        return prep.lookahead_batches
    config = ctx.config
    batch_mb = config.batch_size * config.dataset.mean_realized_size_mb
    if batch_mb <= 0:
        return None
    return max(1, int(config.system.staging.capacity_mb / batch_mb))


def _uncovered_fraction(prep: PreparedPolicy, ctx: ScenarioContext) -> float:
    """Byte fraction of the dataset no worker's placement covers."""
    if prep.best_map is None:
        return 1.0
    sizes = ctx.sizes_mb
    uncovered = prep.best_map < 0
    total = float(sizes.sum())
    if total <= 0:
        return 0.0
    return float(sizes[uncovered].sum()) / total


def _pfs_fraction(prep: PreparedPolicy, uncovered: float, cold: bool) -> float:
    """The PFS byte fraction governing a cold or warm epoch."""
    if prep.ideal:
        return 0.0
    if cold:
        return 1.0
    if prep.warm_pfs_fraction is not None:
        return float(prep.warm_pfs_fraction)
    if not prep.pfs_in_warm:
        return 0.0
    return uncovered


def _phase(prep: PreparedPolicy, ctx: ScenarioContext, fraction: float) -> PhasePlan:
    """Contention scalars for one PFS byte fraction."""
    system = ctx.config.system
    gamma = system.pfs.effective_gamma(ctx.num_workers, fraction)
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
