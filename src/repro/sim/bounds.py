"""Policy-aware admissible lower bounds for scenario search.

:func:`~repro.sim.engine.analytic_lower_bound` is the paper's
"Perfect" floor — pure compute, I/O free — and is deliberately
policy-independent. A branch-and-bound search needs a bound that can
*discriminate*: cacheless policies (naive, the staging ring, the
double-buffering loader) pay the parallel file system every epoch, so
their floor sits far above a caching policy's true time, and the
search can discard them without simulating.

:func:`policy_lower_bound` adds exactly that: on top of the compute
floor it prices the epochs a prepared policy *provably* spends reading
every byte from the PFS — epochs whose planned PFS byte fraction is
1.0 for policies with no cache placement at all (no ``best_map``
means the engine resolves every fetch against an all-cold class
matrix, with no warm-up remote serving to fall back on) — using the
very :class:`~repro.sim.scalars.PhasePlan` scalars the engine plans
with.
Admissibility rests on the lockstep guarantees (an epoch can end no
earlier than the slowest worker's total read chain or its total
compute, barrier or not), with a seeded-noise safety margin because
the mean-preserving lognormal draws can dip below one. The property
suite in ``tests/sim/test_bounds.py`` pins
``bound <= simulated total time`` for every registered policy spec
across a scenario grid — the invariant branch-and-bound pruning
correctness stands on.
"""

from __future__ import annotations

import math

from ..errors import PolicyError
from .config import SimulationConfig
from .context import ScenarioContext
from .policies.base import Policy
from .scalars import plan_scalars

__all__ = ["policy_lower_bound"]

#: Standard deviations of a worker's summed per-sample noise draws
#: subtracted from the nominal PFS wall time. The draws are unit-mean
#: lognormal, so a worker's realized epoch read time concentrates on
#: the nominal value with relative spread ``cv / sqrt(samples)``; eight
#: deviations keeps the bound below any realizable noisy epoch while
#: still separating PFS-bound policies from cached ones.
_NOISE_SIGMAS = 8.0


def _noise_safety(config: SimulationConfig, samples_per_worker: int) -> float:
    """Multiplier shrinking the nominal PFS floor under fetch noise.

    ``1.0`` when noise is disabled; otherwise ``1 - k * cv / sqrt(n)``
    (floored at zero), where ``cv`` is the coefficient of variation of
    one mean-one lognormal draw at the configured PFS sigma. Tail
    events only multiply fetch times *up*, so they never threaten the
    bound and need no margin.
    """
    noise = config.noise
    if not noise.enabled or noise.pfs_sigma == 0.0 or samples_per_worker <= 0:
        return 1.0
    cv = math.sqrt(math.exp(noise.pfs_sigma * noise.pfs_sigma) - 1.0)
    return max(0.0, 1.0 - _NOISE_SIGMAS * cv / math.sqrt(samples_per_worker))


def policy_lower_bound(
    config: SimulationConfig,
    policy: Policy,
    ctx: ScenarioContext | None = None,
) -> float:
    """An admissible lower bound on ``policy``'s simulated total time.

    Never above the simulated
    :attr:`~repro.sim.result.SimulationResult.total_time_s`. It refines
    the per-epoch compute-floor structure of the policy-independent
    :func:`~repro.sim.engine.analytic_lower_bound`: prestaging cost
    plus, per epoch, the larger of

    * the **compute floor** — the worst worker's bytes through the
      compute engine (the lockstep barrier can end an epoch no earlier
      than its slowest worker's pure compute chain), and
    * the **PFS floor**, charged only when every sample is provably
      fetched from the parallel file system — the planned PFS byte
      fraction is 1.0 *and* the policy builds no cache placement
      (placement builders serve part of even their cold epochs from
      warm-up remote availability): the worst worker's bytes at the
      contended per-worker PFS share plus the per-request latency
      bill, shrunk by the noise safety margin.

    Policies that reject the scenario (:class:`~repro.errors.PolicyError`
    — the paper's "Does not support" cells) bound to ``inf``: an
    unsupported candidate can never beat a feasible incumbent.

    Pass ``ctx`` to reuse an existing :class:`ScenarioContext` built
    from the same ``config``: bounds across a policy lineup then share
    its memoized per-worker byte totals (:meth:`ScenarioContext.worker_mb`)
    instead of rebuilding every epoch permutation once per policy. The
    policy is prepared through :meth:`ScenarioContext.prepare` and its
    plan scalars are kept on it (``prep.scalars``, as the engine keeps
    them), so on a context that memoizes prepared policies a later
    simulation of the same policy object prepares and plans nothing
    again.
    """
    if ctx is None:
        ctx = ScenarioContext(config)
    prep = ctx.prepare(policy)
    if isinstance(prep, PolicyError):
        return math.inf
    if prep.scalars is None:
        prep.scalars = plan_scalars(prep, ctx)
    scalars = prep.scalars
    system = config.system
    divisor = float(system.staging.threads) if prep.overlap else 1.0
    samples = ctx.samples_per_worker_per_epoch
    safety = _noise_safety(config, samples)

    total = float(prep.prestage_time_s)
    for epoch in range(config.num_epochs):
        per_worker_mb = ctx.worker_mb(epoch)
        if per_worker_mb.size == 0:
            continue
        if prep.pools is None and config.barrier:
            # Canonical clairvoyant streams under lockstep barriers: the
            # epoch's per-worker byte totals are exact and every epoch
            # ends on its own straggler, so the per-epoch maxima sum.
            worst_mb = float(per_worker_mb.max())
        else:
            # Stream-rewriting policies redistribute the epoch's samples
            # among workers, and without barriers only each worker's
            # *cumulative* chain is ordered (per-epoch maxima may land
            # on different workers) — in both cases the epoch mean is
            # the only provable per-epoch floor.
            worst_mb = float(per_worker_mb.sum()) / ctx.num_workers
        compute_floor = worst_mb / system.compute_mbps

        phase = scalars.phase(epoch < prep.warm_epochs)
        pfs_floor = 0.0
        # Placement builders (best_map set) serve part of even their
        # cold epochs from warm-up remote availability, so only
        # placement-less policies provably pay the PFS for every byte.
        if (
            not prep.ideal
            and prep.best_map is None
            and phase.pfs_fraction >= 1.0
            and phase.pfs_share_mbps > 0
        ):
            # pfs_share_mbps is the engine's per-consumer share (already
            # split across staging threads when the policy overlaps);
            # dividing the summed read chain by the same thread count
            # recovers the worker's wall-clock PFS time either way.
            pfs_floor = (
                safety
                * (worst_mb / phase.pfs_share_mbps + samples * phase.pfs_latency_s)
                / divisor
            )
        total += max(compute_floor, pfs_floor)
    # Both floors re-derive sums the engine accumulates in a different
    # association order; a one-part-per-billion haircut keeps the bound
    # strictly admissible against that float noise without costing any
    # discrimination.
    return total * (1.0 - 1e-9)
