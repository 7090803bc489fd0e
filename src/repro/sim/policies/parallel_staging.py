"""Parallel data staging (sharding), e.g. Kurth et al. (SC 2018).

"ParallelStaging: This simulates data sharding, which also changes the
access order, as only locally-available samples are accessed by a
worker." (Sec 6)

Before training, each worker stages a shard of the dataset from the PFS
into its local storage hierarchy — an explicit prestaging phase that
"cannot be overlapped with training" (Sec 5.1). Afterwards it iterates
(reshuffled each epoch) over its shard only: no PFS traffic, no remote
fetches, and no full-dataset randomization; when the shard exceeds
local capacity, part of the dataset is simply never accessed (Fig 8d/e's
"Does not access entire dataset").
"""

from __future__ import annotations

import numpy as np

from ...core import CachePlan, partition_placement
from ...errors import PolicyError
from ..context import ScenarioContext
from .base import Policy, PolicyCapabilities, PreparedPolicy

__all__ = ["ParallelStagingPolicy", "staging_phase_time"]


def staging_phase_time(ctx: ScenarioContext, staged_bytes_per_worker: list[float], staged_counts: list[int]) -> float:
    """Wall time for all workers to stage their shards concurrently.

    All ``N`` workers read the PFS at once (``gamma = N``); the phase
    ends when the slowest worker finishes its bytes plus per-request
    latency.
    """
    n = ctx.num_workers
    share = float(ctx.system.pfs.per_worker_mbps(n))
    latency = ctx.system.pfs.per_sample_latency(n)
    worst = 0.0
    for bytes_mb, count in zip(staged_bytes_per_worker, staged_counts):
        if share > 0:
            worst = max(worst, bytes_mb / share + count * latency)
    return worst


class ParallelStagingPolicy(Policy):
    """Shard-to-local-storage staging with shard-only access."""

    name = "parallel_staging"
    display_name = "Parallel Staging"
    # Table 1 "Data sharding" row.
    capabilities = PolicyCapabilities(
        system_scalability=True,
        dataset_scalability=False,
        full_randomization=False,
        hardware_independence=False,
        ease_of_use=True,
    )

    def prepare(self, ctx: ScenarioContext) -> PreparedPolicy:
        """Round-robin shards into memory, then local-only access.

        Staging scripts in practice (and in the paper's simulation —
        Fig 8d/e mark ParallelStaging "Does not access entire dataset"
        even though shards would fit RAM+SSD) target a single storage
        tier; shards are capacity-limited by worker memory. A worker
        whose memory holds none of its shard has nothing to iterate, so
        the scenario is unsupported (:class:`~repro.errors.PolicyError`).
        """
        n = ctx.num_workers
        f = ctx.config.dataset.num_samples
        all_caps = ctx.system.hierarchy.capacities_mb
        caps = ([all_caps[0]] + [0.0] * (len(all_caps) - 1)) if all_caps else []
        placements = []
        staged_bytes = []
        staged_counts = []
        for worker in range(n):
            shard = np.arange(worker, f, n, dtype=np.int64)
            placement = partition_placement(shard, ctx.sizes_mb, caps, worker)
            placements.append(placement)
            staged_bytes.append(placement.cached_bytes(ctx.sizes_mb))
            staged_counts.append(int(placement.cached_ids.size))
            if not staged_counts[-1]:
                raise PolicyError(
                    f"{self.name}: worker {worker} stages none of its shard "
                    "(its memory tier holds no sample)"
                )
        plan = CachePlan(placements, f, max(len(caps), 1))
        covered = plan.coverage_fraction() >= 1.0 - 1e-12
        return PreparedPolicy(
            name=self.name,
            plan=plan,
            warm_epochs=0,
            pfs_in_warm=False,
            warm_pfs_fraction=0.0,
            prestage_time_s=staging_phase_time(ctx, staged_bytes, staged_counts),
            accesses_full_dataset=covered,
            # A worker iterates its staged shard: the RAM tier's array.
            pools=[placement.class_ids[0] for placement in placements],
        )
