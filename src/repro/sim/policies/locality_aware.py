"""Locality-aware data loading (Yang & Cong, HiPC 2019).

"LocalityAware: This simulates the locality-aware approach of Yang and
Cong. When using this policy, we reorder batches at the beginning of
the simulation to correspond to the logic described in their paper."
(Sec 6)

Each worker owns a fixed partition of the dataset cached in its local
storage; batches are reordered so a worker predominantly reads its own
partition while the epoch still covers the whole dataset (full
randomization is preserved at the dataset level — Table 1 marks it
``yes``). Samples that fit nowhere (``S > N*D``) remain on the PFS and
are divided among workers each epoch.
"""

from __future__ import annotations

import numpy as np

from ...core import CachePlan, partition_placement
from ..context import ScenarioContext
from .base import Policy, PolicyCapabilities, PreparedPolicy

__all__ = ["LocalityAwarePolicy"]


class LocalityAwarePolicy(Policy):
    """Partition-local batch reordering with full dataset coverage."""

    name = "locality_aware"
    display_name = "Locality-Aware"
    capabilities = PolicyCapabilities(
        system_scalability=True,
        dataset_scalability=True,
        full_randomization=True,
        hardware_independence=False,
        ease_of_use=False,
    )

    def prepare(self, ctx: ScenarioContext) -> PreparedPolicy:
        """Round-robin partitions; leftovers stay on the PFS, split evenly."""
        n = ctx.num_workers
        f = ctx.config.dataset.num_samples
        caps = ctx.system.hierarchy.capacities_mb
        placements = []
        for worker in range(n):
            shard = np.arange(worker, f, n, dtype=np.int64)
            placements.append(
                partition_placement(shard, ctx.sizes_mb, caps, worker)
            )
        plan = CachePlan(placements, f, max(len(caps), 1))

        holders = plan.holder_counts()
        leftover = np.nonzero(holders == 0)[0].astype(np.int64)
        total = float(ctx.sizes_mb.sum())
        leftover_fraction = (
            float(ctx.sizes_mb[leftover].sum()) / total if total > 0 else 0.0
        )
        # Each worker's warm-epoch pool: its cached partition plus its
        # share of the uncacheable remainder (fetched from the PFS).
        pools = [
            np.concatenate([plan.placements[w].cached_ids, leftover[w::n]])
            for w in range(n)
        ]
        return PreparedPolicy(
            name=self.name,
            plan=plan,
            warm_epochs=1,
            warm_pfs_fraction=leftover_fraction,
            accesses_full_dataset=True,
            pools=pools,
        )
