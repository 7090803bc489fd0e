"""DeepIO (Zhu et al., MASCOTS 2018) — memory-only first-touch caching.

"DeepIO: This simulates the ordered and optimistic modes for DeepIO.
The latter mode may change the access order." (Sec 6)

DeepIO caches samples in worker *memory* (it neglects SSDs — no
hardware independence) on first touch during epoch 0, and serves cached
samples over its RDMA shuffle layer afterwards:

* **ordered** mode preserves the SGD access order, so samples that did
  not fit in aggregate memory are re-read from the PFS every epoch —
  "it fetches uncached samples from the PFS and does not consider
  access frequency for assigning samples" (Sec 6.1, Scenario 3).
* **opportunistic** mode rewrites the access order to use whatever is
  cached locally, never touching the PFS again — at the cost of "no
  longer access[ing] the entire dataset" when memory is short.
"""

from __future__ import annotations

from ...core import CachePlan, partition_placement
from ...errors import ConfigurationError, PolicyError
from ..context import ScenarioContext
from .base import Policy, PolicyCapabilities, PreparedPolicy

__all__ = ["DeepIOPolicy"]


class DeepIOPolicy(Policy):
    """DeepIO's entropy-aware shuffle, in ordered or opportunistic mode."""

    capabilities = PolicyCapabilities(
        system_scalability=True,
        dataset_scalability=False,
        full_randomization=False,
        hardware_independence=False,
        ease_of_use=True,
    )

    def __init__(self, mode: str = "ordered") -> None:
        if mode not in ("ordered", "opportunistic"):
            raise ConfigurationError(f"unknown DeepIO mode {mode!r}")
        self.mode = mode
        self.name = f"deepio_{mode}"
        self.display_name = f"DeepIO ({'Ord.' if mode == 'ordered' else 'Opp.'})"

    def _memory_capacities(self, ctx: ScenarioContext) -> list[float]:
        """RAM tier only: zero capacity for every slower tier."""
        caps = ctx.system.hierarchy.capacities_mb
        if not caps:
            return []
        return [caps[0]] + [0.0] * (len(caps) - 1)

    def prepare(self, ctx: ScenarioContext) -> PreparedPolicy:
        """First-touch placement into RAM; mode decides the warm behaviour."""
        caps = self._memory_capacities(ctx)
        epoch0 = ctx.epoch_matrix(0)  # (N, L): row w = worker w's first touches
        placements = [
            partition_placement(epoch0[worker], ctx.sizes_mb, caps, worker)
            for worker in range(ctx.num_workers)
        ]
        plan = CachePlan(
            placements, ctx.config.dataset.num_samples, max(len(caps), 1)
        )
        if self.mode == "ordered":
            return PreparedPolicy(name=self.name, plan=plan, warm_epochs=1)

        # Opportunistic: iterate only over locally cached samples after
        # the first epoch; the PFS is never touched again. Only the RAM
        # tier fills, so a worker's pool is its placement's tier-0 array.
        # A worker that cached nothing has nothing to iterate then (a
        # one-epoch run never gets there).
        if ctx.config.num_epochs > 1:
            for placement in placements:
                if not any(len(ids) for ids in placement.class_ids):
                    raise PolicyError(
                        f"{self.name}: worker {placement.worker} cached no "
                        "sample to iterate after epoch 0"
                    )
        covered = plan.coverage_fraction() >= 1.0 - 1e-12
        return PreparedPolicy(
            name=self.name,
            plan=plan,
            warm_epochs=1,
            pfs_in_warm=False,
            warm_pfs_fraction=0.0,
            accesses_full_dataset=covered,
            pools=[placement.class_ids[0] for placement in placements] if caps else [],
        )
