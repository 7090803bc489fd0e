"""Staging-buffer prefetching without caching (PyTorch / tf.data).

"StagingBuffer: This fills a staging buffer according to the reference
string, fetching data from a given location and dropping it after it is
consumed. When configured to prefetch data from the PFS, this simulates
the double buffering or tf.data policies." (Sec 6)

Two flavours are provided:

* :class:`StagingBufferPolicy` — lookahead bounded only by the staging
  buffer capacity (tf.data-style long-range prefetch).
* :class:`DoubleBufferPolicy` — PyTorch ``DataLoader`` semantics: a
  fixed, shallow prefetch depth (``prefetch_factor`` batches), which is
  what makes it vulnerable to PFS tail events at scale.

Neither caches anything, so every epoch re-reads the full dataset from
the PFS — "without caching, it is always 'the first epoch' for a data
loader" (Sec 7.1).
"""

from __future__ import annotations

from ..context import ScenarioContext
from .base import Policy, PolicyCapabilities, PreparedPolicy

__all__ = ["StagingBufferPolicy", "DoubleBufferPolicy"]


class StagingBufferPolicy(Policy):
    """PFS prefetch into a staging ring, drop-after-use, no cache."""

    name = "staging_buffer"
    display_name = "Staging Buffer"
    # Table 1 "tf.data" row: limited shuffle buffer => no full randomization.
    capabilities = PolicyCapabilities(
        system_scalability=False,
        dataset_scalability=True,
        full_randomization=False,
        hardware_independence=False,
        ease_of_use=True,
    )

    def prepare(self, ctx: ScenarioContext) -> PreparedPolicy:
        """Stream order preserved; lookahead bounded by staging capacity."""
        return PreparedPolicy(name=self.name, warm_epochs=0)


class DoubleBufferPolicy(Policy):
    """PyTorch-style double buffering: shallow fixed prefetch depth."""

    name = "pytorch"
    display_name = "PyTorch (double buffering)"
    # Table 1 "Double-buffering (e.g., PyTorch)" row.
    capabilities = PolicyCapabilities(
        system_scalability=False,
        dataset_scalability=True,
        full_randomization=True,
        hardware_independence=False,
        ease_of_use=True,
    )

    def __init__(self, prefetch_batches: int = 2) -> None:
        if prefetch_batches < 1:
            raise ValueError("prefetch_batches must be >= 1")
        self.prefetch_batches = prefetch_batches

    def prepare(self, ctx: ScenarioContext) -> PreparedPolicy:
        """Like the staging buffer, but only ``prefetch_factor`` deep."""
        return PreparedPolicy(
            name=self.name,
            warm_epochs=0,
            lookahead_batches=self.prefetch_batches,
        )
