"""The Naive policy: synchronous PFS reads, no prefetching or caching.

"Naive: Loading from the PFS with no prefetching or caching." (Sec 6)

Every sample is read from the parallel filesystem by a single thread at
the moment it is needed, then preprocessed, then trained on — reads
serialize with compute. This is the strawman every real loader beats
(1.7x slower than the best policy even on MNIST in Fig 8a).
"""

from __future__ import annotations

from ..context import ScenarioContext
from .base import Policy, PreparedPolicy

__all__ = ["NaivePolicy"]


class NaivePolicy(Policy):
    """Demand-fetch from the PFS with zero overlap."""

    name = "naive"
    display_name = "Naive"
    capabilities = None  # below every Table 1 row

    def prepare(self, ctx: ScenarioContext) -> PreparedPolicy:
        """No cache plan; reads fold into the compute chain (overlap off)."""
        return PreparedPolicy(name=self.name, overlap=False, warm_epochs=0)
