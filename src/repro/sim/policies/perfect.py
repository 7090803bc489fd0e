"""The Perfect (no-I/O) policy — the paper's lower bound.

"Perfect: This simulates the case where no stalls occur and provides a
lower bound, although it is not realistic in practice." (Sec 6)

It also models the Sec 7 "No I/O" baseline, which trains on
pregenerated in-memory synthetic data: compute (and, under the barrier,
compute stragglers) is all that remains.
"""

from __future__ import annotations

from ..context import ScenarioContext
from .base import Policy, PreparedPolicy

__all__ = ["PerfectPolicy"]


class PerfectPolicy(Policy):
    """No I/O at all: every sample is available the instant it is needed."""

    name = "perfect"
    display_name = "Perfect / No I/O"
    capabilities = None  # not a real framework; no Table 1 row

    def prepare(self, ctx: ScenarioContext) -> PreparedPolicy:
        """Nothing to prepare — fetching is skipped entirely."""
        return PreparedPolicy(name=self.name, ideal=True, warm_epochs=0)
