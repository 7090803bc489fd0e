"""`SearchManifest`: a search, fully reconstructible from its artifact.

The manifest records everything a search *decided* — the space, the
driver and its parameters, the seed, every evaluation's scenario and
cache fingerprint in evaluation order, the incumbent trajectory, the
winner and the final counters — and deliberately nothing a re-run
could legitimately change: no wall-clock durations, no cache hit/miss
split (a warm re-search hits where the cold run missed, yet is the
same search). Drivers take time from an injected clock and randomness
from :func:`repro.rng.generator` keyed on the manifest's seed, so the
same seed + space + driver produce a **byte-identical** manifest on
every run and under every executor; ``created_at`` is an optional
caller-supplied stamp (``python -m repro search --timestamp ...``),
never read from the system clock.

That determinism is also the resume story: re-running an interrupted
search replays the identical evaluation sequence, and every already-
completed evaluation is answered by the result cache — zero
re-simulations — until the frontier is reached.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from ..api.scenario import Scenario
from ..config import ConfigMixin
from .space import SearchSpace

__all__ = ["EvaluationRecord", "IncumbentStep", "SearchManifest", "SearchStats"]

#: Manifest schema version (bump on incompatible layout changes).
MANIFEST_VERSION = 1


@dataclass(frozen=True)
class EvaluationRecord(ConfigMixin):
    """One simulated candidate, in evaluation order.

    ``fingerprint`` is the scenario's sweep-cache key (the evaluation
    is replayable — and warm — through it); ``objective_s`` is the
    simulated total time, ``None`` for unsupported candidates.
    ``full`` marks a full-fidelity evaluation, eligible to set the
    incumbent; every shipped driver records only those, so it is always
    ``True``. It stays in the record so manifest schema v1 is unchanged.
    """

    index: int
    fingerprint: str
    scenario: Scenario
    objective_s: float | None
    full: bool = True


@dataclass(frozen=True)
class IncumbentStep(ConfigMixin):
    """One improvement of the best-known objective.

    ``evaluation`` indexes into the manifest's evaluation list.
    """

    evaluation: int
    fingerprint: str
    objective_s: float


@dataclass
class SearchStats(ConfigMixin):
    """Counters accumulated by a driver (mutable while it runs).

    ``opened`` counts tree nodes opened (subtrees and leaves);
    ``pruned_nodes`` / ``pruned_leaves`` count bound-based discards
    (nodes cut, and the candidate scenarios inside them);
    ``backtracks`` counts returns from an explored subtree;
    ``evaluations`` counts simulations requested (cache hits included
    — a warm search still *evaluates*); ``unsupported`` the candidates
    their policy rejected. ``status`` ends as ``solved``,
    ``budget_exhausted``, or ``timed_out``.
    """

    opened: int = 0
    pruned_nodes: int = 0
    pruned_leaves: int = 0
    backtracks: int = 0
    evaluations: int = 0
    unsupported: int = 0
    status: str = "initialized"

    def render(self) -> str:
        """One-line human-readable summary."""
        return (
            f"search: {self.status} | {self.evaluations} evaluated "
            f"({self.unsupported} unsupported) | "
            f"{self.pruned_leaves} pruned in {self.pruned_nodes} cuts | "
            f"{self.opened} opened / {self.backtracks} backtracks"
        )


@dataclass(frozen=True)
class SearchManifest(ConfigMixin):
    """The complete, byte-reproducible record of one search run."""

    driver: str
    seed: int
    space: SearchSpace
    params: dict[str, Any] = field(default_factory=dict)
    budget: int | None = None
    timeout_s: float | None = None
    created_at: str | None = None
    evaluations: tuple[EvaluationRecord, ...] = ()
    incumbents: tuple[IncumbentStep, ...] = ()
    best: EvaluationRecord | None = None
    stats: SearchStats = field(default_factory=SearchStats)
    version: int = MANIFEST_VERSION

    def __post_init__(self) -> None:
        if not isinstance(self.evaluations, tuple):
            object.__setattr__(self, "evaluations", tuple(self.evaluations))
        if not isinstance(self.incumbents, tuple):
            object.__setattr__(self, "incumbents", tuple(self.incumbents))

    def write(self, path: str | Path) -> Path:
        """Serialize to ``path`` as canonical (sorted-key) JSON."""
        path = Path(path)
        path.write_text(self.to_json(sort_keys=True) + "\n")
        return path

    @classmethod
    def read(cls, path: str | Path) -> "SearchManifest":
        """Load a manifest written by :meth:`write`."""
        return cls.from_json(Path(path).read_text())
