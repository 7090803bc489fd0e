"""Policy interface and Table 1 capability metadata.

Every I/O strategy the paper simulates (Sec 6) is a :class:`Policy`:
given a :class:`~repro.sim.context.ScenarioContext` it *prepares* a
:class:`PreparedPolicy` describing its cache placement, prestaging cost,
stream rewriting and PFS usage; the engine then times every epoch under
that description.

``capabilities`` carries the Table 1 row for the framework each policy
models, so the capability matrix is regenerated from code rather than
transcribed.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ...core import CachePlan
from ..context import ScenarioContext

if TYPE_CHECKING:
    from ..scalars import PlanScalars

__all__ = ["PolicyCapabilities", "PreparedPolicy", "Policy", "WorkerLookup"]


@dataclass(frozen=True)
class PolicyCapabilities:
    """One row of the paper's Table 1."""

    system_scalability: bool
    dataset_scalability: bool
    full_randomization: bool
    hardware_independence: bool
    ease_of_use: bool

    def as_row(self) -> tuple[str, ...]:
        """Check/cross marks in Table 1 column order."""
        mark = lambda b: "yes" if b else "no"
        return (
            mark(self.system_scalability),
            mark(self.dataset_scalability),
            mark(self.full_randomization),
            mark(self.hardware_independence),
            mark(self.ease_of_use),
        )


class WorkerLookup:
    """One worker's cached ids per tier, shared with its placement.

    ``class_ids[k]`` holds the ids cached in tier ``k`` (fastest first):
    the placement's own arrays, not copies, so a prepared policy holds
    each cached id once. :meth:`PreparedPolicy.classes_matrix` scatters
    them tier by tier into a scratch map; :meth:`classes_of`
    binary-searches a sorted copy it builds on first use.
    """

    def __init__(self, class_ids: tuple[np.ndarray, ...]) -> None:
        self.class_ids = tuple(np.asarray(ids, dtype=np.int64) for ids in class_ids)
        self._sorted: tuple[np.ndarray, np.ndarray] | None = None

    def classes_of(self, query_ids: np.ndarray) -> np.ndarray:
        """Cache tier of each queried id (``-1`` when not cached)."""
        query = np.asarray(query_ids)
        if self._sorted is None:
            ids = np.concatenate(self.class_ids or (np.empty(0, dtype=np.int64),))
            labels = np.repeat(
                np.arange(len(self.class_ids), dtype=np.int8),
                [part.size for part in self.class_ids],
            )
            order = np.argsort(ids, kind="stable")
            self._sorted = (ids[order], labels[order])
        ids, labels = self._sorted
        if ids.size == 0:
            return np.full(query.shape, -1, dtype=np.int8)
        pos = np.searchsorted(ids, query)
        pos_clipped = np.minimum(pos, ids.size - 1)
        hit = ids[pos_clipped] == query
        out = np.where(hit, labels[pos_clipped], np.int8(-1))
        return out.astype(np.int8, copy=False)


@dataclass
class PreparedPolicy:
    """A policy instantiated for one scenario, ready to be timed.

    Attributes
    ----------
    name:
        Policy name (for results).
    plan:
        Cache placement active from epoch ``warm_epochs`` on (``None``
        for cacheless policies).
    warm_epochs:
        Epochs before the placement becomes usable. First-touch policies
        use 1 (caches fill during epoch 0, every fetch is cold);
        prestaged policies use 0 and pay ``prestage_time_s`` up front.
    overlap:
        ``False`` models a fully synchronous loader (Naive): reads
        serialize with compute instead of overlapping.
    pfs_in_warm:
        Whether warm epochs may still hit the PFS (uncached samples).
        Policies that "never access the PFS" after staging set False.
    warm_pfs_fraction:
        Byte fraction fetched from the PFS in warm epochs, if the policy
        knows it up front (stream rewriters); ``None`` lets the engine
        derive it from the placement's coverage.
    prestage_time_s:
        Upfront staging cost before epoch 0 (sharding, preloading).
    accesses_full_dataset:
        ``False`` when the policy skips samples (the paper's "Does not
        access entire dataset" annotations in Fig 8d/e).
    lookahead_batches:
        Prefetch depth in batches; ``None`` derives it from the staging
        buffer capacity (NoPFS-style deep buffers). Double-buffering
        loaders use small fixed values (PyTorch: 2).
    pools:
        Per-worker sample-id arrays that replace the clairvoyant stream,
        set by policies that change the access order: in a rewritten
        epoch (a warm one, or any when ``warm_epochs`` is 0) worker
        ``w`` reads ``ctx.tiled_epoch_stream(pools[w], w, epoch, name)``.
        Plain arrays the policy already holds (typically its
        placement's), so a prepared policy never refers to its context.
    ideal:
        Perfect/no-I/O baseline: skip fetching entirely.
    scalars:
        The policy's epoch-invariant plan scalars
        (:func:`~repro.sim.scalars.plan_scalars`), filled by the engine
        on the policy's first ``plan_epoch`` so they live exactly as
        long as the policy.
    """

    name: str
    plan: CachePlan | None = None
    warm_epochs: int = 1
    overlap: bool = True
    pfs_in_warm: bool = True
    warm_pfs_fraction: float | None = None
    prestage_time_s: float = 0.0
    accesses_full_dataset: bool = True
    lookahead_batches: int | None = None
    pools: list[np.ndarray] | None = None
    ideal: bool = False
    lookups: list[WorkerLookup] = field(default_factory=list)
    best_map: np.ndarray | None = None
    scalars: "PlanScalars | None" = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.plan is not None and not self.lookups:
            self.lookups = [
                WorkerLookup(p.class_ids) for p in self.plan.placements
            ]
            self.best_map = self.plan.best_class_map()

    # -- batched lookups (epoch-matrix engine) -------------------------------

    def classes_matrix(
        self, ids_matrix: np.ndarray, worker_offset: int = 0
    ) -> np.ndarray:
        """Local cache tier for every sample of a worker-major id matrix.

        Row ``i`` equals ``lookups[worker_offset + i].classes_of(row)``
        (``-1`` = not cached): the worker's tiers are scattered into a
        per-call int8 scratch map of length ``F``, tier by tier in
        order (placement ids are unique per worker), the row gathered,
        the map reset — O(cached + L) per row.

        ``worker_offset`` lets the engine's streaming tiles (a
        contiguous row band of the full ``(N, L)`` matrix) resolve
        against the right workers' caches.
        """
        ids = np.asarray(ids_matrix)
        if not self.lookups:
            return np.full(ids.shape, -1, dtype=np.int8)
        out = np.empty(ids.shape, dtype=np.int8)
        scratch = np.full(self.plan.num_samples, -1, dtype=np.int8)
        lookups = self.lookups[worker_offset : worker_offset + ids.shape[0]]
        for row, row_ids, lookup in zip(out, ids, lookups, strict=True):
            for label, class_ids in enumerate(lookup.class_ids):
                scratch[class_ids] = label
            np.take(scratch, row_ids, out=row)
            for class_ids in lookup.class_ids:
                scratch[class_ids] = -1
        return out

    def remote_classes_matrix(self, ids_matrix: np.ndarray) -> np.ndarray:
        """Fastest remote tier for every sample of an ``(N, L)`` id matrix.

        A single vectorized gather through :attr:`best_map` (``-1`` =
        cached nowhere); entries equal to the local tier are harmless —
        the local path always wins the fetch resolution.
        """
        ids = np.asarray(ids_matrix)
        if self.best_map is None:
            return np.full(ids.shape, -1, dtype=np.int8)
        return self.best_map[ids]


class Policy(abc.ABC):
    """An I/O strategy the simulator can evaluate."""

    #: Machine-readable policy name (result keys, CLI).
    name: str = "abstract"
    #: Human-readable name as used in the paper's figures.
    display_name: str = "Abstract"
    #: Table 1 row, when the policy corresponds to one.
    capabilities: PolicyCapabilities | None = None

    @abc.abstractmethod
    def prepare(self, ctx: ScenarioContext) -> PreparedPolicy:
        """Instantiate this policy for a scenario.

        May raise :class:`~repro.errors.PolicyError` when the scenario is
        unsupported (e.g. LBANN with a dataset exceeding aggregate RAM).
        """

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"
