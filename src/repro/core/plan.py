"""Cache-placement plans: mapping samples to workers' storage classes.

The NoPFS placement rule (Sec 5.1): "A worker fetches samples with the
largest ``r_k`` [its own access frequency for sample ``k``] to its
fastest storage class, and so on for slower classes until either it has
cached the entire dataset or filled its local storage."

:class:`CachePlan` is the shared representation consumed by both the
performance simulator (:mod:`repro.sim`) and the functional runtime
(:mod:`repro.runtime`): for each worker, which sample ids live in which
storage class. Storage classes are indexed **fastest first** (index 0 is
the fastest *cache* class — the staging buffer is not a cache target and
is excluded).

The frequency-ranked builder breaks ties with a deterministic per-worker
hash jitter so that equally-hot samples spread across workers instead of
all workers caching the same low-index samples; this realizes the
paper's "samples should be well-distributed among workers" conclusion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError

__all__ = [
    "WorkerPlacement",
    "CachePlan",
    "frequency_placement",
    "frequency_placement_sparse",
    "partition_placement",
]

_HASH_MULT = np.uint64(2654435761)
_WORKER_SALT = np.uint64(0x9E3779B97F4A7C15)


def _tie_jitter(ids: np.ndarray, worker: int) -> np.ndarray:
    """Deterministic per-(sample, worker) jitter in [0, 2**64) for tie-breaks.

    For a fixed worker the map is a bijection on uint64: multiplying by
    an odd constant, xoring a constant and ``x ^= x >> 33`` (a shift of
    at least half the word) are each invertible, so distinct ids get
    distinct jitters (what keeps :func:`_rank` on its one-sort path).
    """
    salt = np.uint64(((worker + 1) * int(_WORKER_SALT)) & 0xFFFFFFFFFFFFFFFF)
    with np.errstate(over="ignore"):
        x = ids.astype(np.uint64) * _HASH_MULT
        x ^= salt
        x ^= x >> np.uint64(33)
        x *= np.uint64(0xFF51AFD7ED558CCD)
        x ^= x >> np.uint64(33)
    return x


def _rank(counts: np.ndarray, jitter: np.ndarray) -> np.ndarray:
    """Indices ranking samples by descending count, ties by ascending jitter.

    Always equal to ``np.lexsort((jitter, -counts))``, in one sort of
    packed uint64 keys: from the top, the count level ``max - count``
    (``b`` bits), the jitter's top ``64 - b - i`` bits and the index
    (``i`` bits). Keys sort by (level, jitter prefix, index); where no
    two samples share a (level, jitter prefix), that order is strict and
    agrees with (level, jitter), which is the lexsort's order. The jitter
    is a bijection of the id (:func:`_tie_jitter`), so distinct ids
    share a prefix only by truncation: for a Lassen 1024-GPU worker
    (~3,744 samples, 3 levels: 50 prefix bits) the chance is ~6e-9. A
    shared prefix (adjacent after the sort), duplicate ids, non-integer
    counts or fewer than 32 prefix bits keep the lexsort.
    """
    if counts.dtype.kind == "i":
        low, high = int(counts.min()), int(counts.max())
        level_bits = (high - low).bit_length()
        index_bits = max((counts.size - 1).bit_length(), 1)
        prefix_bits = 64 - level_bits - index_bits
        # ``low`` above the dtype's minimum: ``-counts`` cannot wrap.
        if prefix_bits >= 32 and low > np.iinfo(counts.dtype).min:
            keys = jitter >> (level_bits + index_bits)
            keys <<= index_bits
            keys |= np.arange(counts.size, dtype=np.uint64)
            if level_bits:
                level = (high - counts.astype(np.int64)).astype(np.uint64)
                level <<= 64 - level_bits
                keys |= level
            keys.sort()
            prefixes = keys >> index_bits
            if not (prefixes[1:] == prefixes[:-1]).any():
                keys &= (1 << index_bits) - 1
                return keys.astype(np.intp)
    return np.lexsort((jitter, -counts))


@dataclass(frozen=True)
class WorkerPlacement:
    """The sample ids one worker caches, per storage class (fastest first)."""

    worker: int
    class_ids: tuple[np.ndarray, ...]

    @property
    def cached_ids(self) -> np.ndarray:
        """All sample ids this worker caches (concatenated across classes)."""
        if not self.class_ids:
            return np.empty(0, dtype=np.int64)
        return np.concatenate([np.asarray(c, dtype=np.int64) for c in self.class_ids])

    def cached_bytes(self, sizes_mb: np.ndarray) -> float:
        """Total MB this worker caches under ``sizes_mb``."""
        ids = self.cached_ids
        return float(np.asarray(sizes_mb)[ids].sum()) if ids.size else 0.0


class CachePlan:
    """Placement of samples into every worker's cache hierarchy.

    Parameters
    ----------
    placements:
        One :class:`WorkerPlacement` per worker, rank order.
    num_samples:
        Dataset size ``F`` (bounds the id space).
    num_classes:
        Number of cache storage classes (placements may use fewer).
    """

    def __init__(
        self,
        placements: list[WorkerPlacement],
        num_samples: int,
        num_classes: int,
    ) -> None:
        if num_samples <= 0:
            raise ConfigurationError("num_samples must be positive")
        if num_classes < 0:
            raise ConfigurationError("num_classes must be non-negative")
        for p in placements:
            if len(p.class_ids) > num_classes:
                raise ConfigurationError(
                    f"worker {p.worker} places into {len(p.class_ids)} classes, "
                    f"plan only has {num_classes}"
                )
        self._placements = list(placements)
        self._num_samples = int(num_samples)
        self._num_classes = int(num_classes)
        self._best_remote: np.ndarray | None = None
        self._holders: np.ndarray | None = None

    @property
    def num_workers(self) -> int:
        """Number of workers covered by the plan."""
        return len(self._placements)

    @property
    def num_samples(self) -> int:
        """Dataset size ``F``."""
        return self._num_samples

    @property
    def num_classes(self) -> int:
        """Number of cache storage classes."""
        return self._num_classes

    @property
    def placements(self) -> list[WorkerPlacement]:
        """Per-worker placements (rank order)."""
        return self._placements

    def local_class_map(self, worker: int) -> np.ndarray:
        """Class index caching each sample on ``worker`` (``-1`` = not cached).

        Shape ``(F,)``, dtype int8. Built on demand; callers in hot loops
        should hold onto the result rather than re-requesting it.
        """
        placement = self._placements[worker]
        out = np.full(self._num_samples, -1, dtype=np.int8)
        # Fill slowest-first so that if an id were (incorrectly) placed in
        # two classes the fastest one wins.
        for class_idx in range(len(placement.class_ids) - 1, -1, -1):
            ids = placement.class_ids[class_idx]
            if len(ids):
                out[np.asarray(ids)] = class_idx
        return out

    def best_class_map(self) -> np.ndarray:
        """Fastest class holding each sample on *any* worker (``-1`` = none).

        This is what lets every worker — which knows everyone's stream and
        hence everyone's placement — decide the cheapest remote source
        without extra metadata traffic (Sec 5.2.2). Fastest class written last.
        """
        if self._best_remote is None:
            best = np.full(self._num_samples, -1, dtype=np.int8)
            for class_idx in range(self._num_classes - 1, -1, -1):
                best[self._ids(class_idx)] = class_idx
            self._best_remote = best
        return self._best_remote

    def holder_counts(self) -> np.ndarray:
        """Number of workers caching each sample (shape ``(F,)``; one ``bincount``)."""
        if self._holders is None:
            counts = np.bincount(self._ids(None), minlength=self._num_samples)
            self._holders = counts.astype(np.int32)
        return self._holders

    def _ids(self, class_idx: int | None) -> np.ndarray:
        """Every worker's ids in one class (``None`` = all classes)."""
        parts = [
            np.asarray(ids, dtype=np.int64)
            for p in self._placements
            for k, ids in enumerate(p.class_ids)
            if class_idx in (None, k)
        ]
        return np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)

    def coverage_fraction(self) -> float:
        """Fraction of the dataset cached by at least one worker."""
        return float((self.holder_counts() > 0).mean())


def frequency_placement(
    frequencies: np.ndarray,
    sizes_mb: np.ndarray,
    capacities_mb: list[float],
    worker: int,
) -> WorkerPlacement:
    """NoPFS placement for one worker: hottest samples to fastest classes.

    Parameters
    ----------
    frequencies:
        The worker's per-sample access counts, shape ``(F,)``.
    sizes_mb:
        Per-sample sizes in MB, shape ``(F,)``.
    capacities_mb:
        Capacity of each cache class in MB, fastest first.
    worker:
        Worker rank (used only for the deterministic tie-break jitter).

    Samples with zero frequency are never cached (the worker will never
    read them, so caching them wastes capacity). A sample that does not
    fit in the remaining space of a class spills to the next class.
    """
    freqs = np.asarray(frequencies)
    sizes = np.asarray(sizes_mb, dtype=np.float64)
    if freqs.shape != sizes.shape:
        raise ConfigurationError("frequencies and sizes must have equal shape")
    accessed = np.nonzero(freqs > 0)[0]
    return frequency_placement_sparse(
        accessed, freqs[accessed], sizes[accessed], capacities_mb, worker
    )


def frequency_placement_sparse(
    accessed_ids: np.ndarray,
    counts: np.ndarray,
    sizes_of_accessed_mb: np.ndarray,
    capacities_mb: list[float],
    worker: int,
) -> WorkerPlacement:
    """NoPFS placement from a sparse ``(ids, counts)`` frequency view.

    Identical semantics to :func:`frequency_placement`, but memory and
    time scale with the number of samples the worker actually accesses
    rather than with ``F`` — essential at large worker counts, where
    each worker touches only ``~ E*F/N`` distinct samples.
    """
    accessed = np.asarray(accessed_ids, dtype=np.int64)
    counts = np.asarray(counts)
    sizes = np.asarray(sizes_of_accessed_mb, dtype=np.float64)
    if not (accessed.shape == counts.shape == sizes.shape):
        raise ConfigurationError("ids/counts/sizes must have equal shape")
    if accessed.size == 0 or not capacities_mb:
        return WorkerPlacement(
            worker, tuple(np.empty(0, dtype=np.int64) for _ in capacities_mb)
        )
    order_idx = _rank(counts, _tie_jitter(accessed, worker))
    order = accessed[order_idx]
    cum = np.cumsum(sizes[order_idx])
    class_ids: list[np.ndarray] = []
    start = 0
    for capacity in capacities_mb:
        if capacity <= 0 or start >= order.size:
            class_ids.append(np.empty(0, dtype=np.int64))
            continue
        # Largest prefix of the remaining ranked list fitting this class:
        # base is the MB already consumed by faster classes, so a sample
        # straddling the boundary spills to the next class and this class
        # never exceeds its own capacity.
        base = float(cum[start - 1]) if start > 0 else 0.0
        end = int(np.searchsorted(cum, base + float(capacity), side="right"))
        class_ids.append(order[start:end].astype(np.int64, copy=False))
        start = end
    return WorkerPlacement(worker, tuple(class_ids))


def partition_placement(
    shard_ids: np.ndarray,
    sizes_mb: np.ndarray,
    capacities_mb: list[float],
    worker: int,
) -> WorkerPlacement:
    """Placement for sharding-style policies: a fixed id set, fastest-first.

    Used by the ParallelStaging / DeepIO / LBANN baselines, which assign
    each worker a shard (or first-touch set) rather than ranking by
    frequency. Ids beyond the total capacity are simply not cached.
    """
    ids = np.asarray(shard_ids, dtype=np.int64)
    sizes = np.asarray(sizes_mb, dtype=np.float64)
    class_ids: list[np.ndarray] = []
    start = 0
    if ids.size:
        cum = np.cumsum(sizes[ids])
        for capacity in capacities_mb:
            if capacity <= 0 or start >= ids.size:
                class_ids.append(np.empty(0, dtype=np.int64))
                continue
            base = float(cum[start - 1]) if start > 0 else 0.0
            end = int(np.searchsorted(cum, base + float(capacity), side="right"))
            class_ids.append(ids[start:end])
            start = end
    else:
        class_ids = [np.empty(0, dtype=np.int64) for _ in capacities_mb]
    return WorkerPlacement(worker, tuple(class_ids))
