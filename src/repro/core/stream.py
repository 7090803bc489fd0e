"""Per-worker access streams ``R`` derived from the epoch shuffles.

This module implements the paper's data-parallel access-pattern
formalism (Sec 4): at iteration ``h`` the global batch ``B_h`` is the
``h``-th slice of the epoch's permutation, and ``B_h`` is partitioned
among the ``N`` workers, worker ``i`` receiving the ``i``-th contiguous
block of ``B`` samples. A worker's access stream is the concatenation of
its per-batch blocks across iterations and epochs:

``R = (B^{1,i}_1, ..., B^{1,i}_b, B^{2,i}_1, ...)``

Everything is a pure function of ``(seed, F, N, B, E)`` — this is the
clairvoyance the rest of the library consumes. Key invariants (enforced
by the test suite, and by construction):

* within one epoch, every sample index appears **exactly once** across
  all workers (minus the dropped tail when ``drop_last``);
* worker streams are pairwise disjoint within an epoch;
* the same configuration always yields the same streams.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import ConfigMixin
from ..errors import ConfigurationError
from .shuffle import EpochShuffler

__all__ = ["StreamConfig", "AccessStream"]


@dataclass(frozen=True)
class StreamConfig(ConfigMixin):
    """Parameters that fully determine every worker's access stream.

    Attributes
    ----------
    seed:
        Root shuffle seed (shared by all workers — the clairvoyance key).
    num_samples:
        Dataset size ``F``.
    num_workers:
        ``N`` — data-parallel workers; each global batch is split N ways.
    batch_size:
        ``B`` — *per-worker* batch size (the paper's per-GPU batch size).
    num_epochs:
        ``E`` — training epochs.
    drop_last:
        Drop the ragged final global batch (the paper's ``floor(F/B)``
        iteration count); if ``False`` the tail forms a short batch.
    """

    seed: int
    num_samples: int
    num_workers: int
    batch_size: int
    num_epochs: int
    drop_last: bool = True

    def __post_init__(self) -> None:
        if self.num_samples <= 0:
            raise ConfigurationError("num_samples must be positive")
        if self.num_workers <= 0:
            raise ConfigurationError("num_workers must be positive")
        if self.batch_size <= 0:
            raise ConfigurationError("batch_size must be positive")
        if self.num_epochs <= 0:
            raise ConfigurationError("num_epochs must be positive")
        if self.global_batch > self.num_samples:
            raise ConfigurationError(
                f"global batch {self.global_batch} exceeds dataset size "
                f"{self.num_samples}: no complete iteration exists"
            )

    @property
    def global_batch(self) -> int:
        """Global mini-batch size ``N * B``."""
        return self.num_workers * self.batch_size

    @property
    def iterations_per_epoch(self) -> int:
        """``T`` — complete iterations per epoch (``floor(F / NB)``)."""
        return self.num_samples // self.global_batch

    @property
    def samples_per_worker_per_epoch(self) -> int:
        """Length of one worker's per-epoch stream (``T * B`` if dropping)."""
        return self.iterations_per_epoch * self.batch_size

    @property
    def dropped_per_epoch(self) -> int:
        """Samples skipped each epoch when ``drop_last`` (the ragged tail)."""
        if not self.drop_last:
            return 0
        return self.num_samples - self.iterations_per_epoch * self.global_batch


class AccessStream:
    """Clairvoyant access streams for every worker under a config.

    This is the library's oracle: given only the :class:`StreamConfig`
    (in particular the seed), it produces the exact sequence of sample
    indices each worker will request, arbitrarily far into the future.
    """

    def __init__(self, config: StreamConfig) -> None:
        self._config = config
        self._shuffler = EpochShuffler(config.seed, config.num_samples)

    @property
    def config(self) -> StreamConfig:
        """The generating configuration."""
        return self._config

    @property
    def shuffler(self) -> EpochShuffler:
        """The underlying epoch shuffler (shared-seed PRNG)."""
        return self._shuffler

    # -- epoch-level views ----------------------------------------------

    def epoch_batches(self, epoch: int) -> np.ndarray:
        """Complete batches of ``epoch`` as an ``(T, N, B)`` array.

        ``out[h, i]`` is worker ``i``'s block of global batch ``h``. The
        dropped tail (if any) is excluded; see :meth:`epoch_tail`.
        """
        return self._epoch_split(epoch)[0]

    def epoch_tail(self, epoch: int) -> np.ndarray:
        """The ragged final samples of ``epoch`` (empty when none)."""
        return self._epoch_split(epoch)[1]

    def worker_epoch_stream(self, worker: int, epoch: int) -> np.ndarray:
        """Worker ``worker``'s access sequence within ``epoch`` (1-D).

        With ``drop_last`` this has length ``T * B``; otherwise the
        worker's share of the tail batch is appended (workers split the
        tail in rank order, earlier ranks possibly receiving one extra
        sample). The epoch's permutation is drawn once for both parts.
        """
        self._check_worker(worker)
        cfg = self._config
        batches, tail = self._epoch_split(epoch)
        stream = batches[:, worker, :].reshape(-1)
        if not cfg.drop_last and tail.size:
            share = np.array_split(tail, cfg.num_workers)[worker]
            stream = np.concatenate([stream, share])
        return stream

    def worker_stream(self, worker: int, num_epochs: int | None = None) -> np.ndarray:
        """Worker's full multi-epoch access stream ``R`` (concatenated)."""
        epochs = self._config.num_epochs if num_epochs is None else num_epochs
        parts = [self.worker_epoch_stream(worker, e) for e in range(epochs)]
        return np.concatenate(parts) if len(parts) > 1 else parts[0]

    def epoch_assignment(self, epoch: int) -> np.ndarray:
        """Owner worker of every sample in ``epoch`` (shape ``(F,)``).

        ``out[k]`` is the worker that consumes sample ``k`` this epoch, or
        ``-1`` if the sample falls in a dropped tail. Useful for bulk
        frequency analyses without materializing per-worker streams.
        """
        cfg = self._config
        perm = self._shuffler.permutation(epoch)
        used = cfg.iterations_per_epoch * cfg.global_batch
        owner_of_position = np.full(cfg.num_samples, -1, dtype=np.int32)
        positions = np.arange(used, dtype=np.int64)
        owner_of_position[:used] = (positions % cfg.global_batch) // cfg.batch_size
        if not cfg.drop_last and used < cfg.num_samples:
            tail_len = cfg.num_samples - used
            bounds = np.linspace(0, tail_len, cfg.num_workers + 1).astype(np.int64)
            tail_owner = np.repeat(
                np.arange(cfg.num_workers, dtype=np.int32), np.diff(bounds)
            )
            owner_of_position[used:] = tail_owner
        assignment = np.empty(cfg.num_samples, dtype=np.int32)
        assignment[perm] = owner_of_position
        return assignment

    # -- frequency views --------------------------------------------------

    def worker_frequencies(self, worker: int, num_epochs: int | None = None) -> np.ndarray:
        """Access count of every sample by one worker over ``E`` epochs.

        Shape ``(F,)``, dtype int64. This is the empirical realization of
        the paper's ``X ~ Binomial(E, 1/N)`` per-sample access frequency
        (Sec 3.1 / Fig 3).
        """
        self._check_worker(worker)
        epochs = self._config.num_epochs if num_epochs is None else num_epochs
        counts = np.zeros(self._config.num_samples, dtype=np.int64)
        for epoch in range(epochs):
            ids = self.worker_epoch_stream(worker, epoch)
            counts += np.bincount(ids, minlength=self._config.num_samples)
        return counts

    def all_frequencies(self, num_epochs: int | None = None) -> np.ndarray:
        """Access counts for *all* workers, shape ``(N, F)``.

        Memory scales as ``N * F``; intended for analysis-scale configs.
        Large-``N`` simulation code iterates epoch reshapes instead. Each
        epoch's permutation is drawn once for the batches and the tail.
        """
        cfg = self._config
        epochs = cfg.num_epochs if num_epochs is None else num_epochs
        counts = np.zeros((cfg.num_workers, cfg.num_samples), dtype=np.int64)
        for epoch in range(epochs):
            batches, tail = self._epoch_split(epoch)  # (T, N, B), ragged
            for worker in range(cfg.num_workers):
                ids = batches[:, worker, :].reshape(-1)
                counts[worker] += np.bincount(ids, minlength=cfg.num_samples)
            if not cfg.drop_last and tail.size:
                for worker, share in enumerate(np.array_split(tail, cfg.num_workers)):
                    counts[worker] += np.bincount(share, minlength=cfg.num_samples)
        return counts

    # -- helpers ----------------------------------------------------------

    def _epoch_split(self, epoch: int) -> tuple[np.ndarray, np.ndarray]:
        """``(batches, tail)`` of ``epoch``: views of one permutation."""
        cfg = self._config
        perm = self._shuffler.permutation(epoch)
        used = cfg.iterations_per_epoch * cfg.global_batch
        batches = perm[:used].reshape(cfg.iterations_per_epoch, cfg.num_workers, cfg.batch_size)
        return batches, perm[used:]

    def _check_worker(self, worker: int) -> None:
        if not 0 <= worker < self._config.num_workers:
            raise ConfigurationError(
                f"worker {worker} out of range [0, {self._config.num_workers})"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"AccessStream({self._config!r})"
