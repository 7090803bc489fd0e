"""Scenario context shared between the engine and the policies.

A :class:`ScenarioContext` wraps one :class:`SimulationConfig` with the
derived objects every policy needs — the clairvoyant access stream, the
materialized sample sizes, per-worker frequency counts (built on
request, never retained).

The canonical form of an epoch is its *worker-major matrix*
(:meth:`ScenarioContext.epoch_matrix`): an ``(N, L)`` array whose row
``w`` is worker ``w``'s in-order stream for the epoch. The engine's
kernels operate on this matrix directly; per-worker rows are zero-copy
views of it.

Because the seed fixes every epoch's permutation, any epoch can be
rebuilt from ``(seed, epoch)`` on demand, so the context keeps **at most
one** epoch matrix resident: the one requested last. The engine's
epoch-major loop requests each epoch once and serves every policy from
that one materialization; requesting another epoch replaces it.
"""

from __future__ import annotations

import numpy as np

from ..core import AccessStream
from ..errors import ConfigurationError
from ..rng import generator
from .config import SimulationConfig

__all__ = ["ScenarioContext"]


class ScenarioContext:
    """Derived state for one simulation scenario.

    Parameters
    ----------
    config:
        The simulation configuration (dataset, system, B, E, seed).
    """

    def __init__(self, config: SimulationConfig) -> None:
        self.config = config
        self.stream = AccessStream(config.stream_config)
        self.sizes_mb = config.dataset.sizes_mb()
        self.system = config.system
        #: The resident epoch: ``(epoch, (N, L) matrix)`` of the epoch
        #: requested last, or ``None``.
        self._held: tuple[int, np.ndarray] | None = None
        #: Epoch permutations actually generated (requests served by the
        #: resident slot don't count) — the sharing proof for the
        #: epoch-major engine loop, where this stays at E per run, not
        #: E x policies.
        self.perm_builds = 0
        #: epoch -> read-only (N,) per-worker MB totals (:meth:`worker_mb`).
        self._worker_mb: dict[int, np.ndarray] = {}

    # -- stream access -----------------------------------------------------

    @property
    def num_workers(self) -> int:
        """``N`` — workers in this scenario."""
        return self.system.num_workers

    @property
    def samples_per_worker_per_epoch(self) -> int:
        """``L = T * B`` — per-worker stream length each epoch."""
        return self.config.stream_config.samples_per_worker_per_epoch

    def hold_epoch(self, epoch: int) -> None:
        """Announce that ``epoch`` is next: drop any other resident epoch.

        The engine's epoch-major loop calls this at the top of each
        epoch so the previous epoch's matrix is freed *before* the next
        one is built — two epochs never overlap in memory. It builds
        nothing: an epoch no policy reads (e.g. one every policy
        rewrites through ``stream_fn``) is never materialized.
        """
        if self._held is not None and self._held[0] != epoch:
            self._held = None

    def release_held_epoch(self) -> None:
        """Drop the resident epoch matrix (the epoch-major loop's cleanup)."""
        self._held = None

    @property
    def held_epoch(self) -> int | None:
        """The epoch whose matrix is currently resident, if any."""
        return None if self._held is None else self._held[0]

    def epoch_matrix(self, epoch: int) -> np.ndarray:
        """``(N, L)`` worker-major ids for ``epoch`` (read-only).

        Row ``w`` is worker ``w``'s in-order sample ids — the layout the
        engine's array kernels (:mod:`repro.sim.kernels`) consume. Served
        from the resident slot when it holds ``epoch``; otherwise built
        (counted in :attr:`perm_builds`) and made the resident epoch,
        replacing the previous one.
        """
        held = self._held
        if held is not None and held[0] == epoch:
            return held[1]
        self._held = None  # free the old epoch before building the new one
        self.perm_builds += 1
        batches = self.stream.epoch_batches(epoch)
        t, n, b = batches.shape
        # Read-only: rows of the shared matrix are handed to policies,
        # and an in-place mutation must raise rather than corrupt every
        # later request served from the slot.
        owner = np.ascontiguousarray(batches.transpose(1, 0, 2))
        owner.setflags(write=False)
        matrix = owner.reshape(n, t * b)
        self._held = (epoch, matrix)
        return matrix

    def worker_mb(self, epoch: int) -> np.ndarray:
        """``(N,)`` MB each worker reads in ``epoch`` (memoized, read-only).

        The per-worker byte totals the lower bounds price. Computed
        once per epoch per context, so a bound over a whole policy
        lineup rebuilds no epoch permutation for it.
        """
        totals = self._worker_mb.get(epoch)
        if totals is None:
            totals = self.sizes_mb[self.epoch_matrix(epoch)].sum(axis=1)
            totals.setflags(write=False)
            self._worker_mb[epoch] = totals
        return totals

    def worker_epoch_ids(self, worker: int, epoch: int) -> np.ndarray:
        """Worker ``worker``'s in-order sample ids for ``epoch``.

        A read-only view of the epoch matrix; callers that want to
        reorder ids in place should copy first — writing to the view
        raises.
        """
        return self.epoch_matrix(epoch)[worker]

    # -- frequency analysis -------------------------------------------------

    def worker_frequencies_sparse(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per-worker ``(accessed_ids, counts)`` over all ``E`` epochs.

        The sparse form keeps memory at O(samples actually accessed per
        worker) instead of O(N * F), which matters at Sec 7 scales
        (N=1024). Built afresh on every call from the epoch matrices —
        one horizontal stack plus one ``np.unique`` per worker row — and
        not kept: the table is ~62 MB at Lassen's 1024-GPU scale, and
        its one consumer (NoPFS's prepare) drops it once its placement
        exists, so a prepared lineup never holds it.
        """
        epochs = self.config.num_epochs
        n = self.num_workers
        length = self.samples_per_worker_per_epoch
        first = self.epoch_matrix(0)
        all_ids = np.empty((n, epochs * length), dtype=first.dtype)
        all_ids[:, :length] = first
        for epoch in range(1, epochs):
            all_ids[:, epoch * length : (epoch + 1) * length] = self.epoch_matrix(epoch)
        return [np.unique(all_ids[worker], return_counts=True) for worker in range(n)]

    # -- stream length helpers ----------------------------------------------

    def tiled_epoch_stream(
        self, ids: np.ndarray, worker: int, epoch: int, tag: str
    ) -> np.ndarray:
        """Shuffle ``ids`` deterministically and tile/truncate to ``L``.

        Used by access-order-changing baselines (sharding, DeepIO
        opportunistic): the worker still performs ``T*B`` accesses per
        epoch, drawn (with wraparound) from its private set.
        """
        if ids.size == 0:
            raise ConfigurationError(
                f"worker {worker} has no samples to iterate ({tag})"
            )
        rng = generator(self.config.seed, "policy", tag, worker, epoch)
        shuffled = rng.permutation(ids)
        length = self.samples_per_worker_per_epoch
        if shuffled.size >= length:
            return shuffled[:length]
        reps = -(-length // shuffled.size)
        return np.tile(shuffled, reps)[:length]
