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
that one materialization; requesting another epoch replaces it. The
stream-rewriting policies' per-worker shuffle streams are seeded the
same way: one epoch's families at a time (:meth:`tiled_epoch_stream`).

A prepared policy is a pure function of the policy and the context, so
a context can memoize its prepared policies (:meth:`ScenarioContext.prepare`):
the search evaluator's context does, so its lower bounds and its serial
evaluations share one prepare per candidate. A plain context memoizes
nothing. A prepared policy is plain data that never refers back to its
context, and a returned error keeps no traceback, so reference counting
alone frees a context together with its memo.
"""

from __future__ import annotations

import operator
from collections.abc import Iterator, Sequence
from typing import TYPE_CHECKING

import numpy as np

from ..core import AccessStream
from ..errors import ConfigurationError, PolicyError
from ..rng import generator_states
from .config import SimulationConfig

if TYPE_CHECKING:
    from .policies.base import Policy, PreparedPolicy

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
        #: The rewrite-stream families of one epoch:
        #: ``(epoch, {tag: per-worker initial states})``, or ``None``.
        self._families: tuple[int, dict[str, Sequence[dict]]] | None = None
        #: The one generator :meth:`tiled_epoch_stream` re-states per stream.
        self._scratch = np.random.Generator(np.random.PCG64(0))
        #: Prepared policies by policy object (:meth:`prepare`), or
        #: ``None``: a context memoizes only when its owner sets a dict.
        self.prepared: dict[Policy, PreparedPolicy | PolicyError] | None = None

    # -- prepared policies ---------------------------------------------------

    def prepare(self, policy: "Policy") -> "PreparedPolicy | PolicyError":
        """``policy.prepare(self)``, or the :class:`~repro.errors.PolicyError`
        it raised.

        When :attr:`prepared` is a dict the outcome is memoized there,
        keyed by the policy object, and served to every later call for
        that object. The error is returned without its traceback, whose
        frames would tie this context to whoever keeps the error.
        """
        memo = self.prepared
        if memo is not None and policy in memo:
            return memo[policy]
        try:
            outcome = policy.prepare(self)
        except PolicyError as exc:
            outcome = exc.with_traceback(None)
        if memo is not None:
            memo[policy] = outcome
        return outcome

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
        rewrites from its pools) is never materialized. Another
        epoch's rewrite-stream families are dropped with it.
        """
        if self._held is not None and self._held[0] != epoch:
            self._held = None
        if self._families is not None and self._families[0] != epoch:
            self._families = None

    def release_held_epoch(self) -> None:
        """Drop the resident epoch matrix and the rewrite-stream families
        (the epoch-major loop's cleanup)."""
        self._held = None
        self._families = None

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

    def worker_frequencies_sparse(self) -> "FrequencyTable":
        """Per-worker ``(accessed_ids, counts)`` over all ``E`` epochs.

        The sparse form keeps memory at O(samples actually accessed per
        worker) instead of O(N * F), which matters at Sec 7 scales
        (N=1024). Built afresh on every call from the epoch matrices and
        not kept: its one consumer (NoPFS's prepare) drops it once its
        placement exists, so a prepared lineup never holds it.

        Row ``w`` equals ``np.unique(ids_w, return_counts=True)`` over
        worker ``w``'s ``E * L`` ids, computed the way ``np.unique``
        computes it but for every row at once: one in-place
        ``sort(axis=1)`` of the stacked copy and one flag matrix marking
        each row's first occurrence of an id, plus a closing flag past
        its end; a row's ids are its flagged entries and its counts the
        gaps between consecutive flags. The table keeps those two
        matrices and builds a row's arrays when the row is read
        (:class:`FrequencyTable`).
        """
        epochs = self.config.num_epochs
        n = self.num_workers
        length = self.samples_per_worker_per_epoch
        first = self.epoch_matrix(0)
        all_ids = np.empty((n, epochs * length), dtype=first.dtype)
        all_ids[:, :length] = first
        for epoch in range(1, epochs):
            all_ids[:, epoch * length : (epoch + 1) * length] = self.epoch_matrix(epoch)
        all_ids.sort(axis=1)
        width = epochs * length
        flags = np.empty((n, width + 1), dtype=bool)
        flags[:, 0] = flags[:, width] = True
        np.not_equal(all_ids[:, 1:], all_ids[:, :-1], out=flags[:, 1:width])
        return FrequencyTable(all_ids, flags)

    # -- stream length helpers ----------------------------------------------

    def policy_stream_states(self, tag: str, epoch: int) -> Sequence[dict]:
        """Initial PCG64 states of ``generator(seed, "policy", tag, w,
        epoch)`` for every worker ``w``, in one vectorized
        :func:`~repro.rng.generator_states` pass (the worker is a middle
        key word)."""
        return generator_states(self.config.seed, "policy", tag, range(self.num_workers), epoch)

    def tiled_epoch_stream(
        self, ids: np.ndarray, worker: int, epoch: int, tag: str
    ) -> np.ndarray:
        """Shuffle ``ids`` deterministically and tile/truncate to ``L``.

        Used by access-order-changing baselines (sharding, DeepIO
        opportunistic): the worker still performs ``T*B`` accesses per
        epoch, drawn (with wraparound) from its private set.

        The shuffle is ``generator(seed, "policy", tag, worker,
        epoch).permutation(ids)``, bitwise. The ``(tag, epoch)`` family's
        initial states are derived once for all ``N`` workers
        (:meth:`policy_stream_states`), and one scratch generator is
        re-stated to the worker's state per call. The families live as
        long as the resident epoch: :meth:`hold_epoch` of another epoch,
        :meth:`release_held_epoch` or a request for another epoch drops
        them. Not thread-safe: the scratch generator is shared.
        """
        if ids.size == 0:
            raise ConfigurationError(
                f"worker {worker} has no samples to iterate ({tag})"
            )
        if self._families is None or self._families[0] != epoch:
            self._families = (epoch, {})
        families = self._families[1]
        states = families.get(tag)
        if states is None:
            states = families[tag] = self.policy_stream_states(tag, epoch)
        rng = self._scratch
        rng.bit_generator.state = states[worker]
        shuffled = rng.permutation(ids)
        length = self.samples_per_worker_per_epoch
        if shuffled.size >= length:
            return shuffled[:length]
        reps = -(-length // shuffled.size)
        return np.tile(shuffled, reps)[:length]


class FrequencyTable(Sequence):
    """:meth:`ScenarioContext.worker_frequencies_sparse`'s rows, built on read.

    Holds each worker's sorted ``E * L`` ids and their first-occurrence
    flags; reading row ``w`` gathers its distinct ids and counts. At
    ``lassen:1024`` on full ImageNet-1k (E=3) the two matrices are
    ~34 MB, and every row's arrays would be ~62 MB more. NoPFS's
    prepare reads each row once and keeps only the placement it ranks
    from it, so one row's arrays at a time are alive.
    """

    def __init__(self, sorted_ids: np.ndarray, flags: np.ndarray) -> None:
        self._ids = sorted_ids
        self._flags = flags

    def __len__(self) -> int:
        return len(self._ids)

    def __getitem__(self, worker: int) -> tuple[np.ndarray, np.ndarray]:
        worker = operator.index(worker)
        bounds = np.flatnonzero(self._flags[worker])
        return self._ids[worker][bounds[:-1]], bounds[1:] - bounds[:-1]

    def __iter__(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        return (self[worker] for worker in range(len(self)))
