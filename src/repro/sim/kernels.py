"""Pure array kernels for the epoch-matrix simulation engine.

The engine (:mod:`repro.sim.engine`) evaluates each epoch as ``(N, L)``
matrices — ``N`` workers by ``L = T * B`` samples — in row bands,
instead of looping over workers in Python. Every kernel here is a pure
function from matrices to matrices (or to per-worker/per-source
reductions), with no policy or config knowledge; the engine's plan
phase decides *what* to compute, these kernels decide *how fast*.

Bitwise fidelity is a hard contract: each kernel performs exactly the
floating-point operations the seed per-worker loop performed, in the
same per-element order, so :class:`~repro.sim.result.SimulationResult`
JSON — and therefore sweep-cache entry bytes — are unchanged. Where an
accumulation order matters (summing per-worker contributions into one
total), the kernel keeps the seed's sequential worker order rather
than letting numpy's pairwise reduction reassociate it
(:func:`accumulate_rows`).
"""

from __future__ import annotations

import numpy as np

from ..perfmodel import Source

__all__ = [
    "hash01",
    "warmup_available",
    "warmup_remote_classes",
    "batch_totals",
    "pair_index",
    "source_index",
    "source_totals",
    "accumulate_rows",
    "interference_factors",
    "NUM_SOURCES",
]

#: Fetch-source histogram width (PFS / remote / local / none).
NUM_SOURCES = 4

_HASH_MULT = np.uint64(0x9E3779B97F4A7C15)


def hash01(ids: np.ndarray) -> np.ndarray:
    """Deterministic per-sample uniforms in [0, 1) (splitmix-style).

    Elementwise over any shape; the same id always hashes to the same
    uniform, which is what makes the warm-up availability model below
    reproducible without touching an RNG stream.
    """
    with np.errstate(over="ignore"):
        x = ids.astype(np.uint64) * _HASH_MULT
        x ^= x >> np.uint64(31)
        x *= np.uint64(0xFF51AFD7ED558CCD)
        x ^= x >> np.uint64(33)
    return x.astype(np.float64) / float(2**64)


def warmup_available(ids: np.ndarray) -> np.ndarray:
    """Cold-epoch remote availability of an ``(N, L)`` id matrix.

    Tier prefetchers run ahead of consumption, so a sample may already
    sit in its future holder's cache partway through the cold epoch
    ("NoPFS instead fetches samples from remote nodes that have already
    cached them", Sec 7.1). Modelled as: sample ``k`` at stream position
    ``h`` is remotely available once the epoch is ``u_k`` of the way
    through, ``u_k`` a deterministic per-sample uniform (:func:`hash01`).
    PFS contention stays at full cold-epoch level — the holder still
    read the sample from the PFS.

    Returns the ``(N, L)`` bool matrix. It depends on the ids alone, so
    the engine computes it once per band for every policy reading the
    band's clairvoyant stream.
    """
    length = ids.shape[-1]
    progress = np.arange(1, length + 1, dtype=np.float64) / max(length, 1)
    return hash01(ids) < progress


def warmup_remote_classes(
    ids: np.ndarray, best_map: np.ndarray, available: np.ndarray | None = None
) -> np.ndarray:
    """Cold-epoch remote tiers for an ``(N, L)`` id matrix.

    Each sample's fastest remote tier (``best_map``) where it is already
    available (:func:`warmup_available`, or the caller's ``available``
    matrix for the same ids), else ``-1``. Returns an ``(N, L)`` int8
    class matrix.
    """
    if available is None:
        available = warmup_available(ids)
    return np.where(available, best_map[ids], np.int8(-1)).astype(np.int8, copy=False)


def batch_totals(values: np.ndarray, iterations: int, batch_size: int) -> np.ndarray:
    """Per-batch totals: ``(N, L)`` per-sample values to ``(N, T)``.

    Each worker row is viewed as ``(T, B)`` and summed over the batch
    axis — the same contiguous length-``B`` reduction the seed engine
    ran per worker, so the sums are bitwise identical.
    """
    mat = np.ascontiguousarray(values)
    n = mat.shape[0]
    return mat.reshape(n, iterations, batch_size).sum(axis=2)


def pair_index(local: np.ndarray, remote: np.ndarray, num_tiers: int) -> np.ndarray:
    """Each sample's row ``(local+1)*(C+1) + (remote+1)`` in a pair table
    (``-1`` = no tier; ``C`` = ``num_tiers``)."""
    index = local.astype(np.intp)
    index *= num_tiers + 1
    index += remote
    index += num_tiers + 2
    return index


def source_index(sources: np.ndarray) -> np.ndarray:
    """Row-offset codes ``sources + NUM_SOURCES * row``: one index, every
    :func:`source_totals` of an ``(N, L)`` source matrix."""
    index = np.array(sources, dtype=np.intp)
    index += NUM_SOURCES * np.arange(index.shape[0], dtype=np.intp)[:, None]
    return index


def source_totals(index: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
    """Per-worker, per-source totals over a :func:`source_index` matrix.

    One flat ``bincount`` replaces ``N`` per-worker bincounts: entry
    ``[w, s]`` sums ``weights[w]`` (or counts) over the samples worker
    ``w`` fetched from source ``s``, accumulated in stream order exactly
    as the per-worker bincount did.

    Returns ``(N, NUM_SOURCES)`` — float64 with ``weights``, int64
    counts without.
    """
    n = index.shape[0]
    flat_weights = None if weights is None else np.ascontiguousarray(weights).ravel()
    counts = np.bincount(index.ravel(), weights=flat_weights, minlength=NUM_SOURCES * n)
    return counts.reshape(n, NUM_SOURCES)


def accumulate_rows(per_worker: np.ndarray) -> np.ndarray:
    """Sum ``(N, K)`` rows in strict worker order (seed accumulation).

    The seed engine built its per-source totals with ``total += row``
    inside the worker loop; a pairwise ``sum(axis=0)`` could reassociate
    those float additions and perturb the last ulp. ``N`` length-``K``
    adds are cheap, so keep the exact order.
    """
    rows = np.asarray(per_worker)
    total = np.zeros(rows.shape[1], dtype=rows.dtype)
    for row in rows:
        total += row
    return total


def interference_factors(
    source_bytes: np.ndarray, network_interference: float
) -> np.ndarray:
    """Per-worker compute inflation from I/O traffic on the fabric.

    I/O noise on the allreduce path (Sec 7.1): non-local traffic (PFS +
    remote) shares the network/cores with communication and slows the
    compute step down. PFS traffic (cross-fabric + filesystem) weighs
    fully; one-hop remote fetches at half weight.

    ``source_bytes`` is the ``(N, NUM_SOURCES)`` byte histogram from
    :func:`source_totals`; returns ``(N,)`` multiplicative factors
    (``1.0`` for workers that moved no bytes).
    """
    total = source_bytes.sum(axis=1)
    nonlocal_bytes = (
        source_bytes[:, int(Source.PFS)] + 0.5 * source_bytes[:, int(Source.REMOTE)]
    )
    with np.errstate(invalid="ignore", divide="ignore"):
        frac = np.where(total > 0, nonlocal_bytes / np.where(total > 0, total, 1.0), 0.0)
    return 1.0 + network_interference * frac
