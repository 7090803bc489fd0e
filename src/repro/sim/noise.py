"""Stochastic I/O noise: variance and tail events on fetch times.

The paper's evaluation leans heavily on *tail behaviour*: "PyTorch and
DALI exhibit tail events an order of magnitude larger than NoPFS" and
"reducing tail events where read performance is catastrophically slow
due to system contention" (Sec 7.1). A deterministic fluid model cannot
show any of that, so the simulator multiplies fetch times by seeded,
mean-preserving lognormal noise — heavy for PFS reads under contention,
light for local caches — plus rare catastrophic tail events on the PFS.

All noise flows through the :func:`repro.rng.generator` stream keyed
by ``("noise", epoch, worker)`` (the engine derives those streams'
initial states a band at a time with :func:`repro.rng.generator_states`),
so simulations are exactly reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..config import ConfigMixin
from ..errors import ConfigurationError
from ..perfmodel import Source
from . import kernels

__all__ = [
    "NoiseConfig",
    "SourceBand",
    "SourceEntry",
    "apply_noise",
    "apply_noise_matrix",
    "noise_multipliers",
]


@dataclass(frozen=True)
class NoiseConfig(ConfigMixin):
    """Noise model parameters (all multiplicative on fetch times).

    Attributes
    ----------
    enabled:
        Master switch; ``False`` gives the deterministic fluid model.
    pfs_sigma:
        Lognormal sigma for PFS fetches (mean-preserving).
    pfs_tail_prob:
        Per-sample probability of a catastrophic PFS tail event.
    pfs_tail_scale:
        Fetch-time multiplier applied to tail events ("an order of
        magnitude larger" — default well past 10x).
    remote_sigma:
        Lognormal sigma for remote-worker fetches (network jitter).
    local_sigma:
        Lognormal sigma for local-cache fetches (tiny).
    """

    enabled: bool = True
    pfs_sigma: float = 0.45
    pfs_tail_prob: float = 0.0015
    pfs_tail_scale: float = 20.0
    remote_sigma: float = 0.08
    local_sigma: float = 0.03

    def __post_init__(self) -> None:
        for name in ("pfs_sigma", "remote_sigma", "local_sigma"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be non-negative")
        if not 0.0 <= self.pfs_tail_prob < 1.0:
            raise ConfigurationError("pfs_tail_prob must be in [0, 1)")
        if self.pfs_tail_scale < 1.0:
            raise ConfigurationError("pfs_tail_scale must be >= 1")

    @classmethod
    def disabled(cls) -> "NoiseConfig":
        """The deterministic (noise-free) configuration."""
        return cls(enabled=False)


def _lognormal_mean_one(rng: np.random.Generator, sigma: float, n: int) -> np.ndarray:
    """``n`` lognormal draws with unit mean (``exp(N(-sigma^2/2, sigma))``)."""
    if sigma == 0.0:
        return np.ones(n)
    return rng.lognormal(mean=-0.5 * sigma * sigma, sigma=sigma, size=n)


def apply_noise(
    fetch_times: np.ndarray,
    sources: np.ndarray,
    noise: NoiseConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    """Return fetch times with per-source noise applied (new array).

    PFS fetches get lognormal jitter plus Bernoulli tail events; remote
    and local fetches get progressively lighter jitter; ``Source.NONE``
    entries pass through untouched.
    """
    times = np.asarray(fetch_times, dtype=np.float64)
    if not noise.enabled or times.size == 0:
        return times.copy()
    src = np.asarray(sources)
    out = times.copy()

    pfs = src == int(Source.PFS)
    n_pfs = int(pfs.sum())
    if n_pfs:
        mult = _lognormal_mean_one(rng, noise.pfs_sigma, n_pfs)
        if noise.pfs_tail_prob > 0:
            tails = rng.random(n_pfs) < noise.pfs_tail_prob
            mult = np.where(tails, mult * noise.pfs_tail_scale, mult)
        out[pfs] *= mult

    remote = src == int(Source.REMOTE)
    n_remote = int(remote.sum())
    if n_remote:
        out[remote] *= _lognormal_mean_one(rng, noise.remote_sigma, n_remote)

    local = src == int(Source.LOCAL)
    n_local = int(local.sum())
    if n_local:
        out[local] *= _lognormal_mean_one(rng, noise.local_sigma, n_local)
    return out


class SourceEntry:
    """One distinct source matrix of a row band and what it alone fixes.

    ``sources`` is the band's own read-only copy of the ``(rows, L)``
    source matrix, ``index`` its row-offset
    :func:`~repro.sim.kernels.source_index` and ``counts`` its
    ``(rows, NUM_SOURCES)`` per-worker, per-source counts, all built
    once when the band first meets the matrix. ``shared_bytes`` holds
    the per-worker byte totals over the band's shared size gather once
    a tile reading that gather has needed them (the engine fills it; a
    tile with sizes of its own totals them itself). Noise multipliers
    are drawn per :class:`NoiseConfig` on first request
    (:meth:`multipliers`) and kept.
    """

    def __init__(self, sources: np.ndarray) -> None:
        self.sources = np.array(sources)
        self.index = kernels.source_index(self.sources)
        self.counts = kernels.source_totals(self.index)
        for array in (self.sources, self.index, self.counts):
            array.setflags(write=False)
        self.shared_bytes: np.ndarray | None = None
        #: ``(noise config, read-only multipliers)`` per draw.
        self._drawn: list[tuple[NoiseConfig, np.ndarray]] = []

    def multipliers(
        self, sources: np.ndarray, noise: NoiseConfig, states: Sequence[dict]
    ) -> np.ndarray:
        """The multipliers under ``noise``: drawn once, then reused.

        ``sources`` is the caller's matrix, equal to :attr:`sources`;
        the draw reads it, so a caller's masks are built on its array.
        """
        for drawn_noise, mult in self._drawn:
            if drawn_noise == noise:
                return mult
        mult = noise_multipliers(sources, noise, states, self.counts)
        mult.setflags(write=False)
        self._drawn.append((noise, mult))
        return mult


class SourceBand:
    """One row band's source matrices, each with what it determines.

    A band's ``(rows, L)`` source matrix alone fixes its row-offset
    index, its per-worker counts and — with the band's noise stream
    states — its noise multipliers: the draws are keyed ``("noise",
    epoch, worker)``, never by policy. So the band keeps one
    :class:`SourceEntry` per distinct source matrix, and every lineup
    policy whose band reads each sample from the same source as an
    earlier one (:func:`numpy.array_equal`) reuses that entry instead
    of counting and drawing again. The memo exists with noise disabled
    too; it lives and dies with the band.

    ``states`` holds each band worker's initial PCG64 state (as
    :func:`repro.rng.generator_states` returns them, one per worker in
    band order); empty when nothing in the band draws noise.
    """

    def __init__(self, states: Sequence[dict] = ()) -> None:
        self.states = states
        self._entries: list[SourceEntry] = []

    def entry(self, sources: np.ndarray) -> SourceEntry:
        """The band's entry for ``sources``, made on first sight.

        A matrix the band already holds (an entry's own
        :attr:`~SourceEntry.sources`) is found by identity, so handing
        an entry's matrix back costs no comparison.
        """
        for entry in self._entries:
            if entry.sources is sources:
                return entry
        for entry in self._entries:
            if np.array_equal(entry.sources, sources):
                return entry
        entry = SourceEntry(sources)
        self._entries.append(entry)
        return entry

    def multipliers(self, sources: np.ndarray, noise: NoiseConfig) -> np.ndarray:
        """The band's multipliers for ``sources``: drawn once, then reused."""
        return self.entry(sources).multipliers(sources, noise, self.states)


def apply_noise_matrix(
    fetch_times: np.ndarray,
    sources: np.ndarray,
    noise: NoiseConfig,
    band: SourceBand,
) -> np.ndarray:
    """Noise for a row band: ``(rows, L)`` fetch/source matrices at once.

    Returns a new array: ``fetch_times`` times the band's multiplier
    matrix for ``sources`` (:meth:`SourceBand.multipliers`), drawn by
    :func:`noise_multipliers` on the first call with that source matrix
    and reused on every later one. Results are bitwise identical to
    applying :func:`apply_noise` row by row with each worker's fresh
    ``generator(seed, "noise", epoch, worker)``.
    """
    times = np.asarray(fetch_times, dtype=np.float64)
    if not noise.enabled or times.size == 0:
        return times.copy()
    if len(band.states) != times.shape[0]:
        raise ConfigurationError(
            f"apply_noise_matrix needs one stream state per worker "
            f"({times.shape[0]} workers, {len(band.states)} states)"
        )
    # asanyarray: tests probe the lazy-mask contract with an ndarray
    # subclass that forbids comparisons against absent source codes.
    return times * band.multipliers(np.asanyarray(sources), noise)


def noise_multipliers(
    sources: np.ndarray,
    noise: NoiseConfig,
    states: Sequence[dict],
    counts: np.ndarray,
) -> np.ndarray:
    """Draw a band's ``(rows, L)`` multiplier matrix from its streams.

    Reproducibility pins noise to *per-worker* RNG streams
    (``generator(seed, "noise", epoch, worker)``), so the random draws
    cannot be batched across workers without changing every simulated
    number. ``states`` holds each worker's initial PCG64 state; one
    scratch generator is re-stated to each in turn and draws exactly
    what :func:`apply_noise` drew from that worker's generator, in the
    same order (PFS lognormal, PFS tail uniforms, remote, local) and
    through the same scalar-parameter ``Generator`` calls.

    The per-worker loop only draws. Everything else runs once per
    source after it: the workers' draws are concatenated in worker
    order, the tail events scale the PFS multipliers in one masked
    in-place multiply, and one boolean-mask scatter writes the
    multipliers — a row-major mask visits workers in order, so it
    writes exactly what per-row scatters wrote. ``counts`` are the
    matrix's per-worker per-source counts (its :class:`SourceEntry`'s
    offset bincount, :func:`~repro.sim.kernels.source_totals`), and a
    source's mask is built only if some worker drew for it (all-PFS
    cold epochs never scan for remote/local). ``Source.NONE`` entries
    get exactly 1.0. ``sigma == 0`` sources draw nothing:
    :func:`_lognormal_mean_one` consumes nothing and multiplies by
    exactly 1.0, so skipping them is bitwise neutral (PFS tail events
    still draw their uniforms).
    """
    src = np.asanyarray(sources)
    pfs_code = int(Source.PFS)
    remote_code = int(Source.REMOTE)
    local_code = int(Source.LOCAL)
    pfs_sigma = noise.pfs_sigma
    remote_sigma = noise.remote_sigma
    local_sigma = noise.local_sigma
    pfs_mean = -0.5 * pfs_sigma * pfs_sigma
    remote_mean = -0.5 * remote_sigma * remote_sigma
    local_mean = -0.5 * local_sigma * local_sigma
    tail_prob = noise.pfs_tail_prob

    pfs_counts = counts[:, pfs_code].tolist()
    pfs_draws: list[np.ndarray] = []
    remote_draws: list[np.ndarray] = []
    local_draws: list[np.ndarray] = []
    # Tail uniforms land straight in one buffer (``Generator.random``
    # fills ``out`` exactly as it fills a fresh array).
    tail_uniforms = np.empty(sum(pfs_counts) if tail_prob > 0 else 0)
    tail_start = 0
    rng = np.random.Generator(np.random.PCG64(0))
    bit_generator = rng.bit_generator
    lognormal = rng.lognormal
    uniform = rng.random
    for state, n_pfs, n_remote, n_local in zip(
        states,
        pfs_counts,
        counts[:, remote_code].tolist(),
        counts[:, local_code].tolist(),
    ):
        bit_generator.state = state
        if n_pfs:
            if pfs_sigma > 0:
                pfs_draws.append(lognormal(pfs_mean, pfs_sigma, n_pfs))
            if tail_prob > 0:
                tail_end = tail_start + n_pfs
                uniform(out=tail_uniforms[tail_start:tail_end])
                tail_start = tail_end
        if n_remote and remote_sigma > 0:
            remote_draws.append(lognormal(remote_mean, remote_sigma, n_remote))
        if n_local and local_sigma > 0:
            local_draws.append(lognormal(local_mean, local_sigma, n_local))

    mult = np.ones(src.shape)
    if pfs_draws or tail_uniforms.size:
        if pfs_draws:
            pfs_mult = np.concatenate(pfs_draws)
        else:
            pfs_mult = np.ones(tail_uniforms.size)
        if tail_uniforms.size:
            # In place where the tails fire: the same products as
            # ``np.where(tails, mult * scale, mult)``, minus two
            # full-size temporaries.
            np.multiply(
                pfs_mult,
                noise.pfs_tail_scale,
                out=pfs_mult,
                where=tail_uniforms < tail_prob,
            )
        mult[src == pfs_code] = pfs_mult
    if remote_draws:
        mult[src == remote_code] = np.concatenate(remote_draws)
    if local_draws:
        mult[src == local_code] = np.concatenate(local_draws)
    return mult
