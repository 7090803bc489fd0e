"""Stochastic I/O noise: variance and tail events on fetch times.

The paper's evaluation leans heavily on *tail behaviour*: "PyTorch and
DALI exhibit tail events an order of magnitude larger than NoPFS" and
"reducing tail events where read performance is catastrophically slow
due to system contention" (Sec 7.1). A deterministic fluid model cannot
show any of that, so the simulator multiplies fetch times by seeded,
mean-preserving lognormal noise — heavy for PFS reads under contention,
light for local caches — plus rare catastrophic tail events on the PFS.

All noise flows through :func:`repro.rng.generator` keyed by
``(worker, epoch)``, so simulations are exactly reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..config import ConfigMixin
from ..errors import ConfigurationError
from ..perfmodel import Source
from . import kernels

__all__ = ["NoiseConfig", "apply_noise", "apply_noise_matrix"]


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


def _fused_unit_lognormals(
    rng: np.random.Generator, segments: Sequence[tuple[float, int]]
) -> list[np.ndarray]:
    """Draws for consecutive unit-mean lognormal segments, fused.

    ``segments`` is ``[(sigma, count), ...]`` with every sigma > 0 and
    count > 0. A single broadcast ``Generator.lognormal`` over
    per-element mean/sigma arrays consumes one standard normal per
    element and runs each through the same scalar ``exp`` the
    scalar-parameter call uses, so the fused draws are bitwise
    identical to issuing one ``lognormal(mean, sigma, size)`` call per
    segment — the sequence :func:`apply_noise` makes. (Rewriting the
    draw as ``np.exp(mean + sigma * standard_normal(...))`` would
    *not* be: numpy's vectorized ``np.exp`` differs from the
    distribution code's libm ``exp`` by 1 ulp on a few permille of
    values.) Single segments keep the cheaper scalar-parameter call.
    """
    if len(segments) == 1:
        sigma, count = segments[0]
        return [rng.lognormal(mean=-0.5 * sigma * sigma, sigma=sigma, size=count)]
    sig = np.repeat(
        [sigma for sigma, _ in segments], [count for _, count in segments]
    )
    draws = rng.lognormal(mean=-0.5 * sig * sig, sigma=sig)
    out: list[np.ndarray] = []
    start = 0
    for _, count in segments:
        out.append(draws[start : start + count])
        start += count
    return out


def apply_noise_matrix(
    fetch_times: np.ndarray,
    sources: np.ndarray,
    noise: NoiseConfig,
    rngs: Sequence[np.random.Generator],
    counts: np.ndarray | None = None,
) -> np.ndarray:
    """Noise for a whole epoch: ``(N, L)`` fetch/source matrices at once.

    Reproducibility pins noise to *per-worker* RNG streams
    (``generator(seed, "noise", epoch, worker)``), so the random draws
    cannot be batched across workers without changing every simulated
    number. This kernel therefore separates the two halves: the source
    masks, multiplier scatter and final multiply are whole-matrix
    operations, while each worker's draws come from its own generator in
    ``rngs`` — in exactly the order :func:`apply_noise` consumed them
    (PFS lognormal, PFS tail Bernoulli, remote, local). Results are
    bitwise identical to applying :func:`apply_noise` row by row.

    Three fast paths keep the per-worker loop lean without touching the
    stream: per-worker per-source ``counts`` come from one offset-bincount
    (:func:`~repro.sim.kernels.source_totals`, or the caller's) and a source's boolean
    mask is only built if some worker actually scatters draws for it
    (all-PFS cold epochs never scan for remote/local); ``sigma == 0``
    segments short-circuit — :func:`_lognormal_mean_one` consumes
    nothing and multiplies by exactly 1.0, so skipping the scatter is
    bitwise neutral (PFS tail events still draw their uniforms); and a
    worker's consecutive lognormal segments collapse into one broadcast
    draw (:func:`_fused_unit_lognormals`).
    """
    times = np.asarray(fetch_times, dtype=np.float64)
    if not noise.enabled or times.size == 0:
        return times.copy()
    # asanyarray: tests probe the lazy-mask contract with an ndarray
    # subclass that forbids comparisons against absent source codes.
    src = np.asanyarray(sources)
    n = times.shape[0]
    if len(rngs) != n:
        raise ConfigurationError(
            f"apply_noise_matrix needs one generator per worker "
            f"({n} workers, {len(rngs)} generators)"
        )

    if counts is None:
        counts = kernels.source_totals(kernels.source_index(src))
    pfs_code = int(Source.PFS)
    remote_code = int(Source.REMOTE)
    local_code = int(Source.LOCAL)
    pfs_sigma = noise.pfs_sigma
    remote_sigma = noise.remote_sigma
    local_sigma = noise.local_sigma
    tail_prob = noise.pfs_tail_prob

    masks: dict[int, np.ndarray] = {}

    def _mask_row(code: int, worker: int) -> np.ndarray:
        mask = masks.get(code)
        if mask is None:
            mask = masks[code] = src == code
        return mask[worker]

    mult = np.ones_like(times)
    for worker, rng in enumerate(rngs):
        n_pfs = int(counts[worker, pfs_code])
        n_remote = int(counts[worker, remote_code])
        n_local = int(counts[worker, local_code])

        pfs_draw: np.ndarray | None = None
        remote_draw: np.ndarray | None = None
        local_draw: np.ndarray | None = None
        tails: np.ndarray | None = None
        segments: list[tuple[float, int]] = []
        codes: list[int] = []
        if n_pfs and tail_prob > 0:
            # The tail uniforms sit between the PFS and remote/local
            # lognormals in the stream, so the PFS segment cannot fuse
            # with the ones after the break.
            if pfs_sigma > 0:
                pfs_draw = rng.lognormal(
                    mean=-0.5 * pfs_sigma * pfs_sigma, sigma=pfs_sigma, size=n_pfs
                )
            tails = rng.random(n_pfs) < tail_prob
        elif n_pfs and pfs_sigma > 0:
            segments.append((pfs_sigma, n_pfs))
            codes.append(pfs_code)
        if n_remote and remote_sigma > 0:
            segments.append((remote_sigma, n_remote))
            codes.append(remote_code)
        if n_local and local_sigma > 0:
            segments.append((local_sigma, n_local))
            codes.append(local_code)
        if segments:
            for code, draw in zip(codes, _fused_unit_lognormals(rng, segments)):
                if code == pfs_code:
                    pfs_draw = draw
                elif code == remote_code:
                    remote_draw = draw
                else:
                    local_draw = draw

        if tails is not None:
            base = 1.0 if pfs_draw is None else pfs_draw
            pfs_draw = np.where(tails, base * noise.pfs_tail_scale, base)
        if pfs_draw is not None:
            mult[worker, _mask_row(pfs_code, worker)] = pfs_draw
        if remote_draw is not None:
            mult[worker, _mask_row(remote_code, worker)] = remote_draw
        if local_draw is not None:
            mult[worker, _mask_row(local_code, worker)] = local_draw
    return times * mult
