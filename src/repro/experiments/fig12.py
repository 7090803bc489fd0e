"""Fig 12: NoPFS cache statistics on Piz Daint.

"Fig 12 presents the stall time and the percent of staging buffer
prefetches that were from local storage, a remote node's cache, or the
PFS, aggregated over all epochs."

Shape targets: the PFS share shrinks with scale (each node sees a
smaller dataset slice and remote caches grow), the remote share grows,
and stall time drops from the 32-GPU point as NoPFS strong-scales.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..api.presets import make_policy
from ..datasets import imagenet1k
from ..perfmodel import piz_daint
from ..rng import DEFAULT_SEED
from ..sweep import SweepCell
from ..training import RESNET50_P100
from . import paper
from .common import format_table, require_supported, resolve_runner, scaled_scenario

__all__ = ["Fig12Result", "cells", "run"]


@dataclass(frozen=True)
class Fig12Result:
    """Per-scale stall time and fetch-location shares for NoPFS."""

    stall_s: dict[int, float]
    shares: dict[int, dict[str, float]]
    gpu_counts: tuple[int, ...]
    scale: float

    def rows(self) -> list[tuple]:
        """(gpus, stall, paper stall, pfs%, remote%, local%) rows."""
        out = []
        for gpus in self.gpu_counts:
            s = self.shares[gpus]
            out.append(
                (
                    gpus,
                    self.stall_s[gpus],
                    paper.FIG12_STALL_SECONDS.get(gpus),
                    100 * s["pfs"],
                    100 * s["remote"],
                    100 * s["local"],
                )
            )
        return out

    def render(self) -> str:
        """Human-readable table."""
        headers = (
            "#GPUs",
            "stall (s)",
            "paper stall (s)",
            "PFS %",
            "remote %",
            "local %",
        )
        return (
            f"Fig 12: NoPFS cache stats, ImageNet-1k on Piz Daint "
            f"(scale={self.scale})\n" + format_table(headers, self.rows())
        )


def cells(
    gpu_counts: tuple[int, ...] = (32, 64, 128, 256),
    scale: float = 0.25,
    num_epochs: int = 5,
    seed: int = DEFAULT_SEED,
) -> list[SweepCell]:
    """The figure's sweep grid: one NoPFS cell per GPU count."""
    dataset = imagenet1k(seed)
    compute = RESNET50_P100.mbps(dataset)
    out: list[SweepCell] = []
    for gpus in gpu_counts:
        system = piz_daint(gpus).replace(compute_mbps=compute)
        config = scaled_scenario(
            dataset, system, batch_size=64, num_epochs=num_epochs,
            scale=scale, seed=seed,
        )
        out.append(SweepCell(tag=gpus, config=config, policy=make_policy("nopfs")))
    return out


def run(
    gpu_counts: tuple[int, ...] = (32, 64, 128, 256),
    scale: float = 0.25,
    num_epochs: int = 5,
    seed: int = DEFAULT_SEED,
    runner=None,
) -> Fig12Result:
    """Regenerate the NoPFS fetch-location/stall breakdown."""
    grid = cells(gpu_counts=gpu_counts, scale=scale, num_epochs=num_epochs, seed=seed)
    outcome = require_supported(resolve_runner(runner).run(grid), "fig12")
    stalls = {gpus: res.total_stall_s for gpus, res in outcome.results.items()}
    shares = {gpus: res.fetch_shares() for gpus, res in outcome.results.items()}
    return Fig12Result(
        stall_s=stalls, shares=shares, gpu_counts=tuple(gpu_counts), scale=scale
    )
