"""Fig 15: CosmoFlow epoch & batch times on Lassen.

"At 1024 GPUs, NoPFS is [...] 2.1x faster on CosmoFlow" — the
much-more-bytes stress test (4 TB of 16 MB samples, per-GPU batch 16).
The paper also notes the bimodal batch-time distribution caused by the
constant large sample size, and that NoPFS leans on the SSD tier at
small scale where aggregate RAM is insufficient.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..datasets import cosmoflow
from ..perfmodel import Source, lassen
from ..rng import DEFAULT_SEED
from ..training import COSMOFLOW_V100
from . import paper
from .common import fmt
from .scaling import PolicySpec, ScalingResult, run_scaling, scaling_cells

__all__ = ["Fig15Result", "cells", "run"]


def _specs() -> list[PolicySpec]:
    """The framework lineup (PyTorch vs NoPFS vs the no-I/O bound)."""
    return [
        PolicySpec("PyTorch", "pytorch:2"),
        PolicySpec("NoPFS", "nopfs"),
        PolicySpec("No I/O", "perfect"),
    ]


def cells(
    gpu_counts: tuple[int, ...] = (32, 128, 256),
    scale: float = 0.10,
    num_epochs: int = 3,
    seed: int = DEFAULT_SEED,
):
    """The figure's sweep grid: (gpus x framework) on Lassen/CosmoFlow."""
    dataset = cosmoflow(seed)
    return scaling_cells(
        lassen, dataset, COSMOFLOW_V100.mbps(dataset), _specs(), gpu_counts,
        batch_size=16, num_epochs=num_epochs, scale=scale, seed=seed,
    )


@dataclass(frozen=True)
class Fig15Result:
    """The sweep plus the paper's headline speedup."""

    sweep: ScalingResult

    def headline_speedup(self) -> float | None:
        """NoPFS over PyTorch at the largest sweep point (paper: 2.1x)."""
        return self.sweep.speedup(self.sweep.gpu_counts[-1], "PyTorch")

    def nopfs_uses_local_cache(self) -> bool:
        """NoPFS must serve warm epochs from its cache tiers (RAM+SSD)."""
        smallest = self.sweep.gpu_counts[0]
        point = self.sweep.points[(smallest, "NoPFS")]
        if point.result is None:
            return False
        warm = point.result.epochs[-1]
        return warm.fetch_bytes[int(Source.LOCAL)] > 0

    def render(self) -> str:
        """Sweep table plus the headline comparison."""
        return (
            "Fig 15: CosmoFlow on Lassen\n"
            + self.sweep.render()
            + f"\n\nNoPFS vs PyTorch at {self.sweep.gpu_counts[-1]} GPUs: "
            f"{fmt(self.headline_speedup())}x "
            f"(paper at 1024 GPUs: {paper.FIG15_SPEEDUP}x)"
        )


def run(
    gpu_counts: tuple[int, ...] = (32, 128, 256),
    scale: float = 0.10,
    num_epochs: int = 3,
    seed: int = DEFAULT_SEED,
    runner=None,
) -> Fig15Result:
    """Regenerate the CosmoFlow sweep.

    The default sweep stops at 256 ranks: beyond that, the calibrated
    GPFS tail-noise model compounds with the per-batch barrier over
    hundreds of workers and exaggerates the PyTorch collapse well past
    the paper's 2.1x (see EXPERIMENTS.md).
    """
    dataset = cosmoflow(seed)
    sweep = run_scaling(
        lassen,
        "Lassen",
        dataset,
        COSMOFLOW_V100.mbps(dataset),
        _specs(),
        gpu_counts,
        batch_size=16,
        num_epochs=num_epochs,
        scale=scale,
        seed=seed,
        runner=runner,
    )
    return Fig15Result(sweep=sweep)
