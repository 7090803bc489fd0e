"""Fig 14: ImageNet-22k epoch & batch times on Lassen.

"At 1024 GPUs, NoPFS is 2.4x faster on ImageNet-22k" — the
many-samples stress test (14.2M files, 1.3 TB), with the larger
21,841-class ResNet-50 head lowering per-GPU throughput.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..datasets import imagenet22k
from ..perfmodel import lassen
from ..rng import DEFAULT_SEED
from ..training import RESNET50_22K_V100
from . import paper
from .common import fmt
from .scaling import PolicySpec, ScalingResult, run_scaling, scaling_cells

__all__ = ["Fig14Result", "cells", "run"]


def _specs() -> list[PolicySpec]:
    """The framework lineup (PyTorch vs NoPFS vs the no-I/O bound)."""
    return [
        PolicySpec("PyTorch", "pytorch:2"),
        PolicySpec("NoPFS", "nopfs"),
        PolicySpec("No I/O", "perfect"),
    ]


def cells(
    gpu_counts: tuple[int, ...] = (32, 128, 512),
    scale: float = 0.05,
    num_epochs: int = 3,
    seed: int = DEFAULT_SEED,
):
    """The figure's sweep grid: (gpus x framework) on Lassen/ImageNet-22k."""
    dataset = imagenet22k(seed)
    return scaling_cells(
        lassen, dataset, RESNET50_22K_V100.mbps(dataset), _specs(), gpu_counts,
        batch_size=120, num_epochs=num_epochs, scale=scale, seed=seed,
    )


@dataclass(frozen=True)
class Fig14Result:
    """The sweep plus the paper's headline speedup."""

    sweep: ScalingResult

    def headline_speedup(self) -> float | None:
        """NoPFS over PyTorch at the largest sweep point (paper: 2.4x)."""
        return self.sweep.speedup(self.sweep.gpu_counts[-1], "PyTorch")

    def render(self) -> str:
        """Sweep table plus the headline comparison."""
        return (
            "Fig 14: ImageNet-22k on Lassen\n"
            + self.sweep.render()
            + f"\n\nNoPFS vs PyTorch at {self.sweep.gpu_counts[-1]} GPUs: "
            f"{fmt(self.headline_speedup())}x "
            f"(paper at 1024 GPUs: {paper.FIG14_SPEEDUP}x)"
        )


def run(
    gpu_counts: tuple[int, ...] = (32, 128, 512),
    scale: float = 0.05,
    num_epochs: int = 3,
    seed: int = DEFAULT_SEED,
    runner=None,
) -> Fig14Result:
    """Regenerate the ImageNet-22k sweep (paper uses 3 epochs)."""
    dataset = imagenet22k(seed)
    sweep = run_scaling(
        lassen,
        "Lassen",
        dataset,
        RESNET50_22K_V100.mbps(dataset),
        _specs(),
        gpu_counts,
        batch_size=120,
        num_epochs=num_epochs,
        scale=scale,
        seed=seed,
        runner=runner,
    )
    return Fig14Result(sweep=sweep)
