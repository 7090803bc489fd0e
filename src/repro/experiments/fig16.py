"""Fig 16: end-to-end ResNet-50/ImageNet-1k training, 256 Lassen GPUs.

"We use a batch size of 32 samples per GPU, for a global batch size of
8192, and follow the learning procedure in Goyal et al. [...] we
achieve a 1.42x speedup over the standard PyTorch DataLoader while
achieving state-of-the-art accuracy" (111 min -> 78 min, 76.5% top-1).

Both loaders are simulated for the full 90 epochs; the shared Goyal
accuracy dynamics are composed over each loader's clock — the curves
coincide per epoch and differ only by wall-clock compression.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..api.presets import make_policy
from ..datasets import imagenet1k
from ..perfmodel import lassen
from ..rng import DEFAULT_SEED
from ..sweep import SweepCell
from ..training import (
    RESNET50_V100,
    EndToEndComparison,
    compare_curves,
    goyal_resnet50_schedule,
)
from . import paper
from .common import fmt, format_table, require_supported, resolve_runner, scaled_scenario

__all__ = ["Fig16Result", "cells", "run"]


@dataclass(frozen=True)
class Fig16Result:
    """Accuracy-vs-time comparison plus the paper's headline numbers."""

    comparison: EndToEndComparison
    scale: float

    @property
    def speedup(self) -> float:
        """End-to-end wall-clock speedup (paper: 1.42x)."""
        return self.comparison.speedup

    @property
    def final_top1(self) -> float:
        """Final validation accuracy (paper: 76.5%)."""
        return self.comparison.contender.final_top1

    def rows(self) -> list[tuple]:
        """Sampled accuracy-vs-time rows for both curves."""
        out = []
        for curve in (self.comparison.baseline, self.comparison.contender):
            n = curve.epoch_end_times_s.size
            for epoch in (0, n // 4, n // 2, 3 * n // 4, n - 1):
                out.append(
                    (
                        curve.label,
                        epoch + 1,
                        curve.epoch_end_times_s[epoch] / 60.0,
                        curve.top1_at_epoch_end[epoch],
                    )
                )
        return out

    def render(self) -> str:
        """Comparison table plus headline numbers."""
        headers = ("loader", "epoch", "time (min)", "top-1 %")
        base, cont = self.comparison.baseline, self.comparison.contender
        return (
            f"Fig 16: end-to-end training (scale={self.scale})\n"
            + format_table(headers, self.rows())
            + "\n\n"
            f"{base.label}: {base.total_time_s / 60:.1f} min "
            f"(paper: {paper.FIG16['pytorch_minutes']:.0f} min at full scale)\n"
            f"{cont.label}: {cont.total_time_s / 60:.1f} min "
            f"(paper: {paper.FIG16['nopfs_minutes']:.0f} min)\n"
            f"speedup: {fmt(self.speedup)}x (paper: {paper.FIG16['speedup']}x)\n"
            f"final top-1: {self.final_top1:.1f}% "
            f"(paper: {paper.FIG16['final_top1']}%)"
        )


def cells(
    gpus: int = 256,
    batch_size: int = 32,
    num_epochs: int = 90,
    scale: float = 0.25,
    seed: int = DEFAULT_SEED,
) -> list[SweepCell]:
    """The figure's sweep grid: both loaders on the 90-epoch scenario."""
    dataset = imagenet1k(seed)
    system = lassen(gpus).replace(compute_mbps=RESNET50_V100.mbps(dataset))
    config = scaled_scenario(
        dataset, system, batch_size=batch_size, num_epochs=num_epochs,
        scale=scale, seed=seed,
    )
    return [
        SweepCell(tag="pytorch", config=config, policy=make_policy("pytorch:2")),
        SweepCell(tag="nopfs", config=config, policy=make_policy("nopfs")),
    ]


def run(
    gpus: int = 256,
    batch_size: int = 32,
    num_epochs: int = 90,
    scale: float = 0.25,
    seed: int = DEFAULT_SEED,
    runner=None,
) -> Fig16Result:
    """Regenerate the end-to-end comparison."""
    grid = cells(
        gpus=gpus, batch_size=batch_size, num_epochs=num_epochs, scale=scale, seed=seed
    )
    outcome = require_supported(resolve_runner(runner).run(grid), "fig16")
    pytorch = outcome["pytorch"]
    nopfs = outcome["nopfs"]
    comparison = compare_curves(
        pytorch.epoch_times_s,
        nopfs.epoch_times_s,
        goyal_resnet50_schedule(paper.FIG16["final_top1"]),
    )
    return Fig16Result(comparison=comparison, scale=scale)
