"""Fig 13: batch-size sweep on 128 Lassen GPUs.

"We observe that NoPFS is faster at every batch size [...] while the
variance in runtime stays roughly constant for NoPFS, for PyTorch it
increases significantly with larger batches, due to additional I/O
pressure caused by each rank fetching more data."
"""

from __future__ import annotations

from dataclasses import dataclass

from ..api.presets import make_policy
from ..datasets import imagenet1k
from ..perfmodel import lassen
from ..rng import DEFAULT_SEED
from ..sim import BatchTimeStats
from ..sweep import SweepCell
from ..training import RESNET50_V100
from .common import format_table, require_supported, resolve_runner, scaled_scenario

__all__ = ["Fig13Result", "cells", "run"]

#: Framework lineup: (label, registry policy spec) pairs.
_SPECS = (
    ("PyTorch", "pytorch:2"),
    ("NoPFS", "nopfs"),
    ("No I/O", "perfect"),
)


@dataclass(frozen=True)
class Fig13Result:
    """Per-(batch size, framework) batch-time summaries."""

    stats: dict[tuple[int, str], BatchTimeStats]
    batch_sizes: tuple[int, ...]
    labels: tuple[str, ...]
    gpus: int
    scale: float

    def rows(self) -> list[tuple]:
        """(batch size, framework, p50, p95, max) rows."""
        return [
            (
                b,
                label,
                self.stats[(b, label)].p50,
                self.stats[(b, label)].p95,
                self.stats[(b, label)].max,
            )
            for b in self.batch_sizes
            for label in self.labels
        ]

    def render(self) -> str:
        """Human-readable table."""
        headers = ("batch size", "framework", "batch p50 (s)", "p95", "max")
        return (
            f"Fig 13: batch-size sweep, ImageNet-1k on {self.gpus} Lassen "
            f"GPUs (scale={self.scale})\n" + format_table(headers, self.rows())
        )


def cells(
    batch_sizes: tuple[int, ...] = (32, 64, 96, 120),
    gpus: int = 128,
    scale: float = 0.25,
    num_epochs: int = 4,
    seed: int = DEFAULT_SEED,
) -> list[SweepCell]:
    """The figure's sweep grid: (batch size x framework) on Lassen."""
    dataset = imagenet1k(seed)
    system = lassen(gpus).replace(compute_mbps=RESNET50_V100.mbps(dataset))
    out: list[SweepCell] = []
    for batch in batch_sizes:
        config = scaled_scenario(
            dataset, system, batch_size=batch, num_epochs=num_epochs,
            scale=scale, seed=seed,
        )
        for label, spec in _SPECS:
            out.append(SweepCell(tag=(batch, label), config=config, policy=make_policy(spec)))
    return out


def run(
    batch_sizes: tuple[int, ...] = (32, 64, 96, 120),
    gpus: int = 128,
    scale: float = 0.25,
    num_epochs: int = 4,
    seed: int = DEFAULT_SEED,
    runner=None,
) -> Fig13Result:
    """Regenerate the batch-size sweep."""
    grid = cells(
        batch_sizes=batch_sizes, gpus=gpus, scale=scale, num_epochs=num_epochs, seed=seed
    )
    outcome = require_supported(resolve_runner(runner).run(grid), "fig13")
    stats = {tag: res.batch_stats() for tag, res in outcome.results.items()}
    return Fig13Result(
        stats=stats,
        batch_sizes=tuple(batch_sizes),
        labels=tuple(label for label, _ in _SPECS),
        gpus=gpus,
        scale=scale,
    )
