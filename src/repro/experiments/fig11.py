"""Fig 11: epoch-0 batch times on Piz Daint.

"We also examined the batch times in the first epoch on Piz Daint.
NoPFS shows comparable or only slightly lower variance to the other
methods, as all must initially access data from the PFS [...] However,
for PyTorch and DALI, the variance here is comparable to the variance
in subsequent epochs: without caching, it is always 'the first epoch'
for a data loader."

Shape targets: epoch-0 batch distributions are similar across loaders;
NoPFS's *warm* epochs differ drastically while PyTorch's do not.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..api.presets import make_policy
from ..datasets import imagenet1k
from ..perfmodel import piz_daint
from ..rng import DEFAULT_SEED
from ..sim import BatchTimeStats
from ..sweep import SweepCell
from ..training import RESNET50_P100
from .common import format_table, require_supported, resolve_runner, scaled_scenario

__all__ = ["Fig11Result", "cells", "run"]

#: Framework lineup: (label, registry policy spec) pairs.
_SPECS = (
    ("PyTorch", "pytorch:2"),
    ("NoPFS", "nopfs"),
)


@dataclass(frozen=True)
class Fig11Result:
    """Epoch-0 vs warm-epoch batch stats per framework and GPU count."""

    epoch0: dict[tuple[int, str], BatchTimeStats]
    warm: dict[tuple[int, str], BatchTimeStats]
    gpu_counts: tuple[int, ...]
    labels: tuple[str, ...]
    scale: float

    def rows(self) -> list[tuple]:
        """(gpus, framework, epoch0 p50/max, warm p50/max) rows."""
        out = []
        for gpus in self.gpu_counts:
            for label in self.labels:
                e0 = self.epoch0[(gpus, label)]
                w = self.warm[(gpus, label)]
                out.append((gpus, label, e0.p50, e0.max, w.p50, w.max))
        return out

    def render(self) -> str:
        """Human-readable comparison table."""
        headers = (
            "#GPUs",
            "framework",
            "ep0 batch p50",
            "ep0 batch max",
            "warm batch p50",
            "warm batch max",
        )
        return (
            f"Fig 11: epoch-0 batch times, Piz Daint (scale={self.scale})\n"
            + format_table(headers, self.rows())
        )


def cells(
    gpu_counts: tuple[int, ...] = (32, 64, 128, 256),
    scale: float = 0.25,
    num_epochs: int = 3,
    seed: int = DEFAULT_SEED,
) -> list[SweepCell]:
    """The figure's sweep grid: (gpus x framework) on Piz Daint."""
    dataset = imagenet1k(seed)
    compute = RESNET50_P100.mbps(dataset)
    out: list[SweepCell] = []
    for gpus in gpu_counts:
        system = piz_daint(gpus).replace(compute_mbps=compute)
        config = scaled_scenario(
            dataset, system, batch_size=64, num_epochs=num_epochs,
            scale=scale, seed=seed,
        )
        for label, spec in _SPECS:
            out.append(SweepCell(tag=(gpus, label), config=config, policy=make_policy(spec)))
    return out


def run(
    gpu_counts: tuple[int, ...] = (32, 64, 128, 256),
    scale: float = 0.25,
    num_epochs: int = 3,
    seed: int = DEFAULT_SEED,
    runner=None,
) -> Fig11Result:
    """Regenerate the epoch-0 comparison."""
    grid = cells(gpu_counts=gpu_counts, scale=scale, num_epochs=num_epochs, seed=seed)
    outcome = require_supported(resolve_runner(runner).run(grid), "fig11")
    epoch0: dict[tuple[int, str], BatchTimeStats] = {}
    warm: dict[tuple[int, str], BatchTimeStats] = {}
    for tag, res in outcome.results.items():
        epoch0[tag] = res.epochs[0].batch_stats
        warm[tag] = BatchTimeStats.merge([e.batch_stats for e in res.epochs[1:]])
    return Fig11Result(
        epoch0=epoch0,
        warm=warm,
        gpu_counts=tuple(gpu_counts),
        labels=tuple(label for label, _ in _SPECS),
        scale=scale,
    )
