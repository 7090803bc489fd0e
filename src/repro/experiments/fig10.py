"""Fig 10: ResNet-50/ImageNet-1k epoch & batch times on both machines.

Left panel: Piz Daint, 32-256 GPUs, PyTorch vs PyTorch+DALI vs NoPFS vs
the no-I/O baseline. Right panel: Lassen, 32-1024 GPUs, PyTorch vs
LBANN vs NoPFS vs no-I/O. Shape targets (paper): NoPFS up to 2.2x over
PyTorch on Piz Daint (256 GPUs), up to 5.4x on Lassen (1024 GPUs) and
1.7x over LBANN; PyTorch stops scaling once the PFS saturates; NoPFS
tracks the no-I/O line with far smaller batch-time tails.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..datasets import imagenet1k
from ..errors import ConfigurationError
from ..perfmodel import lassen, piz_daint
from ..rng import DEFAULT_SEED
from ..training import RESNET50_P100, RESNET50_V100
from . import paper
from .common import fmt
from .scaling import PolicySpec, ScalingResult, run_scaling, scaling_cells

__all__ = ["Fig10Result", "cells", "run", "daint_specs", "lassen_specs"]

#: Default sweep sizes; full-paper sweeps are 32..256 and 32..1024.
DAINT_GPUS = (32, 64, 128, 256)
LASSEN_GPUS = (32, 128, 512)


def daint_specs() -> list[PolicySpec]:
    """Piz Daint framework lineup (DALI = faster preprocessing pipeline)."""
    return [
        PolicySpec("PyTorch", "pytorch:2"),
        PolicySpec(
            "PyTorch+DALI",
            "pytorch:2",
            system_tweak=lambda s: s.replace(preprocess_mbps=s.preprocess_mbps * 2),
        ),
        PolicySpec("NoPFS", "nopfs"),
        PolicySpec("No I/O", "perfect"),
    ]


def lassen_specs() -> list[PolicySpec]:
    """Lassen framework lineup."""
    return [
        PolicySpec("PyTorch", "pytorch:2"),
        PolicySpec("LBANN", "lbann:dynamic"),
        PolicySpec("NoPFS", "nopfs"),
        PolicySpec("No I/O", "perfect"),
    ]


@dataclass(frozen=True)
class Fig10Result:
    """One machine's sweep plus the paper's headline speedups."""

    sweep: ScalingResult
    machine: str

    def headline_speedups(self) -> dict[str, float | None]:
        """NoPFS speedup over each baseline at the largest sweep scale."""
        top = self.sweep.gpu_counts[-1]
        return {
            label: self.sweep.speedup(top, label)
            for label in self.sweep.labels
            if label not in ("NoPFS", "No I/O")
        }

    def render(self) -> str:
        """Sweep table plus paper-vs-measured speedups."""
        lines = [self.sweep.render(), ""]
        top = self.sweep.gpu_counts[-1]
        for label, speedup in self.headline_speedups().items():
            key_name = {
                "PyTorch": "pytorch",
                "PyTorch+DALI": "dali",
                "LBANN": "lbann_dynamic",
            }.get(label)
            published = paper.FIG10_SPEEDUPS.get((self.machine, key_name, 1024)) or (
                paper.FIG10_SPEEDUPS.get((self.machine, key_name, 256))
            )
            lines.append(
                f"NoPFS vs {label} at {top} GPUs: {fmt(speedup)}x "
                f"(paper, at full scale: {fmt(published)}x)"
            )
        return "\n".join(lines)


def _machine_setup(machine: str, seed: int) -> tuple:
    """One machine's sweep ingredients (factory, name, dataset, ...)."""
    dataset = imagenet1k(seed)
    if machine == "piz_daint":
        return (
            piz_daint, "Piz Daint", dataset, RESNET50_P100.mbps(dataset),
            daint_specs(), DAINT_GPUS, 64,
        )
    if machine == "lassen":
        return (
            lassen, "Lassen", dataset, RESNET50_V100.mbps(dataset),
            lassen_specs(), LASSEN_GPUS, 120,
        )
    raise ConfigurationError(f"unknown machine {machine!r}")


def cells(
    machine: str = "lassen",
    gpu_counts: tuple[int, ...] | None = None,
    scale: float = 0.25,
    num_epochs: int = 5,
    seed: int = DEFAULT_SEED,
):
    """One panel's sweep grid: (gpus x framework) cells for ``machine``."""
    factory, _, dataset, compute, specs, default_gpus, batch = _machine_setup(machine, seed)
    return scaling_cells(
        factory, dataset, compute, specs, gpu_counts or default_gpus,
        batch_size=batch, num_epochs=num_epochs, scale=scale, seed=seed,
    )


def run(
    machine: str = "lassen",
    gpu_counts: tuple[int, ...] | None = None,
    scale: float = 0.25,
    num_epochs: int = 5,
    seed: int = DEFAULT_SEED,
    runner=None,
) -> Fig10Result:
    """Regenerate one Fig 10 panel ('piz_daint' or 'lassen')."""
    factory, name, dataset, compute, specs, default_gpus, batch = _machine_setup(machine, seed)
    sweep = run_scaling(
        factory,
        name,
        dataset,
        compute,
        specs,
        gpu_counts or default_gpus,
        batch_size=batch,
        num_epochs=num_epochs,
        scale=scale,
        seed=seed,
        runner=runner,
    )
    return Fig10Result(sweep=sweep, machine=machine)
