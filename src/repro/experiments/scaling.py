"""Shared scaling-sweep harness behind Figs 10, 13, 14 and 15.

Runs a set of loader policies over a range of GPU (worker) counts on a
machine model, reporting the paper's metrics: median epoch time
(excluding epoch 0) and the per-batch time distribution (median and the
"Max:" annotation of the violin plots).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

from ..api.presets import make_policy
from ..datasets import DatasetModel
from ..errors import ConfigurationError
from ..perfmodel import SystemModel
from ..rng import DEFAULT_SEED
from ..sim import (
    BatchTimeStats,
    Policy,
    SimulationResult,
)
from ..sweep import SweepCell, SweepRunner
from .common import format_table, resolve_runner, scaled_scenario

__all__ = ["PolicySpec", "ScalePoint", "ScalingResult", "scaling_cells", "run_scaling"]


@dataclass(frozen=True)
class PolicySpec:
    """One framework line in a scaling plot.

    ``policy`` is a registry spec (``"pytorch:2"``, ``"nopfs"``, or a
    spec mapping) resolved through :data:`repro.api.POLICIES`.
    ``system_tweak`` lets a framework adjust the environment it runs on
    (e.g. DALI's faster preprocessing pipeline).
    """

    label: str
    policy: str | Mapping[str, Any] | None = None
    system_tweak: Callable[[SystemModel], SystemModel] | None = None

    def __post_init__(self) -> None:
        if self.policy is None:
            raise ConfigurationError(f"PolicySpec {self.label!r} needs a policy spec")

    def build(self) -> Policy:
        """Materialize this line's policy instance."""
        return make_policy(self.policy)


@dataclass(frozen=True)
class ScalePoint:
    """One (gpu count, framework) measurement."""

    gpus: int
    label: str
    median_epoch_s: float | None
    batch_stats: BatchTimeStats | None
    result: SimulationResult | None

    @property
    def supported(self) -> bool:
        """Whether the framework ran at this scale."""
        return self.result is not None


@dataclass(frozen=True)
class ScalingResult:
    """A full sweep: points indexed by (gpus, framework label)."""

    machine: str
    dataset: str
    scale: float
    points: dict[tuple[int, str], ScalePoint]
    gpu_counts: tuple[int, ...]
    labels: tuple[str, ...]

    def median_epoch(self, gpus: int, label: str) -> float | None:
        """Median epoch time for one point (None if unsupported)."""
        return self.points[(gpus, label)].median_epoch_s

    def speedup(self, gpus: int, baseline: str, contender: str = "NoPFS") -> float | None:
        """Baseline epoch time over contender epoch time at one scale."""
        b = self.median_epoch(gpus, baseline)
        c = self.median_epoch(gpus, contender)
        if b is None or c is None or c <= 0:
            return None
        return b / c

    def rows(self) -> list[tuple]:
        """Table rows across the sweep."""
        out = []
        for gpus in self.gpu_counts:
            for label in self.labels:
                p = self.points[(gpus, label)]
                if not p.supported:
                    out.append((gpus, label, "unsupported", "-", "-"))
                else:
                    out.append(
                        (
                            gpus,
                            label,
                            p.median_epoch_s,
                            p.batch_stats.p50,
                            p.batch_stats.max,
                        )
                    )
        return out

    def render(self) -> str:
        """Human-readable sweep table."""
        headers = ("#GPUs", "framework", "epoch (s, median)", "batch p50 (s)", "batch max (s)")
        return (
            f"{self.machine} / {self.dataset} (scale={self.scale})\n"
            + format_table(headers, self.rows())
        )


def scaling_cells(
    machine_factory: Callable[[int], SystemModel],
    dataset: DatasetModel,
    compute_mbps: float,
    specs: Sequence[PolicySpec],
    gpu_counts: Sequence[int],
    batch_size: int,
    num_epochs: int,
    scale: float,
    seed: int = DEFAULT_SEED,
) -> list[SweepCell]:
    """The sweep grid of a scaling plot: one cell per (gpus, framework).

    Framework system tweaks (DALI's faster preprocessing) are folded
    into each cell's config at declaration time, so the grid fully
    describes the sweep.
    """
    out: list[SweepCell] = []
    for gpus in gpu_counts:
        system = machine_factory(gpus).replace(compute_mbps=compute_mbps)
        for spec in specs:
            tweaked = spec.system_tweak(system) if spec.system_tweak else system
            config = scaled_scenario(
                dataset,
                tweaked,
                batch_size=batch_size,
                num_epochs=num_epochs,
                scale=scale,
                seed=seed,
            )
            out.append(
                SweepCell(tag=(gpus, spec.label), config=config, policy=spec.build())
            )
    return out


def run_scaling(
    machine_factory: Callable[[int], SystemModel],
    machine_name: str,
    dataset: DatasetModel,
    compute_mbps: float,
    specs: Sequence[PolicySpec],
    gpu_counts: Sequence[int],
    batch_size: int,
    num_epochs: int,
    scale: float,
    seed: int = DEFAULT_SEED,
    runner: SweepRunner | None = None,
) -> ScalingResult:
    """Sweep ``specs`` over ``gpu_counts`` on one machine model."""
    grid = scaling_cells(
        machine_factory,
        dataset,
        compute_mbps,
        specs,
        gpu_counts,
        batch_size,
        num_epochs,
        scale,
        seed=seed,
    )
    outcome = resolve_runner(runner).run(grid)
    points: dict[tuple[int, str], ScalePoint] = {}
    for gpus in gpu_counts:
        for spec in specs:
            result = outcome.get((gpus, spec.label))
            if result is None:
                points[(gpus, spec.label)] = ScalePoint(gpus, spec.label, None, None, None)
            else:
                points[(gpus, spec.label)] = ScalePoint(
                    gpus,
                    spec.label,
                    result.median_epoch_time_s(),
                    result.batch_stats(),
                    result,
                )
    return ScalingResult(
        machine=machine_name,
        dataset=dataset.name,
        scale=scale,
        points=points,
        gpu_counts=tuple(gpu_counts),
        labels=tuple(s.label for s in specs),
    )
