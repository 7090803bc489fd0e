"""Fig 8: the policy comparison across the four dataset-size regimes.

Six panels, each a bar chart of execution time for nine I/O policies
plus the lower bound, with stacked per-location time attribution:

=====  =============  ==========================  ====  ===
panel  regime         dataset                     N     B
=====  =============  ==========================  ====  ===
a      S < d1         MNIST (40 MB)               4     32
b      d1 < S < D     ImageNet-1k (135 GB)        4     32
c      d1 < S < ND    OpenImages (500 GB)         4     32
d      D < S < ND     ImageNet-22k (1.5 TB)       4     32
e      ND < S         CosmoFlow (4 TB)            4     16
f      ND < S         CosmoFlow 512^3 (10 TB)     8     1
=====  =============  ==========================  ====  ===

The paper does not state the epoch counts; E=5 reproduces the published
lower bounds of panels a-d almost exactly and E=2/E=1 are the closest
magnitudes for the CosmoFlow panels (see EXPERIMENTS.md). Comparisons
are reported as time-over-lower-bound ratios, which the ``scale`` knob
leaves invariant.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from ..api.presets import FIG8_POLICIES, make_policy
from ..datasets import (
    DatasetModel,
    cosmoflow,
    cosmoflow512,
    imagenet1k,
    imagenet22k,
    mnist,
    openimages,
)
from ..errors import ConfigurationError
from ..perfmodel import sec6_cluster
from ..rng import DEFAULT_SEED
from ..sim import SimulationConfig, SimulationResult, analytic_lower_bound
from ..sweep import SweepCell, SweepRunner
from . import paper
from .common import format_table, policy_cells, resolve_runner, scaled_scenario

__all__ = ["PanelSpec", "Fig8Panel", "PANELS", "all_cells", "cells", "run", "run_all"]


@functools.lru_cache(maxsize=1)
def _policy_names() -> tuple[str, ...]:
    """The lineup's concrete policy names, in plot order (row keys)."""
    return tuple(make_policy(s).name for s in FIG8_POLICIES)


@dataclass(frozen=True)
class PanelSpec:
    """Configuration of one Fig 8 panel."""

    panel: str
    dataset_factory: object
    num_workers: int
    batch_size: int
    num_epochs: int
    default_scale: float


PANELS: dict[str, PanelSpec] = {
    "a": PanelSpec("a", mnist, 4, 32, 5, 1.0),
    "b": PanelSpec("b", imagenet1k, 4, 32, 5, 0.05),
    "c": PanelSpec("c", openimages, 4, 32, 5, 0.05),
    "d": PanelSpec("d", imagenet22k, 4, 32, 5, 0.02),
    "e": PanelSpec("e", cosmoflow, 4, 16, 2, 0.10),
    "f": PanelSpec("f", cosmoflow512, 8, 1, 1, 0.50),
}


@dataclass(frozen=True)
class Fig8Panel:
    """One regenerated panel: per-policy results plus both lower bounds."""

    panel: str
    scenario: str
    scale: float
    lower_bound_s: float
    results: dict[str, SimulationResult]
    unsupported: tuple[str, ...]

    def measured_ratio(self, policy: str) -> float | None:
        """Policy time over lower bound (scale-invariant comparison)."""
        res = self.results.get(policy)
        if res is None or self.lower_bound_s <= 0:
            return None
        return res.total_time_s / self.lower_bound_s

    def paper_ratio(self, policy: str) -> float | None:
        """The paper's published time over its published lower bound."""
        panel_vals = paper.FIG8[self.panel]
        if policy not in panel_vals:
            return None
        return panel_vals[policy] / panel_vals["lower_bound"]

    def rows(self) -> list[tuple]:
        """Table rows: policy, measured time, ratio, paper ratio, shares."""
        out = []
        for name in _policy_names():
            res = self.results.get(name)
            if res is None:
                out.append((name, "unsupported", "-", self.paper_ratio(name), "-", "-", "-", "-"))
                continue
            bd = res.location_breakdown_s()
            total = max(res.total_time_s, 1e-12)
            out.append(
                (
                    name,
                    res.total_time_s,
                    self.measured_ratio(name),
                    self.paper_ratio(name),
                    bd["staging"] / total,
                    bd["local"] / total,
                    bd["remote"] / total,
                    bd["pfs"] / total,
                )
            )
        out.append(("lower_bound", self.lower_bound_s, 1.0, 1.0, "-", "-", "-", "-"))
        return out

    def render(self) -> str:
        """Human-readable panel table."""
        headers = (
            "policy",
            "time (s)",
            "x LB",
            "paper x LB",
            "staging",
            "local",
            "remote",
            "pfs",
        )
        return (
            f"Fig 8{self.panel} [{self.scenario}] scale={self.scale}\n"
            + format_table(headers, self.rows())
        )


def _panel_config(
    panel: str, scale: float | None, seed: int
) -> tuple[PanelSpec, float, SimulationConfig]:
    spec = PANELS.get(panel)
    if spec is None:
        raise ConfigurationError(f"unknown Fig 8 panel {panel!r}")
    scale = spec.default_scale if scale is None else scale
    dataset: DatasetModel = spec.dataset_factory(seed)
    config = scaled_scenario(
        dataset,
        sec6_cluster(num_workers=spec.num_workers),
        batch_size=spec.batch_size,
        num_epochs=spec.num_epochs,
        scale=scale,
        seed=seed,
    )
    return spec, scale, config


def _panel_grid(
    panel: str, scale: float | None, seed: int
) -> tuple[float, SimulationConfig, list[SweepCell]]:
    """The single grid-construction path shared by :func:`cells`/:func:`run`."""
    _, scale, config = _panel_config(panel, scale, seed)
    return scale, config, policy_cells(config, [make_policy(s) for s in FIG8_POLICIES])


def cells(
    panel: str, scale: float | None = None, seed: int = DEFAULT_SEED
) -> list[SweepCell]:
    """One panel's sweep grid: the nine-policy lineup on its scenario."""
    return _panel_grid(panel, scale, seed)[2]


def all_cells(scale: float | None = None, seed: int = DEFAULT_SEED) -> list[SweepCell]:
    """Every panel's grid concatenated: the figure's full dependency set.

    Tags repeat across panels (each panel is swept separately), so this
    list is for dependency tracking — the incremental artifact pipeline
    (:mod:`repro.experiments.artifacts`) — not for a single sweep call.
    """
    return [cell for panel in PANELS for cell in cells(panel, scale=scale, seed=seed)]


def run(
    panel: str,
    scale: float | None = None,
    seed: int = DEFAULT_SEED,
    runner: SweepRunner | None = None,
) -> Fig8Panel:
    """Regenerate one Fig 8 panel (``scale=None`` uses the bench default)."""
    scale, config, grid = _panel_grid(panel, scale, seed)
    outcome = resolve_runner(runner).run(grid)
    return Fig8Panel(
        panel=panel,
        scenario=config.scenario,
        scale=scale,
        lower_bound_s=analytic_lower_bound(config),
        results=dict(outcome.results),
        unsupported=outcome.unsupported,
    )


def run_all(
    scale: float | None = None,
    seed: int = DEFAULT_SEED,
    runner: SweepRunner | None = None,
) -> dict[str, Fig8Panel]:
    """Regenerate every panel through one (shared) sweep runner."""
    runner = resolve_runner(runner)
    return {panel: run(panel, scale=scale, seed=seed, runner=runner) for panel in PANELS}
