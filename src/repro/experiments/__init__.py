"""One module per paper table/figure; see DESIGN.md's experiment index.

Each module exposes ``run(...)`` (returns a result object with
``render()``) plus ``cells(...)`` declaring its sweep grid. The
full-paper driver lives in :mod:`repro.experiments.paper` and renders
any of them (``python -m repro experiments --figures figX``); its
incremental artifact pipeline (figure -> cell keys -> output digest
manifests) in :mod:`repro.experiments.artifacts`.
"""

from . import (  # noqa: F401  (re-exported experiment modules)
    artifacts,
    fig3,
    fig8,
    fig9,
    fig10,
    fig11,
    fig12,
    fig13,
    fig14,
    fig15,
    fig16,
    paper,
    table1,
)

__all__ = [
    "table1",
    "fig3",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "artifacts",
    "paper",
]
