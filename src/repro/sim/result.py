"""Simulation results: per-epoch stats, breakdowns, batch-time summaries.

The structures here carry exactly what the paper's evaluation plots
need: epoch times (Figs 8, 10, 14, 15), per-batch time distributions
(the violin plots and their "Max:" annotations), stall times and
fetch-location shares (Fig 12), and the stacked time-per-location bars
of Fig 8.

Every result type round-trips through plain dicts/JSON
(``to_dict``/``from_dict``, ``to_json``/``from_json``) *losslessly* —
floats survive via the shortest-round-trip repr that :mod:`json` uses —
so :mod:`repro.sweep` can memoize simulation outcomes on disk and hand
back results bitwise-identical to a fresh run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..errors import ConfigurationError
from ..perfmodel import Source

__all__ = ["BatchTimeStats", "EpochResult", "SimulationResult"]

#: Fig 8 stacked-bar categories, in plot order.
BREAKDOWN_LOCATIONS = ("staging", "local", "remote", "pfs")


@dataclass(frozen=True)
class BatchTimeStats:
    """Summary of a set of global batch durations (one violin)."""

    count: int
    mean: float
    p50: float
    p95: float
    p99: float
    max: float

    @classmethod
    def from_durations(cls, durations: np.ndarray) -> "BatchTimeStats":
        """Summarize an array of per-batch durations."""
        d = np.asarray(durations, dtype=np.float64)
        if d.size == 0:
            return cls(0, 0.0, 0.0, 0.0, 0.0, 0.0)
        return cls(
            count=int(d.size),
            mean=float(d.mean()),
            p50=float(np.percentile(d, 50)),
            p95=float(np.percentile(d, 95)),
            p99=float(np.percentile(d, 99)),
            max=float(d.max()),
        )

    @classmethod
    def merge(cls, parts: list["BatchTimeStats"]) -> "BatchTimeStats":
        """Approximate merge of per-epoch summaries (weighted by count).

        Percentiles are merged as count-weighted averages — adequate for
        harness reporting; exact pooling is available by recording raw
        durations (``record_batch_times``).
        """
        parts = [p for p in parts if p.count > 0]
        if not parts:
            return cls(0, 0.0, 0.0, 0.0, 0.0, 0.0)
        total = sum(p.count for p in parts)
        wavg = lambda attr: sum(getattr(p, attr) * p.count for p in parts) / total
        return cls(
            count=total,
            mean=wavg("mean"),
            p50=wavg("p50"),
            p95=wavg("p95"),
            p99=wavg("p99"),
            max=max(p.max for p in parts),
        )

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form (lossless; see module docstring)."""
        return {
            "count": self.count,
            "mean": self.mean,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
            "max": self.max,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "BatchTimeStats":
        """Inverse of :meth:`to_dict`."""
        return cls(
            count=int(data["count"]),
            mean=float(data["mean"]),
            p50=float(data["p50"]),
            p95=float(data["p95"]),
            p99=float(data["p99"]),
            max=float(data["max"]),
        )


@dataclass(frozen=True)
class EpochResult:
    """Everything measured for one simulated epoch.

    ``fetch_seconds/bytes/counts`` are indexed by :class:`Source` value
    (length 4: PFS, REMOTE, LOCAL, NONE). Seconds are pipeline-occupancy
    seconds — per-sample fetch times divided by the staging thread count
    — *averaged* over workers so they are directly comparable to the
    epoch wall time; bytes and counts are summed over workers.
    """

    epoch: int
    time_s: float
    stall_mean_s: float
    stall_max_s: float
    fetch_seconds: tuple[float, float, float, float]
    fetch_bytes: tuple[float, float, float, float]
    fetch_counts: tuple[int, int, int, int]
    batch_stats: BatchTimeStats
    gamma: float
    # compare=False: ndarray equality is elementwise, which would make
    # dataclass `==` raise for record_batch_times runs; compare raw
    # durations explicitly (np.array_equal) when they matter.
    batch_durations: np.ndarray | None = field(default=None, repr=False, compare=False)

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form; ``batch_durations`` becomes a list (or None)."""
        durations = self.batch_durations
        return {
            "epoch": self.epoch,
            "time_s": self.time_s,
            "stall_mean_s": self.stall_mean_s,
            "stall_max_s": self.stall_max_s,
            "fetch_seconds": list(self.fetch_seconds),
            "fetch_bytes": list(self.fetch_bytes),
            "fetch_counts": list(self.fetch_counts),
            "batch_stats": self.batch_stats.to_dict(),
            "gamma": self.gamma,
            "batch_durations": None if durations is None else durations.tolist(),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "EpochResult":
        """Inverse of :meth:`to_dict`."""
        durations = data.get("batch_durations")
        return cls(
            epoch=int(data["epoch"]),
            time_s=float(data["time_s"]),
            stall_mean_s=float(data["stall_mean_s"]),
            stall_max_s=float(data["stall_max_s"]),
            fetch_seconds=tuple(float(v) for v in data["fetch_seconds"]),
            fetch_bytes=tuple(float(v) for v in data["fetch_bytes"]),
            fetch_counts=tuple(int(v) for v in data["fetch_counts"]),
            batch_stats=BatchTimeStats.from_dict(data["batch_stats"]),
            gamma=float(data["gamma"]),
            batch_durations=(
                None if durations is None else np.asarray(durations, dtype=np.float64)
            ),
        )


@dataclass(frozen=True)
class SimulationResult:
    """Outcome of simulating one policy on one scenario."""

    policy: str
    scenario: str
    prestage_time_s: float
    accesses_full_dataset: bool
    epochs: tuple[EpochResult, ...]

    def __post_init__(self) -> None:
        if not self.epochs:
            raise ConfigurationError("a simulation must contain epochs")

    # -- headline numbers --------------------------------------------------

    @property
    def total_time_s(self) -> float:
        """End-to-end time: prestaging plus every epoch."""
        return self.prestage_time_s + sum(e.time_s for e in self.epochs)

    @property
    def epoch_times_s(self) -> np.ndarray:
        """Per-epoch wall times."""
        return np.array([e.time_s for e in self.epochs])

    def median_epoch_time_s(self, skip_first: bool = True) -> float:
        """Median epoch time, excluding epoch 0 by default.

        The paper reports medians "excl. epoch 0 (which has consistently
        high variance due to initial data access)".
        """
        times = self.epoch_times_s
        if skip_first and times.size > 1:
            times = times[1:]
        return float(np.median(times))

    def batch_stats(self, skip_first: bool = True) -> BatchTimeStats:
        """Pooled batch-time summary (paper's violins skip epoch 0)."""
        epochs = self.epochs[1:] if skip_first and len(self.epochs) > 1 else self.epochs
        return BatchTimeStats.merge([e.batch_stats for e in epochs])

    @property
    def total_stall_s(self) -> float:
        """Mean worker stall summed over epochs (Fig 12's "stall time")."""
        return float(sum(e.stall_mean_s for e in self.epochs))

    # -- location breakdowns -------------------------------------------------

    def location_breakdown_s(self) -> dict[str, float]:
        """Execution time attributed per I/O location (Fig 8 stacked bars).

        Per-source pipeline-occupancy seconds (averaged over workers) are
        attributed to PFS/remote/local; the remainder of the execution
        time — overlapped compute plus staging-buffer consumption — is
        the "staging" segment. Prestaging counts as PFS time. Segments
        sum to :attr:`total_time_s`.
        """
        pfs = self.prestage_time_s
        remote = 0.0
        local = 0.0
        for e in self.epochs:
            pfs += e.fetch_seconds[int(Source.PFS)]
            remote += e.fetch_seconds[int(Source.REMOTE)]
            local += e.fetch_seconds[int(Source.LOCAL)]
        total = self.total_time_s
        attributed = pfs + remote + local
        if attributed > total > 0:
            scale = total / attributed
            pfs, remote, local = pfs * scale, remote * scale, local * scale
            attributed = total
        return {
            "staging": max(total - attributed, 0.0),
            "local": local,
            "remote": remote,
            "pfs": pfs,
        }

    def fetch_bytes_by_source(self) -> dict[str, float]:
        """Total MB fetched per source over the whole run (Fig 12 data)."""
        totals = np.zeros(4)
        for e in self.epochs:
            totals += np.asarray(e.fetch_bytes)
        return {
            "pfs": float(totals[int(Source.PFS)]),
            "remote": float(totals[int(Source.REMOTE)]),
            "local": float(totals[int(Source.LOCAL)]),
        }

    def fetch_shares(self) -> dict[str, float]:
        """Per-source shares of fetched bytes (Fig 12's percentages)."""
        by = self.fetch_bytes_by_source()
        total = sum(by.values())
        if total <= 0:
            return {k: 0.0 for k in by}
        return {k: v / total for k, v in by.items()}

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form of the full result (lossless)."""
        return {
            "policy": self.policy,
            "scenario": self.scenario,
            "prestage_time_s": self.prestage_time_s,
            "accesses_full_dataset": self.accesses_full_dataset,
            "epochs": [e.to_dict() for e in self.epochs],
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "SimulationResult":
        """Inverse of :meth:`to_dict`."""
        return cls(
            policy=str(data["policy"]),
            scenario=str(data["scenario"]),
            prestage_time_s=float(data["prestage_time_s"]),
            accesses_full_dataset=bool(data["accesses_full_dataset"]),
            epochs=tuple(EpochResult.from_dict(e) for e in data["epochs"]),
        )

    def to_json(self, **kwargs: Any) -> str:
        """JSON form (``kwargs`` forwarded to :func:`json.dumps`)."""
        return json.dumps(self.to_dict(), **kwargs)

    @classmethod
    def from_json(cls, text: str) -> "SimulationResult":
        """Inverse of :meth:`to_json`."""
        return cls.from_dict(json.loads(text))
