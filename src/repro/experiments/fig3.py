"""Fig 3 + the Sec 3.1 in-text example: access-frequency distribution.

Simulates the access frequency of a single worker (of 16) over 90
epochs of ImageNet-1k training, compares the empirical histogram to the
``Binomial(E, 1/N)`` model, and reproduces the paper's hot-sample count
(expected ~31,635 vs Monte-Carlo 31,863 samples accessed > 10 times).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..core import (
    FrequencyHistogram,
    StreamConfig,
    expected_histogram,
    expected_samples_above,
    monte_carlo_histogram,
)
from ..datasets import imagenet1k
from ..rng import DEFAULT_SEED
from . import paper
from .common import format_table

__all__ = ["Fig3Result", "run"]


@dataclass(frozen=True)
class Fig3Result:
    """Empirical vs analytic frequency distribution for one worker."""

    histogram: FrequencyHistogram
    expected_counts: tuple[float, ...]
    delta: float
    threshold: int
    expected_hot: float
    measured_hot: int
    paper_expected_hot: float
    paper_measured_hot: int

    def render(self) -> str:
        """Histogram table plus the hot-sample comparison."""
        rows = []
        for k, (measured, expected) in enumerate(
            zip(self.histogram.counts, self.expected_counts)
        ):
            if measured == 0 and expected < 0.5:
                continue
            rows.append((k, measured, round(expected, 1)))
        table = format_table(("accesses", "samples (measured)", "samples (model)"), rows)
        return (
            f"{table}\n\n"
            f"samples accessed > {self.threshold} times "
            f"(delta={self.delta}):\n"
            f"  analytic expectation: {self.expected_hot:,.0f} "
            f"(paper: {self.paper_expected_hot:,.0f})\n"
            f"  Monte-Carlo (exact shuffles): {self.measured_hot:,} "
            f"(paper: {self.paper_measured_hot:,})"
        )


def run(
    num_workers: int = 16,
    num_epochs: int = 90,
    num_samples: int | None = None,
    batch_size: int = 32,
    delta: float = 0.8,
    worker: int = 0,
    seed: int = DEFAULT_SEED,
) -> Fig3Result:
    """Regenerate Fig 3 (defaults reproduce the paper's exact setting)."""
    f = num_samples if num_samples is not None else imagenet1k().num_samples
    config = StreamConfig(
        seed=seed,
        num_samples=f,
        num_workers=num_workers,
        batch_size=batch_size,
        num_epochs=num_epochs,
        drop_last=False,
    )
    hist = monte_carlo_histogram(config, worker=worker)
    expected = expected_histogram(f, num_epochs, num_workers)
    mu = num_epochs / num_workers
    threshold = math.ceil((1 + delta) * mu) - 1  # "more than 10 times"
    expected_hot = expected_samples_above(f, num_epochs, num_workers, delta)
    measured_hot = hist.samples_above(threshold)
    return Fig3Result(
        histogram=hist,
        expected_counts=tuple(float(x) for x in expected),
        delta=delta,
        threshold=threshold,
        expected_hot=expected_hot,
        measured_hot=measured_hot,
        paper_expected_hot=paper.SEC31_EXPECTED_HOT,
        paper_measured_hot=paper.SEC31_MONTE_CARLO_HOT,
    )
