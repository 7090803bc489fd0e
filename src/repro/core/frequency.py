"""Probabilistic analysis of access frequencies (Sec 3.1).

For a fixed worker and sample, the per-epoch access indicator is
``X_e ~ Bernoulli(1/N)`` and the access frequency over ``E`` epochs is
``X = sum_e X_e ~ Binomial(E, 1/N)``, with mean ``mu = E/N``. The paper
exploits the *tail* of this distribution: the expected number of samples
a worker accesses more than ``(1+delta) * mu`` times is
``F * P(X > (1+delta) mu)``, which for ImageNet-scale runs is tens of
thousands of "hot" samples worth caching locally (Fig 3).

This module provides the closed forms, Monte-Carlo verification against
the *exact* shuffle-derived streams, and the paper's Lemma 1 (frequency
imbalance across workers) as a checkable predicate. The binomial is
evaluated from exact integers, ``P(X=k) = C(E,k) (N-1)^(E-k) / N^E``,
with one correctly rounded division per value: the float form
``C(E,k) p^k (1-p)^(E-k)`` loses all accuracy by ``E >= 300``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..config import ConfigMixin
from ..errors import ConfigurationError
from .stream import AccessStream, StreamConfig

__all__ = [
    "access_frequency_pmf",
    "tail_probability",
    "expected_samples_above",
    "expected_histogram",
    "FrequencyHistogram",
    "monte_carlo_histogram",
    "lemma1_lower_bound",
    "lemma1_upper_bound",
    "verify_lemma1",
]


def _binomial_numerators(num_epochs: int, num_workers: int) -> list[int]:
    """``C(E,k) (N-1)^(E-k)`` for ``k = 0..E``: ``P(X=k)`` times ``N^E``."""
    if num_epochs <= 0 or num_workers <= 0:
        raise ConfigurationError("num_epochs and num_workers must be positive")
    rest = num_workers - 1
    return [
        math.comb(num_epochs, k) * rest ** (num_epochs - k)
        for k in range(num_epochs + 1)
    ]


def access_frequency_pmf(num_epochs: int, num_workers: int) -> np.ndarray:
    """``P(X = k)`` for ``k = 0..E``, ``X ~ Binomial(E, 1/N)``.

    Each value is one exact integer ratio, correctly rounded to float.
    """
    total = num_workers**num_epochs
    return np.array(
        [n / total for n in _binomial_numerators(num_epochs, num_workers)]
    )


def tail_probability(num_epochs: int, num_workers: int, delta: float) -> float:
    """``P(X > (1+delta) * E/N)`` for ``X ~ Binomial(E, 1/N)``.

    This is the paper's hot-sample probability: the chance a given sample
    is accessed by a given worker more than ``(1+delta)`` times the mean.
    The sum starts at ``k = ceil((1+delta) * mu)`` exactly as in Sec 3.1,
    and is one exact integer sum divided once.
    """
    if delta < 0:
        raise ConfigurationError("delta must be non-negative")
    numerators = _binomial_numerators(num_epochs, num_workers)
    mu = num_epochs / num_workers
    threshold = max(math.ceil((1.0 + delta) * mu), 0)
    return sum(numerators[threshold:]) / num_workers**num_epochs


def expected_samples_above(
    num_samples: int, num_epochs: int, num_workers: int, delta: float
) -> float:
    """Expected number of samples a worker accesses ``> (1+delta) mu`` times.

    ``F * P(X > (1+delta) mu)`` by linearity of expectation (Sec 3.1).
    For the paper's example (``N=16, E=90, F=1281167, delta=0.8``) this is
    ~31,635 samples accessed more than 10 times.
    """
    if num_samples <= 0:
        raise ConfigurationError("num_samples must be positive")
    return num_samples * tail_probability(num_epochs, num_workers, delta)


def expected_histogram(
    num_samples: int, num_epochs: int, num_workers: int
) -> np.ndarray:
    """Expected count of samples at each access frequency ``0..E``.

    ``out[k] = F * P(X = k)`` — the analytic curve underlying Fig 3.
    """
    return num_samples * access_frequency_pmf(num_epochs, num_workers)


@dataclass(frozen=True)
class FrequencyHistogram(ConfigMixin):
    """Empirical access-frequency histogram for one worker (Fig 3).

    Attributes
    ----------
    counts:
        ``counts[k]`` = number of samples this worker accessed exactly
        ``k`` times (tuple so the dataclass stays hashable/serializable).
    num_epochs / num_workers / num_samples:
        The generating configuration.
    """

    counts: tuple[int, ...]
    num_epochs: int
    num_workers: int
    num_samples: int

    @property
    def mean_frequency(self) -> float:
        """Empirical mean accesses per sample (``~ E/N``)."""
        ks = np.arange(len(self.counts))
        total = sum(self.counts)
        if total == 0:
            return 0.0
        return float((ks * np.asarray(self.counts)).sum() / total)

    def samples_above(self, threshold: int) -> int:
        """Number of samples accessed strictly more than ``threshold`` times."""
        return int(sum(self.counts[threshold + 1 :]))


def monte_carlo_histogram(
    config: StreamConfig, worker: int = 0
) -> FrequencyHistogram:
    """Exact-stream access-frequency histogram for one worker.

    This is the paper's Monte-Carlo verification (Fig 3): rather than
    sampling from the binomial model it derives frequencies from the real
    seeded shuffles, so it also captures the (tiny) without-replacement
    correlation the model ignores.
    """
    stream = AccessStream(config)
    freqs = stream.worker_frequencies(worker)
    hist = np.bincount(freqs, minlength=config.num_epochs + 1)
    return FrequencyHistogram(
        counts=tuple(int(c) for c in hist),
        num_epochs=config.num_epochs,
        num_workers=config.num_workers,
        num_samples=config.num_samples,
    )


# -- Lemma 1 ---------------------------------------------------------------


def lemma1_upper_bound(num_epochs: int, num_workers: int, delta: float) -> float:
    """Lemma 1 bound: if some worker accesses a sample ``ceil((1+delta)E/N)``
    times, at least one other worker accesses it at most
    ``ceil(((N-1-delta)/(N-1)) * E/N)`` times."""
    if num_workers < 2:
        raise ConfigurationError("Lemma 1 requires at least two workers")
    return math.ceil((num_workers - 1 - delta) / (num_workers - 1) * num_epochs / num_workers)


def lemma1_lower_bound(num_epochs: int, num_workers: int, delta: float) -> float:
    """Symmetric Lemma 1 bound for under-accessing workers: if some worker
    accesses a sample ``floor((1-delta)E/N)`` times, at least one other
    worker accesses it at least ``floor(((N-1+delta)/(N-1)) * E/N)`` times."""
    if num_workers < 2:
        raise ConfigurationError("Lemma 1 requires at least two workers")
    return math.floor((num_workers - 1 + delta) / (num_workers - 1) * num_epochs / num_workers)


def verify_lemma1(frequencies: np.ndarray, num_epochs: int) -> bool:
    """Check Lemma 1 empirically on an ``(N, F)`` frequency matrix.

    For every sample, total accesses must equal ``E`` (full-dataset
    without-replacement sampling), which is the invariant Lemma 1's proof
    rests on; and for every sample and every ``delta`` realized by some
    worker's count, a complementary under/over-accessing worker must
    exist. Because column sums equal ``E`` the complementary condition is
    implied; we verify both the invariant and the explicit bound on the
    min/max columns, returning ``True`` only if all hold.
    """
    freqs = np.asarray(frequencies)
    if freqs.ndim != 2:
        raise ConfigurationError("frequencies must be an (N, F) matrix")
    n = freqs.shape[0]
    if n < 2:
        raise ConfigurationError("Lemma 1 requires at least two workers")
    totals = freqs.sum(axis=0)
    if not np.all(totals == num_epochs):
        return False
    mu = num_epochs / n
    col_max = freqs.max(axis=0).astype(np.float64)
    col_min = freqs.min(axis=0).astype(np.float64)
    # For each sample, derive the delta realized by the most frequent
    # accessor and check the least frequent accessor obeys the bound.
    with np.errstate(divide="ignore", invalid="ignore"):
        delta = np.maximum(col_max / mu - 1.0, 0.0)
    bound = np.ceil((n - 1 - delta) / (n - 1) * mu)
    return bool(np.all(col_min <= bound))
