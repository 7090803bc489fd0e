"""Clairvoyance core: shuffles, access streams, frequency analysis, plans.

This package is the paper's "primary contribution" layer: everything
needed to turn a PRNG seed into exact knowledge of who reads what when,
and to turn that knowledge into cache placement decisions.
"""

from .frequency import (
    FrequencyHistogram,
    access_frequency_pmf,
    expected_histogram,
    expected_samples_above,
    lemma1_lower_bound,
    lemma1_upper_bound,
    monte_carlo_histogram,
    tail_probability,
    verify_lemma1,
)
from .plan import (
    CachePlan,
    WorkerPlacement,
    frequency_placement,
    frequency_placement_sparse,
    partition_placement,
)
from .rules import (
    belady_evictions,
    furthest_future_use,
    next_uncached_index,
    next_use_index,
    staging_order_is_rule1,
    violates_do_no_harm,
)
from .shuffle import EpochShuffler
from .stream import AccessStream, StreamConfig

__all__ = [
    "EpochShuffler",
    "AccessStream",
    "StreamConfig",
    "FrequencyHistogram",
    "access_frequency_pmf",
    "tail_probability",
    "expected_samples_above",
    "expected_histogram",
    "monte_carlo_histogram",
    "lemma1_lower_bound",
    "lemma1_upper_bound",
    "verify_lemma1",
    "CachePlan",
    "WorkerPlacement",
    "frequency_placement",
    "frequency_placement_sparse",
    "partition_placement",
    "belady_evictions",
    "next_use_index",
    "next_uncached_index",
    "furthest_future_use",
    "violates_do_no_harm",
    "staging_order_is_rule1",
]
