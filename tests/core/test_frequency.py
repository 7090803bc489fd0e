"""Frequency-analysis tests, including the paper's Sec 3.1 numbers."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    AccessStream,
    StreamConfig,
    access_frequency_pmf,
    expected_histogram,
    expected_samples_above,
    lemma1_lower_bound,
    lemma1_upper_bound,
    monte_carlo_histogram,
    tail_probability,
    verify_lemma1,
)
from repro.errors import ConfigurationError


class TestClosedForms:
    def test_distribution_mean(self):
        pmf = access_frequency_pmf(90, 16)
        assert pmf.sum() == pytest.approx(1.0)
        assert (np.arange(91) * pmf).sum() == pytest.approx(90 / 16)

    def test_tail_monotone_in_delta(self):
        probs = [tail_probability(90, 16, d) for d in (0.0, 0.4, 0.8, 1.2)]
        assert probs == sorted(probs, reverse=True)

    def test_tail_zero_delta(self):
        """delta=0 counts strictly-above-mean accesses."""
        pmf = access_frequency_pmf(90, 16)
        expected = pmf[math.ceil(90 / 16) :].sum()
        assert tail_probability(90, 16, 0.0) == pytest.approx(expected)

    # Exact integer ratios, correctly rounded. scipy.stats.binom reads
    # 0.4957871518773938, 0.07595140364207048, 0.17374416441086188,
    # 0.058424492732387534 and 0.046027514419034396 for the same values
    # (within 1e-12 relative).
    @pytest.mark.parametrize(
        "args, expected",
        [
            ((90, 16, 0.8), 0.024692086051828713),
            ((90, 16, 0.0), 0.4957871518773935),
            ((300, 4, 0.2), 0.028321320355936964),
            ((1000, 1024, 2.0), 0.07595140364207041),
        ],
    )
    def test_tail_pinned_values(self, args, expected):
        assert tail_probability(*args) == expected

    def test_pmf_pinned_values(self):
        assert access_frequency_pmf(90, 16)[5] == 0.1737441644108617
        assert access_frequency_pmf(1000, 1024)[3] == 0.05842449273238755
        assert access_frequency_pmf(300, 2)[150] == 0.04602751441903444

    def test_pmf_edge_cases(self):
        np.testing.assert_array_equal(access_frequency_pmf(3, 1), [0, 0, 0, 1])
        assert tail_probability(4, 2, 10.0) == 0.0
        with pytest.raises(ConfigurationError):
            access_frequency_pmf(5, 0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            tail_probability(0, 16, 0.5)
        with pytest.raises(ConfigurationError):
            tail_probability(90, 16, -0.1)
        with pytest.raises(ConfigurationError):
            expected_samples_above(0, 90, 16, 0.5)

    def test_paper_example_31635(self):
        """Sec 3.1: N=16, E=90, F=1281167, delta=0.8 -> ~31,635 samples."""
        value = expected_samples_above(1_281_167, 90, 16, 0.8)
        assert value == pytest.approx(31_635, rel=0.01)

    def test_expected_histogram_sums_to_F(self):
        hist = expected_histogram(10_000, 90, 16)
        assert hist.sum() == pytest.approx(10_000)

    def test_expected_histogram_peak_near_mean(self):
        hist = expected_histogram(10_000, 90, 16)
        assert abs(int(np.argmax(hist)) - 90 / 16) <= 1


class TestMonteCarlo:
    def test_histogram_matches_binomial(self):
        """Empirical per-worker frequency histogram tracks Binomial(E, 1/N)."""
        c = StreamConfig(3, 20_000, 8, 25, 16, drop_last=False)
        hist = monte_carlo_histogram(c, worker=0)
        expected = expected_histogram(c.num_samples, c.num_epochs, c.num_workers)
        observed = np.asarray(hist.counts, dtype=float)
        # Compare mass within +-2 of the mean (chi-square-ish sanity band).
        mean = c.num_epochs / c.num_workers
        lo, hi = int(mean) - 1, int(mean) + 2
        assert observed[lo:hi].sum() == pytest.approx(expected[lo:hi].sum(), rel=0.05)

    def test_histogram_total_is_F(self):
        c = StreamConfig(3, 5_000, 4, 10, 5, drop_last=False)
        hist = monte_carlo_histogram(c)
        assert sum(hist.counts) == c.num_samples

    def test_mean_frequency(self):
        c = StreamConfig(3, 5_000, 4, 10, 8, drop_last=False)
        hist = monte_carlo_histogram(c)
        assert hist.mean_frequency == pytest.approx(8 / 4, rel=0.02)

    def test_samples_above(self):
        c = StreamConfig(3, 5_000, 4, 10, 8, drop_last=False)
        hist = monte_carlo_histogram(c)
        assert hist.samples_above(hist.num_epochs) == 0
        assert hist.samples_above(0) <= c.num_samples


class TestLemma1:
    def test_bounds_paper_form(self):
        # N=16, E=90, delta=0.8: over-accessor has ceil(1.8 * 5.625) = 11.
        assert lemma1_upper_bound(90, 16, 0.8) == math.ceil(
            (16 - 1 - 0.8) / 15 * 90 / 16
        )
        assert lemma1_lower_bound(90, 16, 0.8) == math.floor(
            (16 - 1 + 0.8) / 15 * 90 / 16
        )

    def test_bounds_require_two_workers(self):
        with pytest.raises(ConfigurationError):
            lemma1_upper_bound(10, 1, 0.5)

    def test_exact_streams_satisfy_lemma(self):
        c = StreamConfig(5, 3_000, 4, 10, 12, drop_last=False)
        freqs = AccessStream(c).all_frequencies()
        assert verify_lemma1(freqs, c.num_epochs)

    def test_violating_matrix_detected(self):
        # Every worker accesses the sample E times: impossible under
        # without-replacement sampling; totals check must fire.
        bad = np.full((4, 10), 12)
        assert not verify_lemma1(bad, 12)

    def test_matrix_shape_validated(self):
        with pytest.raises(ConfigurationError):
            verify_lemma1(np.zeros(5), 5)
        with pytest.raises(ConfigurationError):
            verify_lemma1(np.zeros((1, 5)), 5)


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    workers=st.integers(min_value=2, max_value=6),
    epochs=st.integers(min_value=2, max_value=10),
)
def test_property_lemma1_holds_on_real_streams(seed, workers, epochs):
    """Property: Lemma 1 holds for every seeded stream configuration."""
    c = StreamConfig(seed, 600, workers, 5, epochs, drop_last=False)
    freqs = AccessStream(c).all_frequencies()
    assert verify_lemma1(freqs, epochs)
