"""Access-stream invariants: the paper's Sec 2/Sec 4 guarantees."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AccessStream, StreamConfig
from repro.core.shuffle import EpochShuffler
from repro.errors import ConfigurationError


def cfg(**kw):
    base = dict(
        seed=11, num_samples=1000, num_workers=4, batch_size=8, num_epochs=3
    )
    base.update(kw)
    return StreamConfig(**base)


class TestConfig:
    def test_global_batch(self):
        assert cfg().global_batch == 32

    def test_iterations(self):
        assert cfg().iterations_per_epoch == 1000 // 32

    def test_dropped(self):
        c = cfg()
        assert c.dropped_per_epoch == 1000 - 31 * 32

    def test_no_drop(self):
        assert cfg(drop_last=False).dropped_per_epoch == 0

    def test_rejects_oversize_batch(self):
        with pytest.raises(ConfigurationError):
            cfg(num_samples=10, batch_size=8, num_workers=4)

    def test_rejects_nonpositive(self):
        for field in ("num_samples", "num_workers", "batch_size", "num_epochs"):
            with pytest.raises(ConfigurationError):
                cfg(**{field: 0})

    def test_serialization_roundtrip(self):
        c = cfg()
        assert StreamConfig.from_dict(c.to_dict()) == c


class TestExactlyOnce:
    """'a given sample is accessed exactly once in each epoch' (Sec 2)."""

    def test_epoch_partition_disjoint_and_complete(self):
        stream = AccessStream(cfg(drop_last=False))
        seen = np.concatenate(
            [stream.worker_epoch_stream(w, 0) for w in range(4)]
        )
        np.testing.assert_array_equal(np.sort(seen), np.arange(1000))

    def test_drop_last_excludes_exactly_tail(self):
        c = cfg()
        stream = AccessStream(c)
        seen = np.concatenate([stream.worker_epoch_stream(w, 0) for w in range(4)])
        assert seen.size == c.num_samples - c.dropped_per_epoch
        assert np.unique(seen).size == seen.size

    def test_tail_plus_batches_is_permutation(self):
        stream = AccessStream(cfg())
        batches = stream.epoch_batches(0).reshape(-1)
        tail = stream.epoch_tail(0)
        np.testing.assert_array_equal(
            np.sort(np.concatenate([batches, tail])), np.arange(1000)
        )

    def test_workers_pairwise_disjoint(self):
        stream = AccessStream(cfg())
        sets = [set(stream.worker_epoch_stream(w, 1).tolist()) for w in range(4)]
        for i in range(4):
            for j in range(i + 1, 4):
                assert not (sets[i] & sets[j])


class TestDeterminism:
    def test_streams_reproducible(self):
        a = AccessStream(cfg()).worker_stream(2)
        b = AccessStream(cfg()).worker_stream(2)
        np.testing.assert_array_equal(a, b)

    def test_stream_length(self):
        c = cfg()
        s = AccessStream(c).worker_stream(0)
        assert s.size == c.samples_per_worker_per_epoch * c.num_epochs

    def test_batches_shape(self):
        c = cfg()
        assert AccessStream(c).epoch_batches(0).shape == (
            c.iterations_per_epoch,
            c.num_workers,
            c.batch_size,
        )

    def test_worker_block_matches_batches(self):
        """Worker i's stream is batch-major concatenation of its blocks."""
        stream = AccessStream(cfg())
        batches = stream.epoch_batches(0)
        np.testing.assert_array_equal(
            stream.worker_epoch_stream(1, 0), batches[:, 1, :].reshape(-1)
        )

    def test_invalid_worker(self):
        with pytest.raises(ConfigurationError):
            AccessStream(cfg()).worker_epoch_stream(4, 0)


class TestAssignment:
    def test_assignment_matches_streams(self):
        c = cfg()
        stream = AccessStream(c)
        assign = stream.epoch_assignment(0)
        for w in range(c.num_workers):
            ids = stream.worker_epoch_stream(w, 0)
            assert (assign[ids] == w).all()

    def test_dropped_marked(self):
        c = cfg()
        assign = AccessStream(c).epoch_assignment(0)
        assert (assign == -1).sum() == c.dropped_per_epoch

    def test_no_drop_all_assigned(self):
        c = cfg(drop_last=False)
        assign = AccessStream(c).epoch_assignment(0)
        assert (assign >= 0).all()

    def test_no_drop_tail_split_matches_streams(self):
        c = cfg(drop_last=False)
        stream = AccessStream(c)
        assign = stream.epoch_assignment(2)
        for w in range(c.num_workers):
            ids = stream.worker_epoch_stream(w, 2)
            assert (assign[ids] == w).all()


class TestFrequencies:
    def test_worker_frequencies_sum(self):
        c = cfg(drop_last=False)
        stream = AccessStream(c)
        freqs = stream.worker_frequencies(0)
        assert freqs.sum() == stream.worker_stream(0).size

    def test_all_frequencies_total_is_E(self):
        """Each sample accessed exactly E times across all workers."""
        c = cfg(drop_last=False)
        freqs = AccessStream(c).all_frequencies()
        np.testing.assert_array_equal(freqs.sum(axis=0), c.num_epochs)

    def test_all_matches_per_worker(self):
        c = cfg()
        stream = AccessStream(c)
        all_f = stream.all_frequencies()
        for w in range(c.num_workers):
            np.testing.assert_array_equal(all_f[w], stream.worker_frequencies(w))


class TestOnePermutationPerEpoch:
    """Without ``drop_last``, an epoch's batches and ragged tail are cut
    from one permutation draw; the outputs equal the composition of
    :meth:`epoch_batches` and :meth:`epoch_tail`."""

    # 1003 = 31 * 32 + 11: a tail the 4 workers split 3/3/3/2.
    CONFIG = cfg(num_samples=1003, drop_last=False)

    @pytest.fixture
    def draws(self, monkeypatch):
        epochs = []
        permutation = EpochShuffler.permutation
        monkeypatch.setattr(
            EpochShuffler,
            "permutation",
            lambda self, epoch: epochs.append(epoch) or permutation(self, epoch),
        )
        return epochs

    @staticmethod
    def composed(stream, worker, epoch):
        share = np.array_split(stream.epoch_tail(epoch), stream.config.num_workers)
        blocks = stream.epoch_batches(epoch)[:, worker, :].reshape(-1)
        return np.concatenate([blocks, share[worker]])

    def composed_counts(self, stream, worker):
        c = stream.config
        return sum(
            np.bincount(self.composed(stream, worker, e), minlength=c.num_samples)
            for e in range(c.num_epochs)
        )

    def test_epoch_batches_one_draw(self, draws):
        AccessStream(self.CONFIG).epoch_batches(1)
        assert draws == [1]

    def test_worker_epoch_stream(self, draws):
        c = self.CONFIG
        stream = AccessStream(c)
        for epoch in range(c.num_epochs):
            for worker in range(c.num_workers):
                expected = self.composed(stream, worker, epoch)
                draws.clear()
                got = stream.worker_epoch_stream(worker, epoch)
                assert draws == [epoch]
                np.testing.assert_array_equal(got, expected)

    def test_worker_frequencies(self, draws):
        c = self.CONFIG
        stream = AccessStream(c)
        for worker in range(c.num_workers):
            expected = self.composed_counts(stream, worker)
            draws.clear()
            got = stream.worker_frequencies(worker)
            assert draws == list(range(c.num_epochs))
            np.testing.assert_array_equal(got, expected)

    def test_all_frequencies(self, draws):
        c = self.CONFIG
        stream = AccessStream(c)
        expected = np.stack([self.composed_counts(stream, w) for w in range(c.num_workers)])
        draws.clear()
        got = stream.all_frequencies()
        assert draws == list(range(c.num_epochs))
        np.testing.assert_array_equal(got, expected)


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    n_workers=st.integers(min_value=1, max_value=8),
    batch=st.integers(min_value=1, max_value=16),
    epochs=st.integers(min_value=1, max_value=4),
    drop=st.booleans(),
)
def test_property_exactly_once_per_epoch(seed, n_workers, batch, epochs, drop):
    """Property: across workers, one epoch covers the dataset exactly once
    (minus the dropped tail), for any configuration."""
    f = max(n_workers * batch, 64)
    c = StreamConfig(seed, f, n_workers, batch, epochs, drop_last=drop)
    stream = AccessStream(c)
    seen = np.concatenate(
        [stream.worker_epoch_stream(w, epochs - 1) for w in range(n_workers)]
    )
    assert np.unique(seen).size == seen.size
    if not drop:
        assert seen.size == f
