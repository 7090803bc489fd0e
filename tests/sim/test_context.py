"""ScenarioContext caching and stream-helper tests."""

import dataclasses
import gc
import weakref

import numpy as np
import pytest

from repro.datasets import DatasetModel
from repro.errors import ConfigurationError, PolicyError
from repro.perfmodel import sec6_cluster
from repro.sim import NoPFSPolicy, ScenarioContext, SimulationConfig, Simulator


def ctx(n_samples=2_000, epochs=3, batch=8):
    ds = DatasetModel("x", n_samples, 0.1)
    cfg = SimulationConfig(
        dataset=ds, system=sec6_cluster(), batch_size=batch, num_epochs=epochs
    )
    return ScenarioContext(cfg)


class TestStreams:
    def test_worker_ids_match_access_stream(self):
        c = ctx()
        expected = c.stream.worker_epoch_stream(2, 1)
        np.testing.assert_array_equal(c.worker_epoch_ids(2, 1), expected)

    def test_lengths(self):
        c = ctx()
        assert c.worker_epoch_ids(0, 0).size == c.samples_per_worker_per_epoch


class TestEpochMatrix:
    def test_rows_are_worker_streams(self):
        c = ctx()
        mat = c.epoch_matrix(1)
        assert mat.shape == (c.num_workers, c.samples_per_worker_per_epoch)
        for worker in range(c.num_workers):
            np.testing.assert_array_equal(
                mat[worker], c.stream.worker_epoch_stream(worker, 1)
            )

    def test_matches_batch_view(self):
        c = ctx()
        batches = c.stream.epoch_batches(0)  # (T, N, B)
        mat = c.epoch_matrix(0)
        for worker in range(c.num_workers):
            np.testing.assert_array_equal(
                mat[worker], batches[:, worker, :].reshape(-1)
            )

    def test_worker_rows_are_views(self):
        c = ctx()
        assert np.shares_memory(c.worker_epoch_ids(1, 0), c.epoch_matrix(0))

    def test_worker_mb_aligned(self):
        c = ctx()
        sizes = c.sizes_mb[c.epoch_matrix(2)]
        np.testing.assert_array_equal(c.worker_mb(2), sizes.sum(axis=1))

    def test_worker_mb_memoized(self):
        c = ctx()
        totals = c.worker_mb(1)
        builds = c.perm_builds
        c.epoch_matrix(0)  # replaces epoch 1 in the resident slot
        assert c.worker_mb(1) is totals
        assert c.perm_builds == builds + 1
        with pytest.raises(ValueError):
            totals[0] = -1

    def test_cached_permutation_is_read_only(self):
        """Mutating the shared views must raise, not corrupt the resident slot."""
        c = ctx()
        with pytest.raises(ValueError):
            c.epoch_matrix(0)[0, 0] = -1
        with pytest.raises(ValueError):
            c.worker_epoch_ids(1, 0)[0] = -1


class TestFrequencies:
    def test_sparse_counts_match_dense(self):
        c = ctx()
        sparse = c.worker_frequencies_sparse()
        for worker in range(c.num_workers):
            dense = c.stream.worker_frequencies(worker)
            ids, counts = sparse[worker]
            rebuilt = np.zeros_like(dense)
            rebuilt[ids] = counts
            np.testing.assert_array_equal(rebuilt, dense)

    def test_rebuilt_per_call(self):
        """The context keeps no table: a second call reads all E epochs again."""
        c = ctx()
        first = c.worker_frequencies_sparse()
        builds = c.perm_builds  # E: epoch E-1 is left resident
        second = c.worker_frequencies_sparse()
        assert second is not first
        assert c.perm_builds == builds + c.config.num_epochs
        for (ids, counts), (ids_again, counts_again) in zip(first, second, strict=True):
            np.testing.assert_array_equal(ids_again, ids)
            np.testing.assert_array_equal(counts_again, counts)

    def test_rows_built_on_read(self):
        """The table keeps the sorted ids and their flags, not every row's
        arrays: a row read and dropped is freed while the table lives."""
        c = ctx()
        table = c.worker_frequencies_sparse()
        ids, counts = table[1]
        refs = [weakref.ref(ids), weakref.ref(counts)]
        del ids, counts
        assert [ref() for ref in refs] == [None, None]
        assert len(table) == len(list(table)) == c.num_workers
        with pytest.raises(TypeError):
            table[0:2]

    def test_nopfs_run_keeps_no_table(self):
        """The table NoPFS's prepare reads is freed once its placement exists."""
        sim = Simulator(ctx().config)
        build = sim.ctx.worker_frequencies_sparse
        arrays = []

        def spy():
            table = build()
            arrays.extend(weakref.ref(a) for pair in table for a in pair)
            return table

        sim.ctx.worker_frequencies_sparse = spy
        sim.run(NoPFSPolicy())
        gc.collect()
        assert len(arrays) == 2 * sim.ctx.num_workers
        assert all(ref() is None for ref in arrays)


class TestTiledStream:
    def test_length_is_L(self):
        c = ctx()
        ids = np.arange(10)
        out = c.tiled_epoch_stream(ids, 0, 0, "t")
        assert out.size == c.samples_per_worker_per_epoch

    def test_truncates_large_sets(self):
        c = ctx()
        ids = np.arange(c.samples_per_worker_per_epoch * 3)
        out = c.tiled_epoch_stream(ids, 0, 0, "t")
        assert out.size == c.samples_per_worker_per_epoch
        assert np.unique(out).size == out.size  # no repeats when enough ids

    def test_only_draws_from_pool(self):
        c = ctx()
        ids = np.array([3, 7, 11])
        out = c.tiled_epoch_stream(ids, 0, 0, "t")
        assert set(out.tolist()) <= {3, 7, 11}

    def test_deterministic_and_epoch_dependent(self):
        c = ctx()
        ids = np.arange(50)
        a = c.tiled_epoch_stream(ids, 1, 2, "t")
        b = c.tiled_epoch_stream(ids, 1, 2, "t")
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c.tiled_epoch_stream(ids, 1, 3, "t"))

    def test_worker_dependent(self):
        c = ctx()
        ids = np.arange(50)
        assert not np.array_equal(
            c.tiled_epoch_stream(ids, 0, 0, "t"),
            c.tiled_epoch_stream(ids, 1, 0, "t"),
        )

    def test_empty_pool_rejected(self):
        c = ctx()
        with pytest.raises(ConfigurationError):
            c.tiled_epoch_stream(np.empty(0, dtype=np.int64), 0, 0, "t")


class TestHoldEpoch:
    """The single resident epoch: the one requested last."""

    def test_hold_builds_nothing(self):
        c = ctx()
        c.hold_epoch(0)
        assert c.perm_builds == 0
        assert c.held_epoch is None

    def test_held_epoch_served_without_rebuilding(self):
        c = ctx()
        c.hold_epoch(1)
        first = c.epoch_matrix(1)
        assert c.perm_builds == 1
        assert c.held_epoch == 1
        assert c.epoch_matrix(1) is first
        assert c.perm_builds == 1

    def test_held_matrix_bitwise_matches_unheld(self):
        c = ctx()
        expected = c.epoch_matrix(1).copy()
        c.release_held_epoch()
        c.hold_epoch(1)
        np.testing.assert_array_equal(c.epoch_matrix(1), expected)

    def test_rolls_one_epoch_at_a_time(self):
        c = ctx()
        c.epoch_matrix(0)
        c.epoch_matrix(1)
        assert c.held_epoch == 1
        # The replaced epoch rebuilds; the resident one doesn't.
        c.epoch_matrix(1)
        assert c.perm_builds == 2
        c.epoch_matrix(0)
        assert c.perm_builds == 3
        assert c.held_epoch == 0

    def test_hold_drops_other_epoch(self):
        c = ctx()
        c.epoch_matrix(0)
        c.hold_epoch(1)
        assert c.held_epoch is None
        c.epoch_matrix(0)
        assert c.perm_builds == 2

    def test_re_hold_is_a_no_op(self):
        c = ctx()
        c.hold_epoch(2)
        held = c.epoch_matrix(2)
        c.hold_epoch(2)
        assert c.epoch_matrix(2) is held

    def test_release(self):
        c = ctx()
        c.epoch_matrix(0)
        c.release_held_epoch()
        assert c.held_epoch is None
        assert c.perm_builds == 1
        c.epoch_matrix(0)
        assert c.perm_builds == 2

    def test_perm_builds_counts_materializations(self):
        c = ctx()
        assert c.perm_builds == 0
        c.epoch_matrix(0)
        c.epoch_matrix(0)
        assert c.perm_builds == 1
        # Reads every epoch once; epoch 0 is still resident.
        c.worker_frequencies_sparse()
        assert c.perm_builds == c.config.num_epochs


class TestPreparedMemo:
    """``ScenarioContext.prepare``: plain by default, memoized on request."""

    def test_plain_context_prepares_afresh(self):
        c = ctx()
        policy = NoPFSPolicy()
        assert c.prepared is None
        assert c.prepare(policy) is not c.prepare(policy)

    def test_memo_serves_the_same_object_per_policy(self):
        c = ctx()
        c.prepared = {}
        policy = NoPFSPolicy()
        prep = c.prepare(policy)
        assert c.prepare(policy) is prep
        # Keyed by the policy object: an equal twin prepares its own.
        assert c.prepare(NoPFSPolicy()) is not prep

    def test_memoized_error_keeps_its_text_and_no_traceback(self):
        from repro.api import Scenario
        from repro.errors import PolicyError

        scenario = Scenario(
            dataset="imagenet22k",
            system="sec6_cluster:2",
            policy="lbann:dynamic",
            batch_size=32,
            num_epochs=2,
        )
        plain = ScenarioContext(scenario.build_config())
        memo = ScenarioContext(scenario.build_config())
        memo.prepared = {}
        policy = scenario.build_policy()
        expected = plain.prepare(policy)
        error = memo.prepare(policy)
        assert isinstance(error, PolicyError)
        assert str(error) == str(expected)
        assert error.__traceback__ is None
        assert memo.prepare(policy) is error

    def test_dropped_context_frees_itself_and_its_lineup(self):
        """Prepared policies never refer to their context, stream
        rewriters included: a context dropped with its memo still set
        is freed with no collection."""
        from repro.api.presets import make_policy

        c = ctx()
        c.prepared = {}
        specs = ("deepio:opportunistic", "locality_aware", "parallel_staging", "nopfs")
        preps = [c.prepare(make_policy(spec)) for spec in specs]
        assert [prep.pools is not None for prep in preps] == [True, True, True, False]
        refs = [weakref.ref(c), *(weakref.ref(prep) for prep in preps)]
        del preps
        gc.disable()
        try:
            del c
            alive = [ref for ref in refs if ref() is not None]
        finally:
            gc.enable()
        assert not alive


class TestStoredErrors:
    """An unsupported cell's error keeps no frame, so it pins no context."""

    @staticmethod
    def _alive_after_outcomes(config, policies):
        """Whether the simulator's context outlives it and its outcomes,
        with the cyclic collector off."""
        gc.disable()
        try:
            sim = Simulator(config)
            ref = weakref.ref(sim.ctx)
            outcomes = sim.run_many_outcomes(policies)
            assert isinstance(outcomes[0], PolicyError)
            del sim, outcomes
            return ref() is not None
        finally:
            gc.enable()

    def test_prepare_time_error(self):
        from repro.api import Scenario

        scenario = Scenario(
            dataset="imagenet1k",
            system={"name": "piz_daint:8", "class_capacities_mb": [0.0]},
            policy="parallel_staging",
            batch_size=32,
            num_epochs=2,
            scale=0.01,
        )
        policies = [scenario.build_policy()]
        assert not self._alive_after_outcomes(scenario.build_config(), policies)

    def test_mid_epoch_error(self):
        from repro.api.presets import make_policy

        from .test_fetch_table import _config, _Placed

        policies = [_Placed(uncovered_from=2), make_policy("naive")]
        assert not self._alive_after_outcomes(_config(), policies)


class TestLentContext:
    """``Simulator(config, ctx=...)`` takes only a context of an equal config."""

    @pytest.mark.parametrize("change", [dict(seed=2), dict(batch_size=4)])
    def test_context_of_another_scenario_rejected(self, change):
        other = ctx()
        config = dataclasses.replace(other.config, **change)
        with pytest.raises(ConfigurationError, match="another scenario"):
            Simulator(config, ctx=other)

    def test_equal_config_shares_the_context(self):
        c = ctx()
        twin = dataclasses.replace(c.config)
        assert twin is not c.config and twin == c.config
        assert Simulator(twin, ctx=c).ctx is c
        assert Simulator(c.config, ctx=c).ctx is c

    def test_memoized_lineup_simulates_bitwise(self):
        """A simulator on a memoizing context, after the memo is filled by
        a lower bound, returns a fresh simulator's results."""
        from repro.api.presets import make_policy
        from repro.sim import policy_lower_bound

        c = ctx()
        c.prepared = {}
        policies = [make_policy(s) for s in ("naive", "deepio:opportunistic", "nopfs")]
        for policy in policies:
            policy_lower_bound(c.config, policy, c)
        assert all(prep.scalars is not None for prep in c.prepared.values())
        shared = Simulator(c.config, ctx=c).run_many_outcomes(policies)
        fresh = Simulator(c.config).run_many_outcomes(policies)
        assert [r.to_dict() for r in shared] == [r.to_dict() for r in fresh]
        assert set(c.prepared) == set(policies)
