"""Other seeds: ``run_seed``/``run_many_seed`` semantics.

Running a scenario under another seed must be bitwise identical to a
fresh ``Simulator.run()`` on the reseeded config, in any evaluation
order (no RNG state may leak from one seed's run into the next). The
one state still shared across seeds is the dataset's size table: a
sibling simulator's config is a ``dataclasses.replace`` of the base
config, so it holds the same :class:`~repro.datasets.DatasetModel`.
"""

import dataclasses
import itertools
import random

import pytest

from repro.api import fig8_lineup
from repro.datasets import DatasetModel
from repro.perfmodel import sec6_cluster
from repro.sim import (
    NaivePolicy,
    NoPFSPolicy,
    SimulationConfig,
    Simulator,
    StagingBufferPolicy,
)
from repro.sweep.executors import _simulate_batch

SEEDS = [3, 7, 11, 19, 23]


def _config(seed: int = 5) -> SimulationConfig:
    ds = DatasetModel("seed-share", 1_600, 90.0 / 1_600, 0.02)
    return SimulationConfig(
        dataset=ds,
        system=sec6_cluster(),
        batch_size=8,
        num_epochs=2,
        seed=seed,
    )


def _fresh(config: SimulationConfig, policy, seed: int) -> str:
    return (
        Simulator(dataclasses.replace(config, seed=seed)).run(policy).to_json()
    )


class TestBitwiseEquality:
    @pytest.mark.parametrize(
        "policy",
        [NaivePolicy(), StagingBufferPolicy(), NoPFSPolicy()],
        ids=lambda p: p.name,
    )
    def test_run_seeds_matches_fresh_runs(self, policy):
        config = _config()
        sim = Simulator(config)
        for seed in SEEDS:
            assert sim.run_seed(policy, seed).to_json() == _fresh(
                config, policy, seed
            ), seed

    def test_no_rng_leak_across_permutations(self):
        """Property: evaluation order never changes a result.

        One base simulator serves every shuffled order. Any RNG or
        cache state leaking from one seed's run into the next would
        make some permutation disagree with the fresh per-seed runs.
        """
        config = _config()
        policy = StagingBufferPolicy()
        expected = {seed: _fresh(config, policy, seed) for seed in SEEDS}
        rng = random.Random(0)
        sim = Simulator(config)
        for _ in range(4):
            order = SEEDS[:]
            rng.shuffle(order)
            shared = {seed: sim.run_seed(policy, seed).to_json() for seed in order}
            assert shared == expected, order

    def test_interleaved_policies_share_cleanly(self):
        """Alternating policies between seeds must not cross-pollute."""
        config = _config()
        sim = Simulator(config)
        lineup = fig8_lineup()[:3]
        for seed in SEEDS[:3]:
            for policy in lineup:
                assert sim.run_seed(policy, seed).to_json() == _fresh(
                    config, policy, seed
                ), (policy.name, seed)

    def test_own_seed_short_circuits(self):
        """The base's own seed runs on the base; other seeds do not."""
        config = _config(seed=7)
        sim = Simulator(config)
        sim.run_seed(NaivePolicy(), 3)
        assert sim.ctx.perm_builds == 0
        own = sim.run_seed(NaivePolicy(), 7)
        assert sim.ctx.perm_builds == config.num_epochs
        assert own.to_json() == Simulator(config).run(NaivePolicy()).to_json()

    def test_no_rng_leak_through_state_cache(self):
        """Property: repeat runs on one simulator never leak RNG state.

        The base simulator's own seed is one of the shuffled seeds, so
        its repeat runs (every tile re-stating the noise kernel's
        scratch generator to freshly derived stream states) interleave
        with sibling runs on other seeds. Any stale state would make
        some order disagree with the fresh per-seed runs.
        """
        config = _config(seed=SEEDS[2])
        policy = StagingBufferPolicy()
        expected = {seed: _fresh(config, policy, seed) for seed in SEEDS}
        rng = random.Random(1)
        sim = Simulator(config)
        for _ in range(4):
            order = SEEDS[:]
            rng.shuffle(order)
            shared = {seed: sim.run_seed(policy, seed).to_json() for seed in order}
            assert shared == expected, order

    def test_run_many_seed_matches_fresh_runs(self):
        """The grouped epoch-major seed path == fresh per-policy runs."""
        config = _config()
        sim = Simulator(config)
        lineup = fig8_lineup()
        for seed in SEEDS[:3]:
            outcomes = sim.run_many_seed(lineup, seed)
            assert len(outcomes) == len(lineup)
            for policy, outcome in zip(lineup, outcomes):
                assert outcome.to_json() == _fresh(config, policy, seed), (
                    policy.name,
                    seed,
                )


def test_seed_batch_generates_dataset_sizes_once(monkeypatch):
    """A 4-seed Fig 8 pool batch builds the sample-size table once.

    The worker builds its base simulator from the batch's first config,
    and every other seed runs on a sibling whose config is a
    ``dataclasses.replace`` of it — same ``DatasetModel`` instance,
    same cached size table.
    """
    calls = []
    generate = DatasetModel._generate_sizes

    def spy(self):
        calls.append(self.name)
        return generate(self)

    monkeypatch.setattr(DatasetModel, "_generate_sizes", spy)
    seeds = SEEDS[:4]
    cells = list(itertools.product(seeds, fig8_lineup()))
    items = [(index, policy, seed) for index, (seed, policy) in enumerate(cells)]
    assert len(items) == 36
    done, failure = _simulate_batch((_config(seed=seeds[0]).to_dict(), items, None))
    assert failure is None
    assert sorted(index for index, *_ in done) == list(range(36))
    assert calls == ["seed-share"]
