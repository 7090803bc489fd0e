"""Seed-sharing execution: ``run_seed``/``run_seeds`` semantics.

The shared path must be a pure optimization: per-seed results are
bitwise identical to fresh ``Simulator.run()`` calls, in any
evaluation order (no RNG state may leak from one seed's run into the
next), and the :class:`~repro.sim.SeedShareStats` counters prove what
was actually shared.
"""

import dataclasses
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
        shared = Simulator(config).run_seeds(policy, SEEDS)
        assert sorted(shared) == sorted(SEEDS)
        for seed in SEEDS:
            assert shared[seed].to_json() == _fresh(config, policy, seed), seed

    def test_no_rng_leak_across_permutations(self):
        """Property (ISSUE 9): evaluation order never changes a result.

        Any RNG or cache state leaking from one seed's run into the
        next would make some permutation disagree with the fresh
        per-seed runs.
        """
        config = _config()
        policy = StagingBufferPolicy()
        expected = {seed: _fresh(config, policy, seed) for seed in SEEDS}
        rng = random.Random(0)
        for _ in range(4):
            order = SEEDS[:]
            rng.shuffle(order)
            shared = Simulator(config).run_seeds(policy, order)
            assert {s: r.to_json() for s, r in shared.items()} == expected, order

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
        config = _config(seed=7)
        sim = Simulator(config)
        assert sim.seed_variant(7) is sim
        assert sim.run_seed(NaivePolicy(), 7).to_json() == sim.run(
            NaivePolicy()
        ).to_json()

    def test_no_rng_leak_through_state_cache(self):
        """Property (ISSUE 10): the cloned RNG path never leaks state.

        One *reused* simulator serves every shuffled order, so from the
        second run on, every noise generator comes from the
        generator-state cache's rewind path (half-consumed streams
        rewound between runs). Any stale state would make some order
        disagree with the fresh per-seed runs.
        """
        config = _config()
        policy = StagingBufferPolicy()
        expected = {seed: _fresh(config, policy, seed) for seed in SEEDS}
        rng = random.Random(1)
        sim = Simulator(config)
        for _ in range(4):
            order = SEEDS[:]
            rng.shuffle(order)
            shared = sim.run_seeds(policy, order)
            assert {s: r.to_json() for s, r in shared.items()} == expected, order
        # The reruns were served by clones, not fresh derivations.
        variant = sim.seed_variant(SEEDS[0])
        states = variant.plan_cache.noise_states
        assert states.cloned > 0
        assert states.derived == config.num_epochs * config.system.num_workers

    def test_run_many_seed_matches_fresh_runs(self):
        """The grouped epoch-major seed path == fresh per-policy runs."""
        from repro.api import fig8_lineup

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
            assert sim.seed_variant(seed).ctx.held_epoch is None


class TestCounters:
    def test_invariant_policy_prep_shared_across_seeds(self):
        sim = Simulator(_config())
        policy = NaivePolicy()  # seed_invariant_prepare = True
        sim.run_seeds(policy, SEEDS)
        assert sim.seed_share.prep_misses == 1
        assert sim.seed_share.prep_hits == len(SEEDS) - 1
        # None of SEEDS is the base seed, so every one spawns a variant.
        assert sim.seed_share.variants == len(SEEDS)

    def test_seed_dependent_policy_reprepares_per_seed(self):
        sim = Simulator(_config())
        policy = NoPFSPolicy()  # prepare() reads the seeded streams
        assert not policy.seed_invariant_prepare
        sim.run_seeds(policy, SEEDS)
        assert sim.seed_share.prep_misses == len(SEEDS)
        assert sim.seed_share.prep_hits == 0

    def test_plan_scalars_adopted_by_variants(self):
        """Variant simulators inherit shared scalars instead of recomputing."""
        sim = Simulator(_config())
        sim.run_seeds(NaivePolicy(), SEEDS[:3])
        variant = sim.seed_variant(SEEDS[1])
        assert variant is not sim
        assert variant.plan_cache.scalar_hits > 0

    def test_variants_memoized(self):
        sim = Simulator(_config())
        assert sim.seed_variant(3) is sim.seed_variant(3)
        assert sim.seed_share.variants == 1

    def test_run_many_seed_mirrors_run_seed_counters(self):
        """Grouped prep counters match the sequential run_seed semantics."""
        sequential = Simulator(_config())
        grouped = Simulator(_config())
        policy = NaivePolicy()  # seed_invariant_prepare = True
        for seed in SEEDS:
            sequential.run_seed(policy, seed)
        for seed in SEEDS:
            grouped.run_many_seed([policy], seed)
        for field in ("prep_misses", "prep_hits", "variants"):
            assert getattr(grouped.seed_share, field) == getattr(
                sequential.seed_share, field
            ), field
