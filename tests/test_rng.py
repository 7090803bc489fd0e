"""Determinism and independence tests for the RNG substrate."""

import numpy as np
import pytest

from repro import rng


class TestDeterminism:
    def test_same_key_same_stream(self):
        a = rng.generator(7, "shuffle", 3).random(100)
        b = rng.generator(7, "shuffle", 3).random(100)
        np.testing.assert_array_equal(a, b)

    def test_different_epoch_different_stream(self):
        a = rng.generator(7, "shuffle", 3).random(100)
        b = rng.generator(7, "shuffle", 4).random(100)
        assert not np.array_equal(a, b)

    def test_different_seed_different_stream(self):
        a = rng.generator(7, "shuffle", 3).random(100)
        b = rng.generator(8, "shuffle", 3).random(100)
        assert not np.array_equal(a, b)

    def test_string_key_stable(self):
        a = rng.generator(1, "noise").random(10)
        b = rng.generator(1, "noise").random(10)
        np.testing.assert_array_equal(a, b)

    def test_string_keys_distinct(self):
        a = rng.generator(1, "noise").random(10)
        b = rng.generator(1, "sizes").random(10)
        assert not np.array_equal(a, b)

    def test_mixed_key(self):
        g = rng.generator(1, "worker", 5, "epoch", 2)
        assert g.random() == rng.generator(1, "worker", 5, "epoch", 2).random()

    def test_bad_key_type(self):
        with pytest.raises(TypeError):
            rng.generator(1, 3.14)


class TestSpawn:
    def test_spawn_count(self):
        gens = rng.spawn_generators(9, 4, "threads")
        assert len(gens) == 4

    def test_spawned_independent(self):
        gens = rng.spawn_generators(9, 3, "threads")
        draws = [g.random(50) for g in gens]
        assert not np.array_equal(draws[0], draws[1])
        assert not np.array_equal(draws[1], draws[2])

    def test_spawned_reproducible(self):
        a = rng.spawn_generators(9, 2, "t")[1].random(5)
        b = rng.spawn_generators(9, 2, "t")[1].random(5)
        np.testing.assert_array_equal(a, b)

    def test_negative_seed_normalized(self):
        # keys are masked to 32 bits; the entropy itself accepts any int >= 0
        g = rng.generator(3, -1)
        assert g.random() == rng.generator(3, -1).random()


#: Key shapes exercising every normalization branch: bare ints, strings,
#: mixed, empty, and the engine's canonical noise key.
KEY_SHAPES = [
    (7, ()),
    (7, (3,)),
    (7, ("noise", 0, 1)),
    (7, ("noise", 0, 2)),
    (1, ("shuffle", 5, "sub")),
    (0xC1A1B0, ("noise", 11, 63)),
]


class TestGeneratorStateCache:
    def test_clone_bitwise_matches_fresh_across_key_shapes(self):
        """Property (ISSUE 10): a state-cloned stream == a fresh stream.

        For every key shape, both the first (derived) and every later
        (rewound) request must reproduce ``generator(seed, *key)``'s
        stream exactly — across the draw kinds the engine consumes
        (lognormal, uniform, standard normal).
        """
        cache = rng.GeneratorStateCache()
        for seed, key in KEY_SHAPES:
            def draws(g):
                return (g.lognormal(0.0, 0.3, 16), g.random(8), g.standard_normal(4))
            fresh = draws(rng.generator(seed, *key))
            for trip in ("derived", "cloned", "cloned-again"):
                got = draws(cache.generator(seed, *key))
                for a, b in zip(got, fresh):
                    np.testing.assert_array_equal(a, b, err_msg=f"{key} {trip}")

    def test_rewinds_consumed_state(self):
        """A half-consumed stream rewinds to its start on re-request."""
        cache = rng.GeneratorStateCache()
        first = cache.generator(9, "noise", 0, 0)
        first.random(1000)  # advance arbitrarily far
        again = cache.generator(9, "noise", 0, 0)
        np.testing.assert_array_equal(
            again.random(32), rng.generator(9, "noise", 0, 0).random(32)
        )

    def test_same_object_rewound(self):
        """The cache retains one generator per key (the cheap path)."""
        cache = rng.GeneratorStateCache()
        assert cache.generator(9, "n", 0) is cache.generator(9, "n", 0)

    def test_counters(self):
        cache = rng.GeneratorStateCache()
        cache.generator(9, "noise", 0, 0)
        cache.generator(9, "noise", 0, 1)
        cache.generator(9, "noise", 0, 0)
        cache.generator(9, "noise", 0, 1)
        assert cache.derived == 2
        assert cache.cloned == 2
        assert len(cache) == 2

    def test_distinct_keys_distinct_streams(self):
        cache = rng.GeneratorStateCache()
        a = cache.generator(9, "noise", 0, 0).random(50)
        b = cache.generator(9, "noise", 0, 1).random(50)
        assert not np.array_equal(a, b)

    def test_clear_preserves_counters(self):
        cache = rng.GeneratorStateCache()
        cache.generator(9, "n")
        cache.generator(9, "n")
        cache.clear()
        assert len(cache) == 0
        assert (cache.derived, cache.cloned) == (1, 1)
