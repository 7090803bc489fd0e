"""Determinism and independence tests for the RNG substrate."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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


#: Root seeds around every word boundary of SeedSequence's entropy
#: coercion (one, two, three and five uint32 words), plus the default.
STATE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**130 + 17, rng.DEFAULT_SEED]

#: Varying key words, masked to 32 bits like every key part (2**32 -> 0).
LAST_WORDS = [0, 1, 2**32 - 1, 2**32]

#: A key longer than SeedSequence's 4-word pool, mixing ints and strings.
LONG_KEY = ("policy", "deepio_opportunistic", 2**33 + 5, "x", -7, 11)


def _fresh_state(seed, key, word, at=None):
    """``generator(seed, *key)``'s state with ``word`` inserted at ``at``
    (default: last)."""
    at = len(key) if at is None else at
    return rng.generator(seed, *key[:at], word, *key[at:]).bit_generator.state


def _family(seed, key, words, at=None):
    at = len(key) if at is None else at
    with warnings.catch_warnings():
        # CI runs the smokes under PYTHONWARNINGS=error: mixing Python
        # ints into uint32 arrays must never warn about overflow.
        warnings.simplefilter("error")
        return rng.generator_states(seed, *key[:at], words, *key[at:])


class TestGeneratorStates:
    @pytest.mark.parametrize("seed", STATE_SEEDS)
    def test_equals_fresh_generator_states(self, seed):
        for _, key in [*KEY_SHAPES, (None, ())]:
            states = _family(seed, key, LAST_WORDS)
            assert len(states) == len(LAST_WORDS)
            for last, state in zip(LAST_WORDS, states):
                assert state == _fresh_state(seed, key, last), (seed, key, last)

    @pytest.mark.parametrize("seed", STATE_SEEDS)
    @pytest.mark.parametrize("at", range(len(LONG_KEY) + 1))
    def test_varying_word_at_every_position(self, seed, at):
        """The varying word may sit anywhere in a key longer than the pool."""
        states = _family(seed, LONG_KEY, LAST_WORDS, at)
        assert states == [_fresh_state(seed, LONG_KEY, w, at) for w in LAST_WORDS]

    def test_policy_stream_family(self):
        """The stream rewriters' key: the worker is a middle word."""
        states = rng.generator_states(5, "policy", "locality_aware", range(4), 2)
        assert states == [
            rng.generator(5, "policy", "locality_aware", w, 2).bit_generator.state
            for w in range(4)
        ]

    def test_restated_generator_replays_stream(self):
        """A generator re-stated to a derived state draws the fresh stream."""
        seed, key = KEY_SHAPES[-1]
        scratch = np.random.Generator(np.random.PCG64(0))
        for last, state in enumerate(rng.generator_states(seed, *key, range(3))):
            scratch.bit_generator.state = state
            fresh = rng.generator(seed, *key, last)
            np.testing.assert_array_equal(
                scratch.lognormal(0.0, 0.3, 16), fresh.lognormal(0.0, 0.3, 16)
            )
            np.testing.assert_array_equal(scratch.random(8), fresh.random(8))
            np.testing.assert_array_equal(
                scratch.permutation(40), fresh.permutation(40)
            )

    def test_accepts_integer_arrays(self):
        words = np.array([5, 2**32 + 5], dtype=np.uint64)
        a, b = rng.generator_states(9, "noise", 0, words)
        assert a == b == _fresh_state(9, ("noise", 0), 5)
        assert rng.generator_states(9, "noise", np.arange(0)) == []
        assert rng.generator_states(9, range(0), "noise") == []

    def test_negative_seed_raises_like_generator(self):
        with pytest.raises(ValueError) as fresh:
            rng.generator(-1, "noise", 0)
        with pytest.raises(type(fresh.value), match=str(fresh.value)):
            rng.generator_states(-1, "noise", [0])

    def test_bad_key_type(self):
        with pytest.raises(TypeError):
            rng.generator_states(1, 3.14, [0])
        with pytest.raises(TypeError):
            rng.generator_states(1, "noise", [0.5])
        with pytest.raises(TypeError, match="exactly one"):
            rng.generator_states(1, "noise", 0)
        with pytest.raises(TypeError, match="exactly one"):
            rng.generator_states(1, [0], "noise", [1])
        with pytest.raises(TypeError, match="1-D"):
            rng.generator_states(1, "noise", np.zeros((2, 2), dtype=np.int64))

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.one_of(
            st.integers(min_value=0, max_value=2**32 - 1),
            st.integers(min_value=2**32, max_value=2**160 - 1),
        ),
        key=st.lists(
            st.one_of(st.integers(-(2**40), 2**40), st.text(max_size=6)), max_size=7
        ),
        at=st.integers(min_value=0, max_value=7),
        last=st.lists(st.integers(-(2**40), 2**40), min_size=1, max_size=4),
    )
    @example(seed=2**64 + 3, key=list(LONG_KEY), at=0, last=[0, 2**32 + 1])
    @example(seed=2**32, key=list(LONG_KEY), at=3, last=[7])
    @example(seed=2**130 + 17, key=list(LONG_KEY), at=6, last=[-1, 5])
    def test_property_equals_fresh_generator_states(self, seed, key, at, last):
        """Any seed, any key, the varying word at any position."""
        at = min(at, len(key))
        states = _family(seed, tuple(key), last, at)
        assert states == [_fresh_state(seed, tuple(key), w, at) for w in last]
