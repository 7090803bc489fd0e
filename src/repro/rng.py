"""Deterministic random-number-generation utilities.

Clairvoyance (the paper's central idea) rests on *exact reproducibility*
of the pseudorandom access stream: "Given the seed used to shuffle the
indices, we can exactly replicate the result of the shuffles, no matter
the shuffle algorithm" (Sec 2). Everything stochastic in this library —
epoch shuffles, synthetic sample sizes, PFS noise, Monte-Carlo draws —
therefore flows through this module, which derives independent
:class:`numpy.random.Generator` streams from a single integer seed using
``SeedSequence`` spawn keys.

Two different callers asking for the same ``(seed, *key)`` always receive
generators producing identical output; different keys give statistically
independent streams. :func:`generator_states` derives the initial PCG64
states of a whole family at once — one key word varying, e.g. the
worker in ``(seed, "noise", epoch, w)`` — for callers that need one
stream per worker.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

__all__ = [
    "derive_seed_sequence",
    "generator",
    "generator_states",
    "spawn_generators",
    "DEFAULT_SEED",
]

#: Seed used by components when the caller does not supply one.
DEFAULT_SEED = 0xC1A1B0


def _normalize_key(key: Iterable[object]) -> tuple[int, ...]:
    """Map a mixed key (ints / strings) to a tuple of uint32-safe ints."""
    out: list[int] = []
    for part in key:
        if isinstance(part, (int, np.integer)):
            out.append(int(part) & 0xFFFFFFFF)
        elif isinstance(part, str):
            # Stable, platform-independent string hash (FNV-1a, 32-bit).
            h = 0x811C9DC5
            for ch in part.encode("utf-8"):
                h = ((h ^ ch) * 0x01000193) & 0xFFFFFFFF
            out.append(h)
        else:
            raise TypeError(f"rng key parts must be int or str, got {type(part)!r}")
    return tuple(out)


def derive_seed_sequence(seed: int, *key: object) -> np.random.SeedSequence:
    """Return the ``SeedSequence`` for stream ``key`` under root ``seed``."""
    return np.random.SeedSequence(entropy=int(seed), spawn_key=_normalize_key(key))


def generator(seed: int, *key: object) -> np.random.Generator:
    """Return a PCG64 :class:`~numpy.random.Generator` for stream ``key``.

    Example: ``generator(seed, "shuffle", epoch)`` is the canonical epoch
    shuffle stream used by :mod:`repro.core.shuffle`.
    """
    return np.random.Generator(np.random.PCG64(derive_seed_sequence(seed, *key)))


def spawn_generators(seed: int, n: int, *key: object) -> list[np.random.Generator]:
    """Return ``n`` independent generators under ``(seed, *key, i)``."""
    return [generator(seed, *key, i) for i in range(n)]


# NumPy's SeedSequence mixing constants (numpy/random/bit_generator.pyx)
# and PCG64's 128-bit LCG multiplier. Both are covered by NumPy's stream
# compatibility guarantee; tests/test_rng.py pins the replay below
# against generator().
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_MASK32 = 0xFFFFFFFF
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _hashmix(value, hash_const: int, mult: int = _MULT_A):
    """SeedSequence's ``hashmix`` on a uint32 word or uint32 array.

    Returns the mixed value and the next hash constant. Python ints are
    masked to 32 bits; uint32 arrays wrap on their own.
    """
    value = value ^ hash_const
    hash_const = (hash_const * mult) & _MASK32
    value = (value * hash_const) & _MASK32
    return value ^ (value >> 16), hash_const


def _mix(x, y):
    """SeedSequence's ``mix`` of two uint32 words (or uint32 arrays).

    Either side may be a Python int or a uint32 array: both products
    are reduced mod 2**32 before the subtraction, so a Python-int
    product never meets an array out of uint32's range.
    """
    result = (((_MIX_MULT_L * x) & _MASK32) - ((_MIX_MULT_R * y) & _MASK32)) & _MASK32
    return result ^ (result >> 16)


def generator_states(seed: int, *key: object) -> list[dict]:
    """PCG64 states of a stream family whose key varies in one word.

    Exactly one part of ``key`` is a 1-D sequence of integers (a
    ``range``, list or int/uint array) — the family's varying word; the
    other parts are ints and strings as for :func:`generator`. Entry
    ``i`` equals ``generator(seed, *key_i).bit_generator.state``, where
    ``key_i`` is ``key`` with the sequence replaced by its ``i``-th
    element: ``generator_states(seed, "noise", epoch, range(n))`` gives
    the states of ``generator(seed, "noise", epoch, w)`` for every
    ``w < n``, and ``generator_states(seed, "policy", tag, range(n),
    epoch)`` those of ``generator(seed, "policy", tag, w, epoch)``. A
    generator re-stated to an entry replays that stream bitwise.

    It replays NumPy's entropy mixing word by word without building one
    ``SeedSequence`` and ``PCG64`` per stream: the words before the
    varying one are mixed once in Python ints, and from the varying
    word on the mixing, the 8-word ``generate_state(4, uint64)`` output
    and PCG64's two-step seeding run per entry (the mixing vectorized as
    uint32 arrays). The varying words are masked to 32 bits, as
    :func:`generator` masks key parts.
    """
    seed = int(seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    varying = [
        i for i, part in enumerate(key) if not isinstance(part, (int, np.integer, str))
    ]
    if len(varying) != 1:
        raise TypeError(
            "generator_states needs exactly one key part that is a sequence of "
            f"integers, got {len(varying)}"
        )
    (at,) = varying
    family = np.asarray(key[at])
    if family.ndim != 1 or (family.size and family.dtype.kind not in "iu"):
        raise TypeError(
            f"the varying key word must be a 1-D integer sequence, got {family.dtype} "
            f"of shape {family.shape}"
        )
    words: list = []
    while True:
        words.append(seed & _MASK32)
        seed >>= 32
        if not seed:
            break
    # A spawned sequence zero-pads its run entropy to the pool size, so
    # every key word mixes in after the pool is full.
    words += [0] * (_POOL_SIZE - len(words))
    words += _normalize_key(key[:at])
    words.append((family.astype(np.int64, copy=False) & _MASK32).astype(np.uint32))
    words += _normalize_key(key[at + 1 :])

    # SeedSequence.mix_entropy.
    hash_const = _INIT_A
    pool = []
    for word in words[:_POOL_SIZE]:
        mixed, hash_const = _hashmix(word, hash_const)
        pool.append(mixed)
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                mixed, hash_const = _hashmix(pool[i_src], hash_const)
                pool[i_dst] = _mix(pool[i_dst], mixed)
    for word in words[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            mixed, hash_const = _hashmix(word, hash_const)
            pool[i_dst] = _mix(pool[i_dst], mixed)
    # generate_state(4, uint64): 8 uint32 words cycling over the pool.
    hash_const = _INIT_B
    out = []
    for i in range(2 * _POOL_SIZE):
        value, hash_const = _hashmix(pool[i % _POOL_SIZE], hash_const, _MULT_B)
        out.append(value.astype(np.uint64))
    # Little-endian pairs -> 4 uint64 words: seed = w0:w1, increment = w2:w3.
    seed_hi, seed_lo, inc_hi, inc_lo = (
        (out[2 * k] | (out[2 * k + 1] << np.uint64(32))).tolist() for k in range(4)
    )
    states = []
    for s_hi, s_lo, i_hi, i_lo in zip(seed_hi, seed_lo, inc_hi, inc_lo):
        # pcg64_srandom_r: inc = 2*seq + 1; state = (inc + seed) * M + inc.
        inc = (((i_hi << 64) | i_lo) << 1 | 1) & _MASK128
        state = ((inc + ((s_hi << 64) | s_lo)) * _PCG64_MULT + inc) & _MASK128
        states.append(
            {
                "bit_generator": "PCG64",
                "state": {"state": state, "inc": inc},
                "has_uint32": 0,
                "uinteger": 0,
            }
        )
    return states
