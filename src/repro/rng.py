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
independent streams.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

__all__ = [
    "GeneratorStateCache",
    "derive_seed_sequence",
    "generator",
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


class GeneratorStateCache:
    """Derive each keyed stream's PCG64 state once; clone it thereafter.

    :func:`generator` pays the full ``SeedSequence`` expansion (key
    normalization, entropy mixing, state initialization) on every call
    — ~18us, which profiling shows is ~20% of a noisy N=64 simulator
    cell, because the engine asks for the same ``(seed, "noise",
    epoch, worker)`` streams again for every policy of a comparison
    and every repeat run. This cache derives a key's *initial* PCG64
    state once and afterwards rewinds a retained
    :class:`~numpy.random.Generator` to that state by plain state
    assignment (~1.4us; default-constructing a fresh ``PCG64`` would
    re-pay OS entropy gathering and cost nearly as much as deriving).

    The returned stream is therefore bitwise identical to a fresh
    ``generator(seed, *key)`` — same bit generator, same initial state
    — pinned by ``tests/test_rng.py``.

    Aliasing contract: repeated requests for one key return the *same*
    generator object, rewound. Callers must finish consuming a key's
    stream before requesting that key again (the engine does: noise
    generators are drained inside the tile that requested them).

    ``derived`` / ``cloned`` count the two paths, proving how much
    sharing actually happened.
    """

    def __init__(self) -> None:
        #: (entropy, normalized key) -> (retained generator, initial state).
        self._entries: dict[
            tuple[int, tuple[int, ...]], tuple[np.random.Generator, dict]
        ] = {}
        self.derived = 0
        self.cloned = 0

    def __len__(self) -> int:
        return len(self._entries)

    def generator(self, seed: int, *key: object) -> np.random.Generator:
        """The stream for ``(seed, *key)`` — derived once, rewound after."""
        cache_key = (int(seed), _normalize_key(key))
        entry = self._entries.get(cache_key)
        if entry is None:
            self.derived += 1
            gen = generator(seed, *key)
            # ``.state`` returns a fresh dict, so the snapshot is
            # immune to the generator advancing.
            self._entries[cache_key] = (gen, gen.bit_generator.state)
            return gen
        self.cloned += 1
        gen, state = entry
        gen.bit_generator.state = state
        return gen

    def clear(self) -> None:
        """Drop every cached stream (counters are preserved)."""
        self._entries.clear()
