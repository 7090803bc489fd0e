"""Content-addressed cache for simulation results.

Storage is pluggable (:mod:`repro.sweep.backends`): the default
:class:`~repro.sweep.backends.LocalDirBackend` keeps the original
layout — ``<root>/<key[:2]>/<key>.json``, one JSON file per grid cell —
and :class:`ResultCache` accepts any
:class:`~repro.sweep.backends.CacheBackend` in place of a directory.
``key`` is the SHA-256 over the canonical JSON of

* the full :meth:`~repro.config.ConfigMixin.to_dict` serialization of
  the cell's :class:`~repro.sim.config.SimulationConfig` (dataset,
  system, noise, seed — everything that determines the simulation),
* the policy fingerprint — class name, policy name and constructor
  state (``vars(policy)`` minus cosmetics), and
* the code fingerprint — ``repro.__version__`` plus a digest of the
  simulation-relevant source (``core``, ``datasets``, ``perfmodel``,
  ``sim``, and the shared config/rng/units modules) and this module's
  ``CACHE_SCHEMA_VERSION``.

Invalidation rule: there is none to run by hand. Any change to the
scenario, the policy, or the simulator's own source changes the key
(a *miss*, never a stale hit); bumping ``CACHE_SCHEMA_VERSION`` or the
package version retires every prior entry wholesale. The directory is
safe to delete at any time.

Unsupported combinations (policies raising
:class:`~repro.errors.PolicyError`, the paper's "Does not support"
cells) are cached too, as ``{"error": ...}`` entries, so warm sweeps
re-simulate nothing at all.

Writes are atomic (temp file + :func:`os.replace`), making one cache
directory safe to share between concurrently sweeping processes.

Corrupt entries — truncated writes from a killed process, foreign
files — are *quarantined* on read (set aside by the backend, e.g.
moved to ``<root>/_quarantine/``) and treated as misses, so a damaged
cache degrades into re-simulation, never a mid-sweep crash; ``python
-m repro cache verify`` reports and sweeps them in bulk. Lifecycle
management (stats, LRU GC, shard-cache merging) lives in
:mod:`repro.sweep.gc`; each hit bumps the entry's LRU clock so that
module's eviction order reflects real use.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from .. import __version__
from ..errors import ConfigurationError
from ..sim import Policy, SimulationConfig, SimulationResult
from .backends import (
    QUARANTINE_DIR,
    CacheBackend,
    LocalDirBackend,
    _atomic_write_text,
    as_backend,
)

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "QUARANTINE_DIR",
    "CachedOutcome",
    "ResultCache",
    "cell_key",
    "code_fingerprint",
    "policy_fingerprint",
]

#: Bump to invalidate every existing cache entry (serialization changes).
CACHE_SCHEMA_VERSION = 1


def atomic_write_json(
    path: str | Path, payload: Any, indent: int | None = None, mode: int | None = None
) -> None:
    """Write ``payload`` as JSON crash-safely: temp file + atomic replace.

    The durability idiom shared by the shard/artifact manifests and the
    dir backend's entries/index (one implementation:
    ``backends._atomic_write_text``) — readers never observe a torn
    file, and a failed write leaves no temp litter behind. ``mode``
    restores umask-governed permissions on the mkstemp-created (0600)
    file so shared directories stay readable across users (Unix only;
    the 0600 default stands elsewhere).
    """
    _atomic_write_text(Path(path), json.dumps(payload, indent=indent), mode=mode)

#: Policy instance attributes that do not affect simulation output.
_COSMETIC_ATTRS = ("display_name",)

#: Everything a simulation's *output* depends on, relative to the
#: ``repro`` package root. Experiments/loader/runtime are deliberately
#: excluded — editing the harness must not retire cached simulations.
_SIMULATION_SOURCES = (
    "config.py",
    "errors.py",
    "rng.py",
    "units.py",
    "core",
    "datasets",
    "perfmodel",
    "sim",
)


@functools.lru_cache(maxsize=1)
def code_fingerprint() -> str:
    """Version + digest of the simulation-relevant source files.

    Editing the simulator (noise model, fetch resolution, policies...)
    must invalidate cached results even though ``__version__`` is only
    bumped per release. Falls back to the bare version when the source
    is not readable (zipped installs).
    """
    import repro

    digest = hashlib.sha256()
    try:
        root = Path(repro.__file__).parent
        for part in _SIMULATION_SOURCES:
            path = root / part
            files = sorted(path.rglob("*.py")) if path.is_dir() else [path]
            for f in files:
                digest.update(str(f.relative_to(root)).encode("utf-8"))
                digest.update(f.read_bytes())
    except OSError:
        return __version__
    return f"{__version__}+{digest.hexdigest()[:16]}"


@functools.lru_cache(maxsize=None)
def _source_digest(path: str) -> str | None:
    """Process-lifetime digest of one source file (None if unreadable)."""
    try:
        return hashlib.sha256(Path(path).read_bytes()).hexdigest()[:16]
    except OSError:
        return None


def policy_fingerprint(policy: Policy) -> dict[str, Any]:
    """A stable, JSON-safe identity for a policy instance.

    Covers the class, the machine-readable name (which already encodes
    variants such as ``deepio_ordered``), all constructor state — so
    e.g. ``DoubleBufferPolicy(2)`` and ``DoubleBufferPolicy(8)`` key
    differently — and a digest of the class's defining source file, so
    editing an *out-of-tree* :class:`~repro.sim.policies.base.Policy`
    subclass invalidates its cached results too (in-tree policies are
    already covered by :func:`code_fingerprint`).

    Non-JSON-serializable state raises a clear
    :class:`~repro.errors.ConfigurationError` rather than falling back
    to ``repr`` — an elided/unstable repr could alias two different
    policies onto one key and serve stale results.
    """
    try:
        raw_state = vars(policy)
    except TypeError as exc:
        raise ConfigurationError(
            f"policy {type(policy).__qualname__!r} has no __dict__ (slots-based "
            "class?); cached sweeps need inspectable, JSON-safe policy state "
            "(or run with cache_dir=None)"
        ) from exc
    state = {k: v for k, v in sorted(raw_state.items()) if k not in _COSMETIC_ATTRS}
    for attr, value in state.items():
        try:
            json.dumps(value)
        except TypeError as exc:
            raise ConfigurationError(
                f"policy {type(policy).__qualname__!r} attribute {attr!r} "
                f"({type(value).__name__}) is not JSON-serializable; cached "
                "sweeps need JSON-safe policy state (or run with cache_dir=None)"
            ) from exc
    try:
        source_file = inspect.getsourcefile(type(policy))
    except TypeError:
        source_file = None
    return {
        "class": type(policy).__qualname__,
        "name": policy.name,
        "state": state,
        "source": _source_digest(source_file) if source_file else None,
    }


def cell_key(config: SimulationConfig, policy: Policy) -> str:
    """The content hash addressing one (config, policy) cell."""
    return cell_key_from_dict(config.to_dict(), policy)


def cell_key_from_dict(config_dict: dict[str, Any], policy: Policy) -> str:
    """:func:`cell_key` for an already-serialized config (no re-encode)."""
    payload = {
        "schema": CACHE_SCHEMA_VERSION,
        "code": code_fingerprint(),
        "config": config_dict,
        "policy": policy_fingerprint(policy),
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class CachedOutcome:
    """A memoized cell: either a result or a recorded PolicyError."""

    result: SimulationResult | None
    error: str | None

    @property
    def supported(self) -> bool:
        """Whether the policy ran on this scenario."""
        return self.result is not None


class ResultCache:
    """Backend-backed store of :class:`CachedOutcome` s by cell key.

    ``store`` names the storage: a directory path or any live
    :class:`~repro.sweep.backends.CacheBackend`. Serialization —
    what an entry *says* — lives here; how its bytes are kept is
    entirely the backend's business.
    """

    def __init__(self, store: "str | Path | CacheBackend") -> None:
        self.backend = as_backend(store)
        self.backend.prepare()
        #: Hits recorded by this instance since the last flush, folded
        #: into the backend's index by :meth:`flush_hit_stats`.
        self._session_hits: dict[str, int] = {}

    @property
    def root(self) -> Path | None:
        """The cache directory for dir-backed caches; None otherwise."""
        return getattr(self.backend, "root", None)

    def path_for(self, key: str) -> Path:
        """Where the entry for ``key`` lives (dir-backed caches only)."""
        if not isinstance(self.backend, LocalDirBackend):
            raise ConfigurationError(
                f"cache backend {self.backend.url!r} stores no files; "
                "path_for applies to dir: caches only"
            )
        return self.backend.path_for(key)

    def get(self, key: str) -> CachedOutcome | None:
        """The memoized outcome for ``key``, or None on a miss.

        A missing entry is a plain miss. A present-but-unservable one
        (truncated write from a killed process, foreign JSON, schema
        drift) is *quarantined* — set aside by the backend for
        ``python -m repro cache verify`` to report — and then treated
        as a miss, so the cell re-simulates instead of the sweep
        crashing. Hits bump the entry's LRU clock (what
        :func:`repro.sweep.gc.collect_garbage` orders by) and a session
        hit counter flushed by :meth:`flush_hit_stats`.
        """
        outcome = self._load(key)
        if outcome is None:
            return None
        self.backend.touch(key)
        self._session_hits[key] = self._session_hits.get(key, 0) + 1
        return outcome

    def _load(self, key: str) -> CachedOutcome | None:
        """Deserialize one entry; quarantine it when unservable."""
        raw = self.backend.read(key)
        if raw is None:
            return None
        try:
            data = json.loads(raw)
            result = data.get("result")
            error = data.get("error")
            if result is None and error is None:
                # A legitimate entry always carries a result or an
                # error (possibly empty-stringed); a dict with neither
                # (e.g. `{}`) is foreign.
                raise ValueError("entry carries neither result nor error")
            return CachedOutcome(
                result=None if result is None else SimulationResult.from_dict(result),
                error=error,
            )
        except (json.JSONDecodeError, AttributeError, KeyError, TypeError, ValueError):
            self.backend.quarantine(key)
            return None

    def flush_hit_stats(self) -> None:
        """Fold this session's hit counts into the backend's index.

        Called by :class:`~repro.sweep.runner.SweepRunner` after each
        sweep; safe (best-effort) under concurrent writers. Clears the
        session counters on success.
        """
        if not self._session_hits:
            return
        from .gc import CacheIndex  # deferred: gc imports this module

        index = CacheIndex(self.backend)
        index.record_hits(self._session_hits)
        try:
            index.save()
        except OSError:
            return
        self._session_hits = {}

    def put(
        self,
        key: str,
        outcome: CachedOutcome,
        result_dict: dict[str, Any] | None = None,
    ) -> None:
        """Persist ``outcome`` under ``key`` (atomic replace).

        ``result_dict`` lets callers that already hold the serialized
        result (the sweep runner) skip a redundant ``to_dict``.
        """
        if result_dict is None and outcome.result is not None:
            result_dict = outcome.result.to_dict()
        entry = {
            "key": key,
            "schema": CACHE_SCHEMA_VERSION,
            "code": code_fingerprint(),
            "result": result_dict,
            "error": outcome.error,
        }
        # json.dumps with default separators matches the bytes the
        # pre-backend atomic_write_json path produced, so existing
        # caches stay warm *and* bitwise-stable across the refactor.
        self.backend.write(key, json.dumps(entry))

    def count(self) -> int:
        """Number of stored entries (walks the backend; O(entries)).

        Deliberately not ``__len__``: that would make an *empty* cache
        falsy, turning the natural ``if cache:`` into a bug.
        """
        return sum(1 for _ in self.backend.keys())

    def __contains__(self, key: str) -> bool:
        """Whether :meth:`get` would serve ``key`` (not mere existence).

        A pure probe: unlike :meth:`get` it records no hit and leaves
        the entry's LRU clock untouched, so membership checks from
        monitoring scripts don't shield entries from ``gc --max-age``.
        """
        return self._load(key) is not None
