"""Cache lifecycle: index, stats, GC, verification, shard merging.

The :class:`~repro.sweep.cache.ResultCache` is append-only during
sweeps; this module is everything that happens to the store *between*
sweeps. Every function here speaks the
:class:`~repro.sweep.backends.CacheBackend` protocol — pass a live
backend or a directory path interchangeably:

* :class:`CacheIndex` — a best-effort index document (``index.json``
  at a dir cache's root) accumulating per-entry hit counts; recency is
  carried by the entries' LRU clocks, which
  :meth:`ResultCache.get` bumps on every hit. Hit counts can
  undercount under concurrent writers (last merge wins); clock-based
  recency — what GC orders by — cannot.
* :func:`scan_entries` / :func:`cache_stats` — enumerate entries with
  size/mtime/hit stats (``python -m repro cache stats``).
* :func:`collect_garbage` — LRU eviction under ``max_bytes`` and/or
  ``max_age_s`` policies (``python -m repro cache gc``).
* :func:`verify_cache` — detect corrupt/truncated/foreign entries and
  quarantine them so the next sweep re-simulates those cells
  (``python -m repro cache verify``).
* :func:`merge_caches` — union shard caches into one store. Entries
  are content-addressed and byte-stable, so merging the caches of a
  sharded sweep reproduces the single-host cache bit for bit.

Nothing here blocks concurrent sweeps: eviction and quarantine use the
backend's atomic operations, and a sweep that loses an entry mid-run
simply re-simulates that cell.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from ..errors import ConfigurationError
from ..sim import SimulationResult
from .backends import CacheBackend, LocalDirBackend, as_backend
from .cache import ResultCache

__all__ = [
    "CacheEntry",
    "CacheIndex",
    "CacheStatsReport",
    "GCReport",
    "MergeReport",
    "VerifyReport",
    "cache_stats",
    "collect_garbage",
    "merge_caches",
    "scan_entries",
    "verify_cache",
]

#: ``index.json`` format version.
INDEX_SCHEMA_VERSION = 1


def _store_label(backend: CacheBackend) -> Path | str:
    """How a store is reported: its root path when on disk, else its URL."""
    root = getattr(backend, "root", None)
    return root if isinstance(root, Path) else backend.url


@dataclass(frozen=True)
class CacheEntry:
    """One cache entry's storage stats.

    ``mtime`` doubles as the LRU clock: writes set it and cache hits
    bump it, so "oldest mtime" means "least recently used". ``path``
    is the entry's file for dir-backed caches, None otherwise.
    """

    key: str
    path: Path | None
    size_bytes: int
    mtime: float
    hits: int = 0


class CacheIndex:
    """The cache's sidecar hit-count index (``index.json`` document).

    Persists cumulative per-entry hit counters between processes.
    Updates are read-merge-write with an atomic replace: concurrent
    flushes may drop each other's increments (documented best-effort),
    but the document never tears.
    """

    FILENAME = "index.json"

    def __init__(self, store: "str | Path | CacheBackend") -> None:
        self.backend = as_backend(store)
        self.hits: dict[str, int] = {}
        #: Keys explicitly dropped (evicted/quarantined entries); the
        #: save-time merge must not resurrect their stored counters.
        self._dropped: set[str] = set()
        self._load()

    def _load(self) -> None:
        try:
            text = self.backend.read_index()
            data = json.loads(text) if text is not None else {}
            hits = data.get("hits", {})
            self.hits = {
                str(k): int(v) for k, v in hits.items() if isinstance(v, (int, float))
            }
        except (OSError, json.JSONDecodeError, AttributeError, TypeError, ValueError):
            self.hits = {}

    def record_hits(self, counts: dict[str, int]) -> None:
        """Fold a batch of per-key hit counts into the index (in memory)."""
        for key, count in counts.items():
            if count > 0:
                self.hits[key] = self.hits.get(key, 0) + int(count)
                self._dropped.discard(key)

    def drop(self, keys: Sequence[str]) -> None:
        """Forget counters for evicted/quarantined entries."""
        for key in keys:
            self.hits.pop(key, None)
            self._dropped.add(key)

    def save(self) -> None:
        """Atomically persist the index (merging with the stored state).

        Re-reads the stored index first so two processes flushing
        disjoint keys both land; overlapping keys keep the larger count
        (a flush can only ever add hits).
        """
        stored = CacheIndex(self.backend)
        for key, count in stored.hits.items():
            if key not in self._dropped and self.hits.get(key, 0) < count:
                self.hits[key] = count
        self.backend.write_index(
            json.dumps({"schema": INDEX_SCHEMA_VERSION, "hits": self.hits})
        )


def scan_entries(store: "str | Path | CacheBackend") -> list[CacheEntry]:
    """Enumerate the cache's entries with size/mtime/hit stats.

    Sorted by ``(mtime, key)`` — LRU order, eviction candidates first.
    Entries that vanish mid-scan (concurrent GC) are skipped.
    """
    backend = as_backend(store)
    index = CacheIndex(backend)
    entries: list[CacheEntry] = []
    for key in backend.keys():
        stat = backend.stat(key)
        if stat is None:
            continue
        entries.append(
            CacheEntry(
                key=key,
                path=backend.path_for(key) if isinstance(backend, LocalDirBackend) else None,
                size_bytes=stat.size_bytes,
                mtime=stat.mtime,
                hits=index.hits.get(key, 0),
            )
        )
    entries.sort(key=lambda e: (e.mtime, e.key))
    return entries


@dataclass(frozen=True)
class CacheStatsReport:
    """Aggregate cache statistics (``python -m repro cache stats``)."""

    root: Path | str
    entries: int
    total_bytes: int
    total_hits: int
    oldest_mtime: float | None
    newest_mtime: float | None
    quarantined: int

    def render(self) -> str:
        """Human-readable multi-line summary."""
        lines = [
            f"cache: {self.root}",
            f"entries: {self.entries} ({self.total_bytes} bytes)",
            f"recorded hits: {self.total_hits}",
            f"quarantined: {self.quarantined}",
        ]
        if self.oldest_mtime is not None and self.newest_mtime is not None:
            age = max(0.0, time.time() - self.oldest_mtime)
            lines.append(f"LRU age: {age:.0f}s (oldest entry)")
        return "\n".join(lines)


def _existing_store(store: "str | Path | CacheBackend", what: str = "cache") -> CacheBackend:
    """``store`` as a backend; a directory must already exist.

    A mistyped path would otherwise read as an empty cache.
    """
    backend = as_backend(store)
    if isinstance(backend, LocalDirBackend) and not backend.root.is_dir():
        raise ConfigurationError(f"{what} {backend.root} is not a directory")
    return backend


def cache_stats(store: "str | Path | CacheBackend") -> CacheStatsReport:
    """Aggregate entry count/bytes/hits/age for one cache store."""
    backend = _existing_store(store)
    entries = scan_entries(backend)
    return CacheStatsReport(
        root=_store_label(backend),
        entries=len(entries),
        total_bytes=sum(e.size_bytes for e in entries),
        total_hits=sum(e.hits for e in entries),
        oldest_mtime=entries[0].mtime if entries else None,
        newest_mtime=entries[-1].mtime if entries else None,
        quarantined=backend.quarantined(),
    )


@dataclass(frozen=True)
class GCReport:
    """What one :func:`collect_garbage` pass did (or would do)."""

    scanned: int
    evicted: tuple[str, ...]
    evicted_bytes: int
    kept: int
    kept_bytes: int
    dry_run: bool

    def render(self) -> str:
        """One-line human-readable summary."""
        verb = "would evict" if self.dry_run else "evicted"
        return (
            f"gc: {verb} {len(self.evicted)} / {self.scanned} entries "
            f"({self.evicted_bytes} bytes); kept {self.kept} "
            f"({self.kept_bytes} bytes)"
        )


def collect_garbage(
    store: "str | Path | CacheBackend",
    max_bytes: int | None = None,
    max_age_s: float | None = None,
    dry_run: bool = False,
    now: float | None = None,
) -> GCReport:
    """Evict cache entries until the policies hold, LRU first.

    Parameters
    ----------
    store:
        Cache backend or directory (the ``cache_dir`` sweeps were run
        with).
    max_bytes:
        Keep total entry bytes at or below this (evicting least
        recently used first).
    max_age_s:
        Evict entries not touched (written or hit) within this many
        seconds, regardless of size.
    dry_run:
        Report what would be evicted without deleting anything.
    now:
        Clock override for tests; defaults to ``time.time()``.
    """
    if max_bytes is None and max_age_s is None:
        raise ConfigurationError("gc needs a policy: max_bytes and/or max_age_s")
    if max_bytes is not None and max_bytes < 0:
        raise ConfigurationError("max_bytes must be >= 0")
    if max_age_s is not None and max_age_s < 0:
        raise ConfigurationError("max_age_s must be >= 0")
    backend = _existing_store(store)
    entries = scan_entries(backend)  # LRU order: oldest mtime first
    now = time.time() if now is None else now

    victims: list[CacheEntry] = []
    victim_keys: set[str] = set()
    if max_age_s is not None:
        cutoff = now - max_age_s
        for entry in entries:
            if entry.mtime < cutoff:
                victims.append(entry)
                victim_keys.add(entry.key)
    if max_bytes is not None:
        live_bytes = sum(e.size_bytes for e in entries if e.key not in victim_keys)
        for entry in entries:  # oldest first
            if live_bytes <= max_bytes:
                break
            if entry.key in victim_keys:
                continue
            victims.append(entry)
            victim_keys.add(entry.key)
            live_bytes -= entry.size_bytes

    # Only entries actually removed count as evicted — a delete that
    # fails (permissions drift on a shared cache) must neither inflate
    # the report nor erase the survivor's hit history.
    if dry_run:
        removed = victims
    else:
        removed = [entry for entry in victims if backend.delete(entry.key)]
        if removed:
            index = CacheIndex(backend)
            index.drop([e.key for e in removed])
            index.save()
    removed_keys = {e.key for e in removed}
    kept = [e for e in entries if e.key not in removed_keys]
    return GCReport(
        scanned=len(entries),
        evicted=tuple(e.key for e in removed),
        evicted_bytes=sum(e.size_bytes for e in removed),
        kept=len(kept),
        kept_bytes=sum(e.size_bytes for e in kept),
        dry_run=dry_run,
    )


@dataclass(frozen=True)
class VerifyReport:
    """Result of one :func:`verify_cache` pass."""

    checked: int
    ok: int
    corrupt: tuple[tuple[str, str], ...]  # (filename, reason) pairs
    quarantined: bool
    quarantine_dir: Path | str

    def render(self) -> str:
        """Human-readable summary, one line per corrupt entry."""
        lines = [
            f"verify: {self.ok} ok / {self.checked} checked; "
            f"{len(self.corrupt)} corrupt"
            + (f" -> {self.quarantine_dir}" if self.corrupt and self.quarantined else "")
        ]
        for name, reason in self.corrupt:
            lines.append(f"  {name}: {reason}")
        return "\n".join(lines)


def _entry_problem(key: str, raw: str | None) -> str | None:
    """Why an entry text is not servable under ``key`` (None when it is)."""
    if raw is None:
        return "unreadable: entry vanished mid-scan"
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        return f"invalid JSON: {exc}"
    if not isinstance(data, dict):
        return f"not an entry object (top-level {type(data).__name__})"
    if data.get("key", key) != key:
        return f"key field {data.get('key')!r} does not match entry key"
    result = data.get("result")
    error = data.get("error")
    if result is None and error is None:
        return "carries neither a result nor an error"
    if result is not None:
        try:
            SimulationResult.from_dict(result)
        except Exception as exc:  # noqa: BLE001 - any failure means unservable
            return f"result does not deserialize: {type(exc).__name__}: {exc}"
    return None


def verify_cache(
    store: "str | Path | CacheBackend", quarantine: bool = True
) -> VerifyReport:
    """Check every entry deserializes; quarantine the ones that don't.

    Corrupt entries (truncated writes, foreign files, schema drift that
    slipped past the key) are set aside by the backend — the next sweep
    sees a miss and re-simulates the cell — unless ``quarantine=False``,
    which only reports.
    """
    backend = _existing_store(store)
    checked = ok = 0
    corrupt: list[tuple[str, str]] = []
    for key in list(backend.keys()):
        checked += 1
        problem = _entry_problem(key, backend.read(key))
        if problem is None:
            ok += 1
            continue
        corrupt.append((f"{key}.json", problem))
        if quarantine:
            backend.quarantine(key)
    if corrupt and quarantine:
        index = CacheIndex(backend)
        index.drop([Path(name).stem for name, _ in corrupt])
        index.save()
    label = backend.quarantine_label()
    return VerifyReport(
        checked=checked,
        ok=ok,
        corrupt=tuple(corrupt),
        quarantined=quarantine,
        quarantine_dir=Path(label) if isinstance(backend, LocalDirBackend) else label,
    )


@dataclass(frozen=True)
class MergeReport:
    """What one :func:`merge_caches` call copied."""

    sources: tuple[Path | str, ...]
    dest: Path | str
    copied: int
    skipped: int
    copied_bytes: int

    def render(self) -> str:
        """One-line human-readable summary."""
        return (
            f"merge: {self.copied} entries ({self.copied_bytes} bytes) "
            f"from {len(self.sources)} cache(s) into {self.dest}; "
            f"{self.skipped} already present"
        )


def merge_caches(
    sources: Sequence["str | Path | CacheBackend"], dest: "str | Path | CacheBackend"
) -> MergeReport:
    """Union shard caches into ``dest`` (content-addressed, idempotent).

    Entries already present in ``dest`` are skipped — identical keys
    hold identical bytes, so first-writer-wins loses nothing. Entry
    texts and LRU clocks are preserved, keeping a merged dir cache
    bitwise-identical to a single-host sweep's and its eviction order
    honest. A source's hit counters are folded in only for the entries
    copied from it in this call, so re-running a merge (a retried CI
    step) never double-counts; quarantined entries are *not*
    propagated. Sources and destination may be any mix of backends —
    merging shard directories into a shared remote store is the same
    call as merging directories into a directory.
    """
    if not sources:
        raise ConfigurationError("nothing to merge: no source caches given")
    dest_backend = ResultCache(dest).backend  # prepares dest, sweeps stale temp files
    copied = skipped = copied_bytes = 0
    merged_index = CacheIndex(dest_backend)
    source_backends: list[CacheBackend] = []
    for source in sources:
        backend = _existing_store(source, "source cache")
        source_backends.append(backend)
        if backend.same_store(dest_backend):
            continue
        copied_keys: set[str] = set()
        for key in backend.keys():
            if dest_backend.stat(key) is not None:
                skipped += 1
                continue
            text = backend.read(key)
            if text is None:  # vanished mid-merge (concurrent GC)
                continue
            stat = backend.stat(key)
            dest_backend.write(key, text, mtime_ns=None if stat is None else stat.mtime_ns)
            copied += 1
            copied_bytes += len(text.encode("utf-8"))
            copied_keys.add(key)
        source_hits = CacheIndex(backend).hits
        merged_index.record_hits(
            {key: count for key, count in source_hits.items() if key in copied_keys}
        )
    merged_index.save()
    return MergeReport(
        sources=tuple(_store_label(b) for b in source_backends),
        dest=_store_label(dest_backend),
        copied=copied,
        skipped=skipped,
        copied_bytes=copied_bytes,
    )
