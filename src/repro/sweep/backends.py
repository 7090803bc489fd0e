"""Pluggable cache storage: the :class:`CacheBackend` protocol.

:class:`~repro.sweep.cache.ResultCache` and the lifecycle tooling in
:mod:`repro.sweep.gc` (stats, GC, verify, shard merge) do not touch the
filesystem directly any more — they speak this protocol, which models a
cache as a flat store of *entry texts* keyed by content hash plus one
sidecar *index* document (the hit-count ledger):

* :class:`LocalDirBackend` — the original on-disk layout
  (``<root>/<key[:2]>/<key>.json``, atomic temp-file writes, mtime as
  the LRU clock, a ``_quarantine/`` corner for damaged entries).
* :class:`InMemoryBackend` — the same contract in a dict; for tests,
  ephemeral sweeps, and as the reference implementation of the
  protocol's semantics.

A cache is named one of two ways. A directory path (``cache_dir=``,
``--cache-dir``) becomes a :class:`LocalDirBackend` via
:func:`as_backend`; in Python, ``cache=`` on
:class:`~repro.sweep.runner.SweepRunner` and
:class:`~repro.api.session.Session` takes a live backend instance, and
the gc/verify/merge tooling accepts either, so any other
implementation of the protocol plugs in unchanged.

Protocol semantics every implementation must honour:

* ``write`` is atomic: a concurrent ``read`` sees the old text, the
  new text, or a miss — never a torn document.
* ``touch`` (and every successful ``read``-side hit recorded by the
  cache above) advances the entry's LRU clock, observable via
  ``stat().mtime``.
* ``quarantine`` removes the entry from ``keys()``/``read()`` without
  destroying the bytes (operators may inspect them); ``quarantined()``
  counts what has been set aside.
* The index document is opaque text to the backend; only
  :class:`~repro.sweep.gc.CacheIndex` interprets it.
"""

from __future__ import annotations

import os
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Protocol, runtime_checkable

from ..errors import ConfigurationError

__all__ = [
    "QUARANTINE_DIR",
    "CacheBackend",
    "EntryStat",
    "InMemoryBackend",
    "LocalDirBackend",
    "as_backend",
]

#: Subdirectory corrupt entries are moved to (dir backends).
QUARANTINE_DIR = "_quarantine"

#: Entry files live in two-hex-char shard dirs; this glob skips the
#: index, quarantine and temp files that share the cache root.
_ENTRY_GLOB = "[0-9a-f][0-9a-f]/*.json"

#: The sidecar hit-index document's on-disk name.
_INDEX_FILENAME = "index.json"


@dataclass(frozen=True)
class EntryStat:
    """One entry's storage stats; ``mtime`` doubles as the LRU clock."""

    key: str
    size_bytes: int
    mtime: float
    mtime_ns: int


@runtime_checkable
class CacheBackend(Protocol):
    """Flat keyed storage for cache entry texts plus one index document.

    See the module docstring for the semantics implementations must
    honour. All texts are UTF-8 JSON documents, but the backend treats
    them as opaque strings — serialization lives in
    :class:`~repro.sweep.cache.ResultCache`.
    """

    @property
    def url(self) -> str:
        """The label naming this store in reports (``dir:/path``, ``mem:``)."""
        ...

    def prepare(self) -> None:
        """Make the store ready for writes (create it, sweep litter)."""
        ...

    def read(self, key: str) -> str | None:
        """The entry text for ``key``, or None when absent."""
        ...

    def write(self, key: str, text: str, mtime_ns: int | None = None) -> None:
        """Atomically store ``text`` under ``key``.

        ``mtime_ns`` pins the entry's LRU clock (cache merges preserve
        the source's recency); None means "now".
        """
        ...

    def delete(self, key: str) -> bool:
        """Remove ``key``; False when absent or not removable."""
        ...

    def keys(self) -> Iterator[str]:
        """Every stored (non-quarantined) entry key."""
        ...

    def stat(self, key: str) -> EntryStat | None:
        """Size/recency for ``key``, or None when absent."""
        ...

    def touch(self, key: str) -> None:
        """Advance ``key``'s LRU clock to now (best effort)."""
        ...

    def quarantine(self, key: str) -> bool:
        """Set a damaged entry aside so it reads as a miss from now on."""
        ...

    def quarantined(self) -> int:
        """How many entries have been quarantined."""
        ...

    def quarantine_label(self) -> str:
        """Where quarantined entries live, for human-facing reports."""
        ...

    def read_index(self) -> str | None:
        """The sidecar index document, or None when absent."""
        ...

    def write_index(self, text: str) -> None:
        """Atomically replace the sidecar index document."""
        ...

    def same_store(self, other: "CacheBackend") -> bool:
        """Whether ``other`` addresses this same underlying store."""
        ...


def _atomic_write_text(
    path: Path, text: str, mode: int | None = None, mtime_ns: int | None = None
) -> None:
    """Crash-safe text write: temp file in the target dir + atomic replace."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            # fdopen owns fd first so a failing fchmod can't leak it.
            if mode is not None and hasattr(os, "fchmod"):
                os.fchmod(fh.fileno(), mode)
            fh.write(text)
        if mtime_ns is not None:
            os.utime(tmp, ns=(mtime_ns, mtime_ns))
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


class LocalDirBackend:
    """The on-disk cache layout behind a :class:`CacheBackend` face.

    Layout: ``<root>/<key[:2]>/<key>.json`` entry files,
    ``<root>/index.json`` for the hit index, ``<root>/_quarantine/``
    for damaged entries. Writes are atomic (temp file +
    :func:`os.replace`), making one directory safe to share between
    concurrently sweeping processes; entry mtimes carry LRU recency.
    """

    #: Orphaned temp files older than this are swept by :meth:`prepare`.
    #: The age guard protects a *concurrent* writer's in-flight file.
    _TMP_MAX_AGE_S = 600.0

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        # Read the umask once (os.umask is set-and-restore, a process
        # global — toggling it per write would race other threads).
        umask = os.umask(0)
        os.umask(umask)
        #: Entries are 0666&~umask so shared caches stay readable
        #: across users (mkstemp's 0600 default would not be).
        self._entry_mode = 0o666 & ~umask

    @property
    def url(self) -> str:
        """``dir:`` plus the root, naming this store in reports."""
        return f"dir:{self.root}"

    def prepare(self) -> None:
        """Create the root and sweep temp files orphaned by killed writers."""
        self.root.mkdir(parents=True, exist_ok=True)
        cutoff = time.time() - self._TMP_MAX_AGE_S
        for tmp in (*self.root.glob("*.tmp"), *self.root.glob("*/*.tmp")):
            try:
                if tmp.stat().st_mtime < cutoff:
                    tmp.unlink()
            except OSError:
                continue

    def path_for(self, key: str) -> Path:
        """Where the entry for ``key`` lives (two-level sharding)."""
        return self.root / key[:2] / f"{key}.json"

    def read(self, key: str) -> str | None:
        """The entry text for ``key``, or None when absent/unreadable."""
        try:
            return self.path_for(key).read_text()
        except OSError:
            return None

    def write(self, key: str, text: str, mtime_ns: int | None = None) -> None:
        """Atomic entry write (temp file + replace); ``mtime_ns`` pins LRU."""
        _atomic_write_text(
            self.path_for(key), text, mode=self._entry_mode, mtime_ns=mtime_ns
        )

    def delete(self, key: str) -> bool:
        """Unlink ``key``'s entry file; False when absent/undeletable."""
        try:
            self.path_for(key).unlink()
        except OSError:
            return False
        return True

    def keys(self) -> Iterator[str]:
        """Every entry key (shard-dir files only; skips index/quarantine)."""
        for path in self.root.glob(_ENTRY_GLOB):
            yield path.stem

    def stat(self, key: str) -> EntryStat | None:
        """Size and mtime (the LRU clock) of ``key``'s entry file."""
        try:
            st = self.path_for(key).stat()
        except OSError:
            return None
        return EntryStat(
            key=key, size_bytes=st.st_size, mtime=st.st_mtime, mtime_ns=st.st_mtime_ns
        )

    def touch(self, key: str) -> None:
        """Bump the entry's mtime to now."""
        try:
            os.utime(self.path_for(key))  # best-effort (read-only mounts)
        except OSError:
            pass

    def quarantine(self, key: str) -> bool:
        """Move a damaged entry to ``_quarantine/`` (reads miss from now on)."""
        qdir = self.root / QUARANTINE_DIR
        try:
            qdir.mkdir(parents=True, exist_ok=True)
            os.replace(self.path_for(key), qdir / f"{key}.json")
        except OSError:
            # Last resort (e.g. read-only cache): leave it in place;
            # every read keeps missing it, which is still safe.
            return False
        return True

    def quarantined(self) -> int:
        """How many entries sit in ``_quarantine/``."""
        return sum(1 for _ in (self.root / QUARANTINE_DIR).glob("*.json"))

    def quarantine_label(self) -> str:
        """The quarantine directory, for human-facing reports."""
        return str(self.root / QUARANTINE_DIR)

    def read_index(self) -> str | None:
        """``index.json``'s text, or None when absent."""
        try:
            return (self.root / _INDEX_FILENAME).read_text()
        except OSError:
            return None

    def write_index(self, text: str) -> None:
        """Atomically replace ``index.json``."""
        _atomic_write_text(self.root / _INDEX_FILENAME, text)

    def same_store(self, other: "CacheBackend") -> bool:
        """True when ``other`` is the same directory (resolved paths)."""
        if not isinstance(other, LocalDirBackend):
            return False
        try:
            return self.root.resolve() == other.root.resolve()
        except OSError:
            return self.root == other.root


class InMemoryBackend:
    """A :class:`CacheBackend` in a dict — tests and ephemeral sweeps.

    Process-local (never shared across hosts or processes); pool
    executors still work with it because cache writes always happen in
    the sweeping process. Two sessions share entries by sharing the
    instance.
    """

    def __init__(self) -> None:
        self._entries: dict[str, tuple[str, int]] = {}  # key -> (text, mtime_ns)
        self._quarantined: dict[str, str] = {}
        self._index: str | None = None

    @property
    def url(self) -> str:
        """``mem:``, naming this store in reports."""
        return "mem:"

    def prepare(self) -> None:
        """Nothing to create: the dict is always ready."""

    def read(self, key: str) -> str | None:
        """The entry text for ``key``, or None when absent."""
        entry = self._entries.get(key)
        return None if entry is None else entry[0]

    def write(self, key: str, text: str, mtime_ns: int | None = None) -> None:
        """Store ``text`` under ``key`` (dict assignment is atomic)."""
        self._entries[key] = (text, time.time_ns() if mtime_ns is None else mtime_ns)

    def delete(self, key: str) -> bool:
        """Drop ``key``; False when absent."""
        return self._entries.pop(key, None) is not None

    def keys(self) -> Iterator[str]:
        """Every stored (non-quarantined) entry key."""
        yield from list(self._entries)

    def stat(self, key: str) -> EntryStat | None:
        """Size (UTF-8 bytes) and write/touch recency of ``key``."""
        entry = self._entries.get(key)
        if entry is None:
            return None
        text, mtime_ns = entry
        return EntryStat(
            key=key,
            size_bytes=len(text.encode("utf-8")),
            mtime=mtime_ns / 1e9,
            mtime_ns=mtime_ns,
        )

    def touch(self, key: str) -> None:
        """Advance ``key``'s LRU clock to now."""
        entry = self._entries.get(key)
        if entry is not None:
            self._entries[key] = (entry[0], time.time_ns())

    def quarantine(self, key: str) -> bool:
        """Set a damaged entry aside (kept for inspection, reads miss)."""
        entry = self._entries.pop(key, None)
        if entry is None:
            return False
        self._quarantined[key] = entry[0]
        return True

    def quarantined(self) -> int:
        """How many entries have been set aside."""
        return len(self._quarantined)

    def quarantine_label(self) -> str:
        """A synthetic location label for reports (no real directory)."""
        return f"{self.url}#{QUARANTINE_DIR}"

    def read_index(self) -> str | None:
        """The index document, or None when never written."""
        return self._index

    def write_index(self, text: str) -> None:
        """Replace the index document."""
        self._index = text

    def same_store(self, other: "CacheBackend") -> bool:
        """Identity: only this very instance is the same store."""
        return other is self


def as_backend(source: "str | Path | CacheBackend") -> CacheBackend:
    """A live backend: an instance passes through, a path is a directory."""
    if isinstance(source, CacheBackend):  # runtime_checkable: structural
        return source
    if isinstance(source, Path) or (isinstance(source, str) and source):
        return LocalDirBackend(source)
    raise ConfigurationError(
        f"cannot interpret {source!r} as a cache directory or CacheBackend"
    )
