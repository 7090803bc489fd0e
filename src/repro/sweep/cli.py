"""Sweep and cache subcommands of the ``python -m repro`` CLI.

:mod:`repro.cli` attaches ``run`` / ``merge`` under ``python -m repro
sweep`` and ``gc`` / ``stats`` / ``verify`` under ``python -m repro
cache``:

``run``
    Evaluate a grid (or one shard of it) through a
    :class:`~repro.sweep.runner.SweepRunner`:
    ``python -m repro sweep run --grid repro.sweep.cli:demo_grid
    --shard 0/3 --cache-dir shard0 --manifest shard0.json``.
    ``--grid`` names any importable ``module:attr`` that is a
    :class:`~repro.sweep.grid.ScenarioGrid`, a list of
    :class:`~repro.sweep.grid.SweepCell` s, or a callable returning
    either (``--grid-kwargs`` passes JSON keyword arguments).
    ``--executor serial|process|batched`` picks the execution
    strategy (bitwise-identical results) and ``--progress`` streams
    per-cell progress lines from the runner's event bus to stderr.
``merge``
    Union shard caches (and optionally their manifests) into one
    directory that is bitwise-identical to a single-host sweep's.
``gc``
    Evict LRU entries until ``--max-bytes`` / ``--max-age`` hold.
``stats``
    Entry count, bytes, recorded hits, LRU age, quarantine count.
``verify``
    Detect corrupt entries and quarantine them for re-simulation.

``--cache-dir`` names the cache directory (required by ``gc`` /
``stats`` / ``verify``). Every subcommand is a thin argparse layer
over the library API (:mod:`repro.sweep.shard`, :mod:`repro.sweep.gc`)
— scripts that need more control call those directly.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path
from typing import Any, Iterable

from ..errors import ConfigurationError
from .events import (
    CellCached,
    CellFinished,
    CellStarted,
    CellUnsupported,
    SweepEvent,
    SweepFinished,
    SweepStarted,
)
from .executors import EXECUTORS
from .gc import cache_stats, collect_garbage, merge_caches, verify_cache
from .grid import ScenarioGrid, SweepCell, as_cells
from .runner import SweepRunner
from .shard import ShardManifest, ShardPlanner, ShardSpec, merge_manifests

__all__ = [
    "ProgressPrinter",
    "configure_gc",
    "configure_merge",
    "configure_run",
    "configure_stats",
    "configure_verify",
    "demo_grid",
    "parse_bytes",
    "parse_duration",
]


class ProgressPrinter:
    """Human-readable sweep progress, one line per completed cell.

    A :class:`~repro.sweep.events.ProgressBus` subscriber
    (``--progress``): prints ``[done/total] tag: status`` as cells
    complete — cached, simulated (with the cell's own wall time), or
    unsupported (with the recorded reason) — and the end-of-sweep
    stats summary. Writes to stderr by default so stdout stays
    machine-consumable (rankings, manifests, JSON).
    """

    def __init__(self, stream=None) -> None:
        self.stream = stream if stream is not None else sys.stderr
        self.done = 0
        self.total = 0

    def _line(self, text: str) -> None:
        print(text, file=self.stream)

    def __call__(self, event: SweepEvent) -> None:
        """Render one bus event (the subscriber entry point)."""
        if isinstance(event, SweepStarted):
            self.done, self.total = 0, event.total
            return
        if isinstance(event, SweepFinished):
            self._line(f"sweep: {event.stats.render()}")
            return
        if isinstance(event, CellStarted):
            return  # completion lines carry the signal; starts are noise
        if isinstance(event, CellCached):
            status = "cached" if event.supported else "cached (unsupported)"
        elif isinstance(event, CellFinished):
            status = f"done in {event.elapsed_s:.2f}s"
        elif isinstance(event, CellUnsupported):
            status = f"unsupported: {event.error}" if event.error else "unsupported"
        else:
            return
        self.done += 1
        width = len(str(self.total)) or 1
        self._line(f"[{self.done:>{width}}/{self.total}] {event.tag}: {status}")

_SIZE_SUFFIXES = {"k": 1024, "m": 1024**2, "g": 1024**3, "t": 1024**4}
_TIME_SUFFIXES = {"s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0}


def demo_grid(scale: float = 0.2) -> ScenarioGrid:
    """A small, fast grid for smoke tests and copy-paste experiments.

    Six cells (three policies x two batch sizes on scaled-down MNIST);
    sweeps in a few seconds on one core. ``scale`` shrinks or grows the
    dataset regime-true.
    """
    from ..datasets import mnist
    from ..perfmodel import sec6_cluster
    from ..sim import NaivePolicy, NoPFSPolicy, StagingBufferPolicy

    return ScenarioGrid(
        datasets=[mnist(0).scaled(scale)],
        systems=[sec6_cluster(num_workers=2)],
        policies=[NaivePolicy(), StagingBufferPolicy(), NoPFSPolicy()],
        batch_sizes=[16, 32],
        epoch_counts=[2],
    )


def _parse_quantity(text: str, suffixes: dict[str, float], what: str) -> float:
    """A finite, non-negative number with an optional unit suffix."""
    text = text.strip()
    mult = suffixes.get(text[-1:].lower())
    body = text if mult is None else text[:-1]
    try:
        value = float(body) * (1 if mult is None else mult)
    except ValueError as exc:
        raise ConfigurationError(f"invalid {what} {text!r}") from exc
    if not math.isfinite(value):
        raise ConfigurationError(f"{what} must be finite, got {text!r}")
    if value < 0:
        raise ConfigurationError(f"{what} must be >= 0, got {text!r}")
    return value


def parse_bytes(text: str) -> int:
    """Parse a byte count: plain int or ``512K`` / ``64M`` / ``2G`` / ``1T``."""
    return int(_parse_quantity(text, _SIZE_SUFFIXES, "byte count"))


def parse_duration(text: str) -> float:
    """Parse a duration: plain seconds or ``30m`` / ``12h`` / ``7d``."""
    return _parse_quantity(text, _TIME_SUFFIXES, "duration")


def _resolve_grid(spec: str, kwargs_json: str | None) -> ScenarioGrid | list[SweepCell]:
    """Import ``module:attr`` and normalize it to a grid or cell list."""
    if ":" not in spec:
        raise ConfigurationError(
            f"invalid --grid {spec!r}; expected 'module:attr' "
            "(e.g. repro.sweep.cli:demo_grid)"
        )
    module_name, _, attr_path = spec.partition(":")
    try:
        target: Any = importlib.import_module(module_name)
    except ImportError as exc:
        raise ConfigurationError(f"cannot import grid module {module_name!r}: {exc}") from exc
    for part in attr_path.split("."):
        try:
            target = getattr(target, part)
        except AttributeError as exc:
            raise ConfigurationError(f"{module_name!r} has no attribute {attr_path!r}") from exc
    if callable(target):
        kwargs = {}
        if kwargs_json:
            try:
                kwargs = json.loads(kwargs_json)
            except json.JSONDecodeError as exc:
                raise ConfigurationError(f"--grid-kwargs is not valid JSON: {exc}") from exc
            if not isinstance(kwargs, dict):
                raise ConfigurationError("--grid-kwargs must be a JSON object")
        target = target(**kwargs)
    if isinstance(target, ScenarioGrid):
        return target
    if isinstance(target, Iterable):
        return as_cells(target)
    raise ConfigurationError(
        f"--grid {spec!r} resolved to {type(target).__name__}; expected a "
        "ScenarioGrid, a SweepCell iterable, or a callable returning one"
    )


def _load_scenarios(path: str) -> list[SweepCell]:
    """Cells from a JSON file of scenario dicts (``--scenarios``).

    The file holds either a JSON list of
    :class:`~repro.api.scenario.Scenario` dicts or an object with a
    ``"scenarios"`` key. Tags are the scenarios' content fingerprints,
    so the list is shardable and mergeable like any grid.
    """
    from ..api.session import Session  # deferred: api composes on this package

    try:
        data = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigurationError(f"cannot read --scenarios {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"--scenarios {path!r} is not valid JSON: {exc}") from exc
    if isinstance(data, dict):
        data = data.get("scenarios")
    if not isinstance(data, list):
        raise ConfigurationError(
            f"--scenarios {path!r} must hold a JSON list of scenario dicts "
            "(or an object with a 'scenarios' list)"
        )
    return Session.as_cells(data)


def _cmd_run(args: argparse.Namespace) -> int:
    if (args.grid is None) == (args.scenarios is None):
        raise ConfigurationError("pass exactly one of --grid or --scenarios")
    if args.scenarios is not None and args.grid_kwargs is not None:
        raise ConfigurationError("--grid-kwargs only applies to --grid, not --scenarios")
    if args.grid is not None:
        grid = _resolve_grid(args.grid, args.grid_kwargs)
        cells = as_cells(grid)
        source = args.grid
    else:
        cells = _load_scenarios(args.scenarios)
        source = f"scenarios:{args.scenarios}"
    shard = ShardSpec.parse(args.shard) if args.shard else None
    if shard is not None:
        plan = ShardPlanner(args.strategy).plan(cells, shard.count)
        shard_cells = plan.shard(shard)
        print(
            f"grid: {len(cells)} cells -> shard {shard} "
            f"({len(shard_cells)} cells, strategy={args.strategy})"
        )
    else:
        shard_cells = cells
        print(f"grid: {len(cells)} cells (unsharded)")
    runner = SweepRunner(
        n_jobs=args.jobs,
        cache_dir=args.cache_dir,
        executor=args.executor,
        tile_rows=args.tile_rows,
    )
    if args.progress:
        runner.bus.subscribe(ProgressPrinter())
    outcome = runner.run(shard_cells)
    print(outcome.stats.render())
    if args.manifest:
        manifest = ShardManifest.for_cells(
            shard_cells,
            grid=source,
            strategy=args.strategy,
            shard=shard,
            stats=asdict(outcome.stats),
            cache_dir=args.cache_dir,
        )
        manifest.save(args.manifest)
        print(f"manifest: {args.manifest} ({len(manifest.cells)} cells)")
    return 0


def _cmd_merge(args: argparse.Namespace) -> int:
    report = merge_caches(args.sources, args.into)
    print(report.render())
    if args.manifests:
        merged = merge_manifests([ShardManifest.load(p) for p in args.manifests])
        out = args.manifest_out
        if out:
            merged.save(out)
            print(f"merged manifest: {out} ({len(merged.cells)} cells)")
        else:
            print(f"merged manifests: {len(merged.cells)} distinct cells")
    elif args.manifest_out:
        raise ConfigurationError("--manifest-out needs --manifests to merge")
    return 0


def _cmd_gc(args: argparse.Namespace) -> int:
    report = collect_garbage(
        args.cache_dir,
        max_bytes=None if args.max_bytes is None else parse_bytes(args.max_bytes),
        max_age_s=None if args.max_age is None else parse_duration(args.max_age),
        dry_run=args.dry_run,
    )
    print(report.render())
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    print(cache_stats(args.cache_dir).render())
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    report = verify_cache(args.cache_dir, quarantine=not args.no_quarantine)
    print(report.render())
    return 1 if (report.corrupt and args.strict) else 0


def configure_run(sub) -> argparse.ArgumentParser:
    """Attach the ``run`` subcommand (sweep a grid or one shard of it)."""
    run = sub.add_parser("run", help="sweep a grid (or one shard of it)")
    run.add_argument(
        "--grid", default=None,
        help="grid source as module:attr (ScenarioGrid, cell list, or callable)",
    )
    run.add_argument(
        "--scenarios", default=None, metavar="FILE",
        help="JSON file holding a list of Scenario dicts to sweep instead of --grid",
    )
    run.add_argument("--grid-kwargs", default=None, help="JSON kwargs for a callable grid")
    run.add_argument("--shard", default=None, help="run only shard i/K (e.g. 0/3)")
    run.add_argument(
        "--strategy", choices=("round_robin", "cost"), default="round_robin",
        help="shard partition strategy",
    )
    run.add_argument("--jobs", type=int, default=1, help="sweep worker processes")
    run.add_argument(
        "--executor", choices=EXECUTORS, default=None,
        help="execution strategy (default: serial for --jobs 1, else batched; "
        "results are bitwise-identical across all three)",
    )
    run.add_argument("--cache-dir", default=None, help="on-disk result cache")
    run.add_argument(
        "--tile-rows", type=int, default=None, metavar="N",
        help="engine streaming tile height (worker rows per band); results "
        "are bitwise-identical for every value (default: derived from the "
        "per-worker stream length)",
    )
    run.add_argument(
        "--progress", action="store_true",
        help="stream per-cell progress lines + the sweep summary to stderr",
    )
    run.add_argument("--manifest", default=None, help="write a shard manifest here")
    run.set_defaults(func=_cmd_run)
    return run


def configure_merge(sub) -> argparse.ArgumentParser:
    """Attach the ``merge`` subcommand (union shard caches into one)."""
    merge = sub.add_parser("merge", help="union shard caches into one")
    merge.add_argument("sources", nargs="+", help="shard cache directories")
    merge.add_argument("--into", required=True, help="destination cache directory")
    merge.add_argument("--manifests", nargs="*", default=None, help="shard manifests to union")
    merge.add_argument("--manifest-out", default=None, help="write the merged manifest here")
    merge.set_defaults(func=_cmd_merge)
    return merge


def configure_gc(sub) -> argparse.ArgumentParser:
    """Attach the ``gc`` subcommand (LRU cache eviction)."""
    gc = sub.add_parser("gc", help="evict LRU cache entries by policy")
    gc.add_argument("--cache-dir", required=True, help="cache directory")
    gc.add_argument("--max-bytes", default=None, help="size bound (e.g. 500M, 2G)")
    gc.add_argument("--max-age", default=None, help="age bound (e.g. 3600, 12h, 7d)")
    gc.add_argument("--dry-run", action="store_true", help="report without deleting")
    gc.set_defaults(func=_cmd_gc)
    return gc


def configure_stats(sub) -> argparse.ArgumentParser:
    """Attach the ``stats`` subcommand (cache size/hit/age summary)."""
    stats = sub.add_parser("stats", help="cache size/hit/age summary")
    stats.add_argument("--cache-dir", required=True, help="cache directory")
    stats.set_defaults(func=_cmd_stats)
    return stats


def configure_verify(sub) -> argparse.ArgumentParser:
    """Attach the ``verify`` subcommand (quarantine corrupt entries)."""
    verify = sub.add_parser("verify", help="quarantine corrupt cache entries")
    verify.add_argument("--cache-dir", required=True, help="cache directory")
    verify.add_argument(
        "--no-quarantine", action="store_true", help="report corruption without moving files"
    )
    verify.add_argument(
        "--strict", action="store_true", help="exit non-zero when corruption is found"
    )
    verify.set_defaults(func=_cmd_verify)
    return verify

