"""Incremental figure rendering: manifest, fingerprints, skip logic.

``python -m repro experiments --artifacts DIR`` writes each figure's
rendered text to ``DIR/<figure>.txt`` plus a ``DIR/manifest.json``
recording, per figure,

* the sorted *cell keys* of its declared sweep grid (the content
  addresses of every simulation the output depends on — see
  :func:`repro.sweep.cache.cell_key`), and
* a *render fingerprint* covering the figure's rendering source
  (its module plus shared harness modules), the resolved parameters,
  the seed, and the simulator code fingerprint.

A re-render recomputes a figure only when either changed: different
cells (a parameter/seed/simulator edit) or different rendering code.
Unchanged figures are *skipped* — no simulation, no re-render; their
text is served from ``DIR`` — and reported as skipped. With a warm
result cache, a fully-unchanged full-paper re-render therefore performs
zero simulations and renders zero figures.

The skip test is sound because every figure's output is a pure function
of (cell results, rendering code, parameters): cell keys pin the former
(any config/policy/simulator change changes the key) and the
fingerprint pins the latter. The output file's digest is also checked,
so hand-edited or truncated artifacts re-render rather than being
trusted.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import importlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from ..rng import DEFAULT_SEED
from ..sweep import SweepRunner, SweepStats, code_fingerprint
from ..sweep.cache import atomic_write_json, cell_key_from_dict
from .common import render_result, resolve_runner
from .paper import FigureSpec, _figure_specs, resolve_figure_params

__all__ = [
    "ArtifactManifest",
    "FigureArtifact",
    "IncrementalRun",
    "render_fingerprint",
    "run_incremental",
]

#: ``manifest.json`` format version.
ARTIFACT_SCHEMA_VERSION = 1

#: Harness modules every figure's rendering depends on.
_SHARED_MODULES = ("repro.experiments.common", "repro.experiments.paper")


@functools.lru_cache(maxsize=None)
def _module_source_digest(module_name: str) -> str:
    """SHA-256 (hex) of one module's source file; '' when unreadable.

    Cached for the process lifetime — the shared harness modules are
    fingerprinted once, not once per figure per invocation.
    """
    try:
        module = importlib.import_module(module_name)
        source = getattr(module, "__file__", None)
        if source is None:
            return ""
        return hashlib.sha256(Path(source).read_bytes()).hexdigest()
    except (ImportError, OSError):
        return ""


def render_fingerprint(
    spec: FigureSpec, params: Mapping[str, Any], seed: int
) -> str:
    """The content hash of everything but the cells a figure depends on.

    Covers the figure's rendering source (its declared modules plus the
    shared harness modules), the resolved parameters, the seed and the
    simulator :func:`~repro.sweep.cache.code_fingerprint` — so editing
    a ``render()`` method, a published-constant table, or a parameter
    forces a re-render even when the sweep cells are unchanged.
    """
    payload = {
        "schema": ARTIFACT_SCHEMA_VERSION,
        "code": code_fingerprint(),
        "modules": {
            name: _module_source_digest(name)
            for name in (*spec.modules, *_SHARED_MODULES)
        },
        "params": {k: repr(v) for k, v in sorted(params.items())},
        "seed": seed,
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class FigureArtifact:
    """One figure's manifest record: dependencies and output identity."""

    name: str
    fingerprint: str
    cell_keys: tuple[str, ...]
    output_digest: str
    output_file: str

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready form (inverse of :meth:`from_dict`)."""
        return {
            "fingerprint": self.fingerprint,
            "cell_keys": list(self.cell_keys),
            "output_digest": self.output_digest,
            "output_file": self.output_file,
        }

    @classmethod
    def from_dict(cls, name: str, data: dict[str, Any]) -> "FigureArtifact":
        """Rebuild a record from its JSON form."""
        return cls(
            name=name,
            fingerprint=str(data.get("fingerprint", "")),
            cell_keys=tuple(data.get("cell_keys", [])),
            output_digest=str(data.get("output_digest", "")),
            output_file=str(data.get("output_file", f"{name}.txt")),
        )


@dataclass
class ArtifactManifest:
    """The on-disk record of what a figure run produced and from what."""

    path: Path
    figures: dict[str, FigureArtifact] = field(default_factory=dict)

    @classmethod
    def load(cls, path: str | Path) -> "ArtifactManifest":
        """Read a manifest; a missing or unreadable file starts empty.

        (Corrupt manifests only cost a full re-render — never a wrong
        skip — so tolerating them beats crashing the driver.)
        """
        path = Path(path)
        figures: dict[str, FigureArtifact] = {}
        try:
            data = json.loads(path.read_text())
            for name, record in data.get("figures", {}).items():
                figures[name] = FigureArtifact.from_dict(name, record)
        except (OSError, json.JSONDecodeError, AttributeError, TypeError, ValueError):
            figures = {}
        return cls(path=path, figures=figures)

    def save(self) -> None:
        """Atomically persist the manifest as JSON."""
        payload = {
            "schema": ARTIFACT_SCHEMA_VERSION,
            "figures": {n: a.to_dict() for n, a in sorted(self.figures.items())},
        }
        atomic_write_json(self.path, payload, indent=2)


@dataclass(frozen=True)
class IncrementalRun:
    """One incremental driver invocation: texts, skip report, stats."""

    rendered: dict[str, str]
    recomputed: tuple[str, ...]
    skipped: tuple[str, ...]
    sweep_stats: SweepStats
    artifact_dir: Path

    def render(self) -> str:
        """All figure texts plus the skip report and sweep summary."""
        sections = [
            f"=== {name} ===\n{text}" for name, text in self.rendered.items()
        ]
        skip_line = (
            f"skipped (unchanged): {', '.join(self.skipped)}"
            if self.skipped
            else "skipped (unchanged): none"
        )
        sections.append(
            "=== artifacts ===\n"
            f"dir: {self.artifact_dir}\n"
            f"recomputed: {', '.join(self.recomputed) or 'none'}\n"
            + skip_line
        )
        sections.append(f"=== sweep ===\n{self.sweep_stats.render()}")
        return "\n\n".join(sections)


def _figure_cell_keys(spec: FigureSpec, params: Mapping[str, Any]) -> tuple[str, ...]:
    """The sorted content keys of a figure's declared grid (no sims run).

    Config serialization is memoized per config object, matching the
    sweep runner: figures that compare many policies on one scenario
    serialize that scenario once.
    """
    if spec.cells is None:
        return ()
    config_dicts: dict[int, dict[str, Any]] = {}
    keys: set[str] = set()
    for cell in spec.cells(**dict(params)):
        config_dict = config_dicts.get(id(cell.config))
        if config_dict is None:
            config_dict = config_dicts[id(cell.config)] = cell.config.to_dict()
        keys.add(cell_key_from_dict(config_dict, cell.policy))
    return tuple(sorted(keys))


def _output_digest(text: str) -> str:
    """SHA-256 (hex) of one rendered figure text."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_incremental(
    artifact_dir: str | Path,
    runner: SweepRunner | None = None,
    profile: str = "quick",
    figures: list[str] | None = None,
    seed: int = DEFAULT_SEED,
    overrides: Mapping[str, Mapping[str, Any]] | None = None,
    force: bool = False,
) -> IncrementalRun:
    """Regenerate figures into ``artifact_dir``, skipping unchanged ones.

    Parameters
    ----------
    artifact_dir:
        Where per-figure texts and ``manifest.json`` live.
    runner:
        Shared sweep runner (parallelism + result cache); defaults to a
        serial uncached one.
    profile, figures, seed, overrides:
        As in :func:`repro.experiments.paper.run_figures`.
    force:
        Re-render every requested figure regardless of the manifest.
    """
    artifact_dir = Path(artifact_dir)
    artifact_dir.mkdir(parents=True, exist_ok=True)
    runner = resolve_runner(runner)
    specs = _figure_specs(runner, seed)
    plan = resolve_figure_params(specs, profile, figures, overrides)
    manifest = ArtifactManifest.load(artifact_dir / "manifest.json")

    before = dataclasses.replace(runner.lifetime)
    rendered: dict[str, str] = {}
    recomputed: list[str] = []
    skipped: list[str] = []
    for name, params in plan:
        spec = specs[name]
        fingerprint = render_fingerprint(spec, params, seed)
        keys = _figure_cell_keys(spec, params)
        prior = manifest.figures.get(name)
        out_path = artifact_dir / f"{name}.txt"
        if not force and prior is not None:
            if (
                prior.fingerprint == fingerprint
                and prior.cell_keys == keys
                and out_path.is_file()
            ):
                text = out_path.read_text()
                if _output_digest(text) == prior.output_digest:
                    rendered[name] = text
                    skipped.append(name)
                    continue
        text = render_result(spec.build(**params))
        out_path.write_text(text)
        manifest.figures[name] = FigureArtifact(
            name=name,
            fingerprint=fingerprint,
            cell_keys=keys,
            output_digest=_output_digest(text),
            output_file=out_path.name,
        )
        rendered[name] = text
        recomputed.append(name)
    manifest.save()
    return IncrementalRun(
        rendered=rendered,
        recomputed=tuple(recomputed),
        skipped=tuple(skipped),
        sweep_stats=runner.lifetime.minus(before),
        artifact_dir=artifact_dir,
    )
