"""Published numbers from the paper, plus the full-paper driver.

The first half of this module transcribes the paper's figures and text
so the harness can print paper-vs-measured without re-reading the PDF.
Units: Fig 8a is seconds, the remaining Fig 8 panels are hours; Fig 9
is hours; Fig 16 is minutes.

The second half (:func:`run_figures` / ``python -m
repro.experiments``) regenerates every table and figure through
ONE shared :class:`~repro.sweep.runner.SweepRunner`: each figure module
declares its scenario grid, the runner fans all cells out over a
process pool (``--jobs``) and memoizes each cell's result on disk
(``--cache-dir``), so a repeated invocation with a warm cache
re-simulates nothing.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from concurrent.futures import Future, ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import Any, Callable, Mapping

from ..errors import ConfigurationError
from ..rng import DEFAULT_SEED
from ..sweep import EXECUTORS, SweepCell, SweepRunner, SweepStats, executors
from .common import render_result, resolve_runner

__all__ = [
    "FigureSpec",
    "PaperRun",
    "resolve_figure_params",
    "run_figures",
    "FIG8",
    "FIG8_UNSUPPORTED",
    "FIG9_HOURS",
    "FIG9_LOWER_BOUND_HOURS",
    "FIG10_SPEEDUPS",
    "FIG12_STALL_SECONDS",
    "FIG14_SPEEDUP",
    "FIG15_SPEEDUP",
    "FIG16",
    "SEC31_EXPECTED_HOT",
    "SEC31_MONTE_CARLO_HOT",
    "TABLE1_ROWS",
]

#: Fig 8 execution times per panel; 'a' in seconds, others in hours.
FIG8: dict[str, dict[str, float]] = {
    "a": {  # S < d1, MNIST
        "naive": 1.24, "staging_buffer": 0.73, "deepio_ordered": 0.75,
        "deepio_opportunistic": 0.75, "parallel_staging": 0.86,
        "lbann_dynamic": 0.73, "lbann_preloading": 0.75,
        "locality_aware": 0.78, "nopfs": 0.73, "lower_bound": 0.73,
    },
    "b": {  # d1 < S < D, ImageNet-1k
        "naive": 1.27, "staging_buffer": 0.97, "deepio_ordered": 0.93,
        "deepio_opportunistic": 0.93, "parallel_staging": 0.97,
        "lbann_dynamic": 0.82, "lbann_preloading": 0.85,
        "locality_aware": 0.88, "nopfs": 0.79, "lower_bound": 0.75,
    },
    "c": {  # d1 < S < ND, OpenImages
        "naive": 4.72, "staging_buffer": 3.61, "deepio_ordered": 3.44,
        "deepio_opportunistic": 3.44, "parallel_staging": 3.60,
        "lbann_dynamic": 3.06, "lbann_preloading": 3.15,
        "locality_aware": 3.25, "nopfs": 2.91, "lower_bound": 2.78,
    },
    "d": {  # D < S < ND, ImageNet-22k (LBANN unsupported)
        "naive": 14.09, "staging_buffer": 9.95, "deepio_ordered": 13.78,
        "deepio_opportunistic": 8.39, "parallel_staging": 9.38,
        "locality_aware": 9.72, "nopfs": 8.71, "lower_bound": 8.29,
    },
    "e": {  # ND < S, CosmoFlow
        "naive": 19.33, "staging_buffer": 14.79, "deepio_ordered": 18.05,
        "deepio_opportunistic": 12.62, "parallel_staging": 13.80,
        "locality_aware": 13.33, "nopfs": 11.95, "lower_bound": 11.38,
    },
    "f": {  # ND < S, N=8, CosmoFlow 512^3
        "naive": 7.30, "staging_buffer": 4.52, "deepio_ordered": 6.06,
        "deepio_opportunistic": 4.00, "parallel_staging": 5.04,
        "locality_aware": 4.25, "nopfs": 3.65, "lower_bound": 3.48,
    },
}

#: Policies the paper marks "Does not support" per panel.
FIG8_UNSUPPORTED: dict[str, tuple[str, ...]] = {
    "d": ("lbann_dynamic", "lbann_preloading"),
    "e": ("lbann_dynamic", "lbann_preloading"),
    "f": ("lbann_dynamic", "lbann_preloading"),
}

#: Fig 9: ImageNet-22k + NoPFS runtime (hours) vs (RAM GB, SSD GB).
FIG9_HOURS: dict[tuple[int, int], float] = {
    (0, 0): 1.64, (32, 0): 1.54, (64, 0): 1.46, (128, 0): 1.33,
    (256, 0): 1.24, (512, 0): 1.10,
    (0, 128): 1.49, (32, 128): 1.42, (64, 128): 1.37, (128, 128): 1.26,
    (256, 128): 1.21, (512, 128): 1.07,
    (0, 256): 1.39, (32, 256): 1.34, (64, 256): 1.28, (128, 256): 1.17,
    (256, 256): 1.16,
    (0, 512): 1.31, (32, 512): 1.26, (64, 512): 1.22, (128, 512): 1.14,
    (256, 512): 1.13,
    (0, 1024): 1.28, (32, 1024): 1.22, (64, 1024): 1.18, (128, 1024): 1.09,
    (256, 1024): 1.08,
}
FIG9_LOWER_BOUND_HOURS = 1.06

#: Headline Sec 7.1 speedups of NoPFS over the named baseline.
FIG10_SPEEDUPS = {
    ("piz_daint", "pytorch", 256): 2.2,
    ("piz_daint", "dali", 256): 1.9,
    ("lassen", "pytorch", 1024): 5.4,
    ("lassen", "lbann_dynamic", 1024): 1.7,
}

#: Fig 12: NoPFS total stall time (s) vs GPU count on Piz Daint.
FIG12_STALL_SECONDS = {32: 99.56, 64: 22.59, 128: 10.16, 256: 16.41}

#: ImageNet-22k on Lassen at 1024 GPUs (Fig 14).
FIG14_SPEEDUP = 2.4
#: CosmoFlow on Lassen at 1024 GPUs (Fig 15).
FIG15_SPEEDUP = 2.1

#: Fig 16: end-to-end ResNet-50/ImageNet-1k on 256 Lassen GPUs.
FIG16 = {
    "pytorch_minutes": 111.0,
    "nopfs_minutes": 78.0,
    "speedup": 1.42,
    "final_top1": 76.5,
}

#: Sec 3.1 in-text example (N=16, E=90, F=1,281,167, delta=0.8).
SEC31_EXPECTED_HOT = 31_635
SEC31_MONTE_CARLO_HOT = 31_863

#: Table 1, row order and check marks as printed in the paper.
TABLE1_ROWS: dict[str, tuple[str, str, str, str, str]] = {
    "pytorch": ("no", "yes", "yes", "no", "yes"),
    "staging_buffer": ("no", "yes", "no", "no", "yes"),
    "parallel_staging": ("yes", "no", "no", "no", "yes"),
    "deepio_ordered": ("yes", "no", "no", "no", "yes"),
    "lbann_dynamic": ("yes", "no", "yes", "no", "no"),
    "locality_aware": ("yes", "yes", "yes", "no", "no"),
    "nopfs": ("yes", "yes", "yes", "yes", "yes"),
}


# ---------------------------------------------------------------------------
# Full-paper driver
# ---------------------------------------------------------------------------

#: Laptop-fast parameters per figure — same scales the test-suite uses,
#: chosen so every paper-vs-measured *shape* survives the shrink.
QUICK_PARAMS: dict[str, dict[str, Any]] = {
    "table1": {},
    "fig3": dict(num_samples=100_000, num_epochs=30, num_workers=8),
    "fig8": dict(scale=0.02),
    "fig9": dict(scale=0.005, ram_gb=(0, 64, 256), ssd_gb=(0, 256, 1024), num_epochs=3),
    "fig10_piz_daint": dict(gpu_counts=(32, 128), scale=0.1, num_epochs=3),
    "fig10_lassen": dict(gpu_counts=(32, 128), scale=0.1, num_epochs=3),
    "fig11": dict(gpu_counts=(32, 64), scale=0.1, num_epochs=3),
    "fig12": dict(gpu_counts=(32, 128), scale=0.1, num_epochs=4),
    "fig13": dict(batch_sizes=(32, 96), gpus=64, scale=0.1, num_epochs=3),
    "fig14": dict(gpu_counts=(32, 256), scale=0.02, num_epochs=3),
    "fig15": dict(gpu_counts=(32, 128), scale=0.05, num_epochs=3),
    "fig16": dict(gpus=128, scale=0.1, num_epochs=30),
}

#: The figure modules' own defaults (full bench scales).
FULL_PARAMS: dict[str, dict[str, Any]] = {name: {} for name in QUICK_PARAMS}


@dataclass(frozen=True)
class PaperRun:
    """Everything one driver invocation regenerated, plus sweep stats."""

    results: dict[str, Any]
    sweep_stats: SweepStats

    def render(self) -> str:
        """All regenerated tables/figures plus the sweep summary."""
        sections: list[str] = []
        for name, result in self.results.items():
            sections.append(f"=== {name} ===\n{render_result(result)}")
        sections.append(f"=== sweep ===\n{self.sweep_stats.render()}")
        return "\n\n".join(sections)


@dataclass(frozen=True)
class FigureSpec:
    """One driver figure: how to build it and what it depends on.

    ``build`` regenerates the figure (runner and seed pre-bound);
    ``cells`` declares its sweep grid — the cells whose cached results
    the rendered output is a pure function of — without running
    anything (None for figures that do not simulate: table1, fig3);
    ``modules`` names the python modules whose source feeds the render
    fingerprint used by the incremental artifact pipeline
    (:mod:`repro.experiments.artifacts`).
    """

    build: Callable[..., Any]
    cells: Callable[..., list[SweepCell]] | None
    modules: tuple[str, ...]


def _figure_specs(runner: SweepRunner, seed: int) -> dict[str, FigureSpec]:
    """The driver's figure registry, keyed by figure name."""
    # Imported lazily: the figure modules import this module at load time.
    from . import (
        fig3,
        fig8,
        fig9,
        fig10,
        fig11,
        fig12,
        fig13,
        fig14,
        fig15,
        fig16,
        table1,
    )

    # Defaults are merged *under* the caller's kwargs, so overrides may
    # rebind any kwarg the target figure accepts (simulation figures
    # take seed/runner; table1 and fig3 only their own parameters —
    # unknown kwargs surface as the figure's TypeError).
    shared = {"seed": seed, "runner": runner}
    seeded = {"seed": seed}
    here = "repro.experiments"

    def spec(
        build: Callable[..., Any],
        cells: Callable[..., list[SweepCell]] | None,
        *modules: str,
    ) -> FigureSpec:
        return FigureSpec(build=build, cells=cells, modules=modules)

    return {
        "table1": spec(
            lambda **kw: table1.run(**kw), None, f"{here}.table1"
        ),
        "fig3": spec(
            lambda **kw: fig3.run(**{**seeded, **kw}), None, f"{here}.fig3"
        ),
        "fig8": spec(
            lambda **kw: fig8.run_all(**{**shared, **kw}),
            lambda **kw: fig8.all_cells(**{**seeded, **kw}),
            f"{here}.fig8",
        ),
        "fig9": spec(
            lambda **kw: fig9.run(**{**shared, **kw}),
            lambda **kw: fig9.cells(**{**seeded, **kw}),
            f"{here}.fig9",
        ),
        "fig10_piz_daint": spec(
            lambda **kw: fig10.run("piz_daint", **{**shared, **kw}),
            lambda **kw: fig10.cells("piz_daint", **{**seeded, **kw}),
            f"{here}.fig10", f"{here}.scaling",
        ),
        "fig10_lassen": spec(
            lambda **kw: fig10.run("lassen", **{**shared, **kw}),
            lambda **kw: fig10.cells("lassen", **{**seeded, **kw}),
            f"{here}.fig10", f"{here}.scaling",
        ),
        "fig11": spec(
            lambda **kw: fig11.run(**{**shared, **kw}),
            lambda **kw: fig11.cells(**{**seeded, **kw}),
            f"{here}.fig11",
        ),
        "fig12": spec(
            lambda **kw: fig12.run(**{**shared, **kw}),
            lambda **kw: fig12.cells(**{**seeded, **kw}),
            f"{here}.fig12",
        ),
        "fig13": spec(
            lambda **kw: fig13.run(**{**shared, **kw}),
            lambda **kw: fig13.cells(**{**seeded, **kw}),
            f"{here}.fig13",
        ),
        "fig14": spec(
            lambda **kw: fig14.run(**{**shared, **kw}),
            lambda **kw: fig14.cells(**{**seeded, **kw}),
            f"{here}.fig14", f"{here}.scaling",
        ),
        "fig15": spec(
            lambda **kw: fig15.run(**{**shared, **kw}),
            lambda **kw: fig15.cells(**{**seeded, **kw}),
            f"{here}.fig15", f"{here}.scaling",
        ),
        "fig16": spec(
            lambda **kw: fig16.run(**{**shared, **kw}),
            lambda **kw: fig16.cells(**{**seeded, **kw}),
            # Unlike the other figures, fig16's *rendering* runs model
            # code outside the simulator (accuracy curves + end-to-end
            # comparison), which cell keys cannot see — fingerprint it.
            f"{here}.fig16",
            "repro.training.accuracy",
            "repro.training.endtoend",
        ),
    }


def run_figures(
    runner: SweepRunner | None = None,
    profile: str = "quick",
    figures: list[str] | None = None,
    seed: int = DEFAULT_SEED,
    overrides: Mapping[str, Mapping[str, Any]] | None = None,
) -> PaperRun:
    """Regenerate the paper's tables/figures through one shared sweep.

    Every simulation-backed figure declares its grid and consumes
    results from the same ``runner`` (one configuration, one cache) —
    so with a cache-backed runner a second invocation performs zero
    re-simulations, and with ``n_jobs > 1`` each figure's grid fans
    out over ``n_jobs`` worker processes.

    ``profile`` selects parameter sets (``"quick"`` laptop scales or
    ``"full"`` bench defaults); ``overrides`` merges per-figure kwargs
    on top. ``figures`` restricts the run to a subset, in the given
    order.

    With an in-process runner and a second CPU
    (``executors._cpu_budget() > 1``), a plan that holds both
    runner-free figures (``FigureSpec.cells is None``: Table 1, Fig 3)
    and runner-backed ones builds the runner-free ones, in plan order,
    on one helper thread while the calling thread builds the rest
    (:func:`_build_figures`). Only the calling thread touches the
    runner, the cache and the simulator (Figs 8 and 9's lower bounds
    build epoch matrices too). A pool runner gets no helper: it forks
    its workers, and a fork must not find a live thread. Results are
    the same either way, and ``results`` keeps plan order.
    """
    runner = resolve_runner(runner)
    specs = _figure_specs(runner, seed)
    plan = resolve_figure_params(specs, profile, figures, overrides)

    before = dataclasses.replace(runner.lifetime)
    free = {name for name, _ in plan if specs[name].cells is None}
    if (
        0 < len(free) < len(plan)
        and runner.executor.in_process
        and executors._cpu_budget() > 1
    ):
        results = _build_figures(specs, plan, free)
    else:
        results = {name: specs[name].build(**kwargs) for name, kwargs in plan}
    return PaperRun(results=results, sweep_stats=runner.lifetime.minus(before))


def _build_figures(
    specs: Mapping[str, FigureSpec],
    plan: list[tuple[str, dict[str, Any]]],
    free: set[str],
) -> dict[str, Any]:
    """Build the ``free`` figures on a helper thread and the rest here.

    The runner-free figures call none of the runner, cache or simulator
    callables the runner-backed ones use, so the two threads share no
    state. The helper is started and joined inside this call. A
    figure's error is raised, with its own type, once the helper is
    joined; when several fail, the first in plan order wins. Builds
    stop at the first error they can see, and every figure they skip
    comes after it in plan order.
    """
    helper = ThreadPoolExecutor(max_workers=1, thread_name_prefix="repro-figure")
    try:
        built: dict[str, Future] = {
            name: helper.submit(specs[name].build, **kwargs)
            for name, kwargs in plan
            if name in free
        }
        for at, (name, kwargs) in enumerate(plan):
            if name in free:
                continue
            if any(_failed(built[earlier]) for earlier, _ in plan[:at] if earlier in free):
                break
            built[name] = _settle(specs[name].build, kwargs)
            if _failed(built[name]):
                for later, _ in plan[at + 1:]:
                    if later in free:
                        built[later].cancel()
                break
        # Every figure not cancelled above finishes; the shutdown below
        # cancels queued figures only when an interrupt escapes.
        wait(built.values())
    finally:
        helper.shutdown(wait=True, cancel_futures=True)
    # Plan order reaches an error before any figure a build skipped.
    return {name: built[name].result() for name, _ in plan}


def _settle(build: Callable[..., Any], kwargs: dict[str, Any]) -> Future:
    """A done future holding ``build(**kwargs)``'s result or error."""
    future: Future = Future()
    try:
        future.set_result(build(**kwargs))
    except Exception as exc:
        future.set_exception(exc)
    return future


def _failed(future: Future) -> bool:
    """Whether ``future`` (never a cancelled one) has finished with an error."""
    return future.done() and future.exception() is not None


def resolve_figure_params(
    specs: Mapping[str, FigureSpec],
    profile: str,
    figures: list[str] | None,
    overrides: Mapping[str, Mapping[str, Any]] | None,
) -> list[tuple[str, dict[str, Any]]]:
    """Validate a driver request and merge each figure's parameters.

    Returns ``(name, kwargs)`` pairs in run order: the profile's
    defaults with the caller's per-figure ``overrides`` on top. Unknown
    or repeated figure names and unknown override names raise
    :class:`~repro.errors.ConfigurationError`. Shared with the
    incremental artifact pipeline so both drivers resolve identically.
    """
    if profile not in ("quick", "full"):
        raise ConfigurationError(f"unknown profile {profile!r}")
    params = QUICK_PARAMS if profile == "quick" else FULL_PARAMS
    names = list(figures) if figures is not None else list(specs)
    unknown = [n for n in names if n not in specs]
    if unknown:
        raise ConfigurationError(f"unknown figures: {unknown}; known: {sorted(specs)}")
    repeated = [n for n, count in Counter(names).items() if count > 1]
    if repeated:
        raise ConfigurationError(f"repeated figures: {repeated}")
    bad_overrides = [n for n in (overrides or {}) if n not in specs]
    if bad_overrides:
        raise ConfigurationError(
            f"overrides for unknown figures: {bad_overrides}; known: {sorted(specs)}"
        )
    plan: list[tuple[str, dict[str, Any]]] = []
    for name in names:
        kwargs = dict(params.get(name, {}))
        kwargs.update(dict((overrides or {}).get(name, {})))
        plan.append((name, kwargs))
    return plan


def main(argv: list[str] | None = None) -> None:  # pragma: no cover - CLI entry
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro experiments",
        description="Regenerate the paper's figures through the shared sweep engine.",
        allow_abbrev=False,
    )
    parser.add_argument("--jobs", type=int, default=1, help="sweep worker processes")
    parser.add_argument(
        "--cache-dir", default=None, help="on-disk result cache (default: no cache)"
    )
    parser.add_argument(
        "--executor", choices=EXECUTORS, default=None,
        help="sweep execution strategy (default: derived from --jobs)",
    )
    parser.add_argument("--profile", choices=("quick", "full"), default="quick")
    parser.add_argument(
        "--figures", default=None, help="comma-separated subset (e.g. fig8,fig9)"
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--artifacts", default=None, metavar="DIR",
        help="incremental mode: write per-figure outputs + manifest to DIR and "
        "skip figures whose cells and rendering code are unchanged",
    )
    parser.add_argument(
        "--force", action="store_true",
        help="with --artifacts: re-render everything, ignoring the manifest",
    )
    args = parser.parse_args(argv)

    runner = SweepRunner(n_jobs=args.jobs, cache_dir=args.cache_dir, executor=args.executor)
    figures = [f.strip() for f in args.figures.split(",")] if args.figures else None
    if args.artifacts:
        from .artifacts import run_incremental  # deferred: artifacts imports paper

        run = run_incremental(
            args.artifacts,
            runner=runner,
            profile=args.profile,
            figures=figures,
            seed=args.seed,
            force=args.force,
        )
    else:
        run = run_figures(
            runner=runner, profile=args.profile, figures=figures, seed=args.seed
        )
    print(run.render())

