"""One workload in one fresh process (spawned by ``run.py``).

Modes:

* ``probe``  — import and build the workload's inputs, then stop: one
  more sample of set-up time;
* ``fill``   — one untimed cold run of the paper driver into
  ``--cache-dir`` (the cache ``paper-warm`` then reads);
* ``timed``  — reps back to back until ``--seconds`` of measured job
  time, tracing off;
* ``traced`` — one rep with every layer boundary wrapped in spans.

The last line of stdout is one JSON report. ``t_ready`` is the
``time.monotonic()`` reading just before the first rep; the parent
subtracts its own reading at spawn to get set-up time (both read the
system-wide monotonic clock). ``refs`` holds passes of the reference
loop (:func:`reference_s`): in ``timed`` and ``fill`` one ahead of each
rep, in ``probe`` and ``traced`` three.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Callable

import checks
import tracing

import numpy as np
import repro
from repro.api import FIG8_POLICIES, Scenario, Session
from repro.experiments import paper
from repro.search import SearchSpace
from repro.sweep import SweepRunner

SRC = Path(__file__).resolve().parents[1] / "src"
# Looked up at call time, so the traced rep sees the wrapped function.
search_run = importlib.import_module("repro.search.run")

#: Fig 10's Lassen lineup (the paper's 1024-GPU comparison).
FIG10_POLICIES = (
    "pytorch",
    "lbann:dynamic",
    "nopfs",
    "naive",
    "staging_buffer",
    "deepio:opportunistic",
    "locality_aware",
)


class RecordingRunner(SweepRunner):
    """A :class:`SweepRunner` that keeps every outcome it hands back."""

    def __init__(self, **kwargs: Any) -> None:
        super().__init__(**kwargs)
        self.outcomes: list = []

    def run(self, grid):
        outcome = super().run(grid)
        self.outcomes.append(outcome)
        return outcome


class RecordingSession(Session):
    """A :class:`Session` that keeps every sweep outcome it hands back."""

    def __init__(self, **kwargs: Any) -> None:
        super().__init__(**kwargs)
        self.outcomes: list = []

    def sweep(self, grid, **kwargs):
        outcome = super().sweep(grid, **kwargs)
        self.outcomes.append(outcome)
        return outcome


def cell_outcome(outcome, tag) -> checks.Outcome:
    """``(result_dict, error)`` of one cell of a sweep outcome."""
    result = outcome.get(tag)
    return (None if result is None else result.to_dict()), outcome.errors.get(tag)


def sweep_outcomes(outcomes: list) -> list[checks.Outcome]:
    """``(result_dict, error)`` for every cell of some sweep outcomes."""
    return [
        cell_outcome(outcome, tag)
        for outcome in outcomes
        for tag in (*outcome.results, *outcome.unsupported)
    ]


class Workload:
    """Inputs built from the seed, plus the job one rep times.

    ``job(on_event)`` is the timed call and returns what the checks
    need; everything else runs outside the timed region. ``answered``
    is the number of scenario cells one rep answers (the numerator of
    ``cells_per_s``).
    """

    name = ""
    #: Worker processes of the sweep layer (the base of ``busy_ratio``).
    jobs = 1

    def __init__(self, seed: int, scratch: Path, cache_dir: Path | None = None) -> None:
        self.seed = seed
        self.scratch = scratch
        self.cache_dir = cache_dir

    def fresh_dir(self) -> Path:
        return Path(tempfile.mkdtemp(dir=self.scratch))

    def job(self, on_event: Callable | None = None) -> Any:
        raise NotImplementedError

    def answered(self, out: Any) -> int:
        raise NotImplementedError

    def outcomes(self, out: Any) -> list[checks.Outcome]:
        """Every simulated or cached cell of the rep, serialized."""
        raise NotImplementedError

    def digest(self, out: Any, outcomes: list[checks.Outcome]) -> str:
        return checks.digest(outcomes)

    def problems(self, out: Any) -> list[str]:
        """Rep-level check failures beyond the per-result invariants."""
        return []

    def cross_check(self, out: Any) -> list[str]:
        """Compare one rep's answer with another code path (run once)."""
        return []

    def counters(self, out: Any) -> dict[str, float]:
        """Counters the job reports about itself, for the traced rep."""
        return {}

    def cleanup(self, out: Any) -> None:
        """Remove what the rep left on disk."""


class PaperFill(Workload):
    """``run_figures(profile="quick")`` into ``cache_dir``: the ``fill`` mode.

    One untimed cold run of the paper driver; it writes the cache
    ``paper-warm`` then reads.
    """

    name = "paper-fill"

    def job(self, on_event=None):
        runner = RecordingRunner(n_jobs=1, cache_dir=self.cache_dir)
        if on_event is not None:
            runner.bus.subscribe(on_event)
        return runner, paper.run_figures(runner=runner, profile="quick", seed=self.seed)

    def answered(self, out):
        return out[1].sweep_stats.cells

    def outcomes(self, out):
        return sweep_outcomes(out[0].outcomes)

    def render_digest(self, out) -> str:
        """sha256 of the printed tables, minus the timing-bearing sweep line."""
        text = out[1].render().rsplit("\n\n=== sweep ===", 1)[0]
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    def problems(self, out):
        runner, run = out
        entries, misses = runner.cache.count(), run.sweep_stats.misses
        if entries != misses:
            return [f"{entries} cache entries after {misses} misses"]
        return []


class PaperWarm(PaperFill):
    """The same driver call against a cache an earlier child filled."""

    name = "paper-warm"

    def problems(self, out):
        stats = out[1].sweep_stats
        if stats.misses or stats.hits != stats.cells:
            return [f"warm run: {stats.hits} hits / {stats.misses} misses of {stats.cells}"]
        return []


class Lassen1024(Workload):
    """Fig 10's 1024-GPU Lassen point at full ImageNet-1k size, uncached."""

    name = "lassen-1024"

    def __init__(self, seed, scratch, cache_dir=None):
        super().__init__(seed, scratch, cache_dir)
        self.scenarios = [
            Scenario(dataset="imagenet1k", system="lassen:1024", policy=policy,
                     batch_size=32, num_epochs=3, scale=1.0, seed=seed)
            for policy in FIG10_POLICIES
        ]

    def job(self, on_event=None):
        return Session(jobs=1, tile_rows=64).sweep(self.scenarios, on_event=on_event)

    def answered(self, out):
        return out.stats.cells

    def outcomes(self, out):
        return sweep_outcomes([out])


class SeedsJ2(Workload):
    """Sec 7 multi-seed replication of the Fig 8 lineup on a 2-worker pool."""

    name = "seeds-j2"
    jobs = 2
    seeds = 8

    def __init__(self, seed, scratch, cache_dir=None):
        super().__init__(seed, scratch, cache_dir)
        dataset = {"name": "imagenet1k", "seed": seed}
        self.scenarios = [
            Scenario(dataset=dataset, system="sec6_cluster", policy=policy,
                     batch_size=32, num_epochs=3, scale=0.05, seed=s)
            for s in range(seed, seed + self.seeds)
            for policy in FIG8_POLICIES
        ]

    def job(self, on_event=None):
        cache = self.fresh_dir()
        session = Session(jobs=self.jobs, cache_dir=cache)
        return cache, session.sweep(self.scenarios, on_event=on_event)

    def answered(self, out):
        return out[1].stats.cells

    def outcomes(self, out):
        return sweep_outcomes([out[1]])

    def cross_check(self, out):
        """The first seed's cells, re-run serially, match the pool's bitwise."""
        serial = Session(jobs=1).sweep(self.scenarios[: len(FIG8_POLICIES)])
        differ = [
            tag for tag in (*serial.results, *serial.unsupported)
            if checks.canonical(cell_outcome(serial, tag))
            != checks.canonical(cell_outcome(out[1], tag))
        ]
        return [f"serial re-run differs from the pool on {len(differ)} cells"] if differ else []

    def cleanup(self, out):
        shutil.rmtree(out[0])


class SearchBB(Workload):
    """Branch-and-bound over the Fig 8 lineup on Piz Daint (256 GPUs)."""

    name = "search-bb"

    def __init__(self, seed, scratch, cache_dir=None):
        super().__init__(seed, scratch, cache_dir)
        self.space = SearchSpace(
            base=Scenario(dataset="imagenet1k", system="piz_daint:256", policy="nopfs",
                          batch_size=32, num_epochs=3, scale=0.1, seed=seed)
        )

    def job(self, on_event=None):
        session = RecordingSession(jobs=1)
        manifest = search_run.run_search(
            self.space, driver="bb", session=session, on_event=on_event
        )
        return session, manifest

    def answered(self, out):
        return self.space.size()

    def outcomes(self, out):
        return sweep_outcomes(out[0].outcomes)

    def digest(self, out, outcomes):
        """Covers the incumbent and every evaluated objective too."""
        manifest = out[1]
        summary = checks.canonical({
            "incumbent": manifest.best.objective_s,
            "evaluated": [e.objective_s for e in manifest.evaluations],
        })
        return checks.digest([*outcomes, (None, summary)])

    def cross_check(self, out):
        """The incumbent is the exhaustive minimum over every candidate."""
        manifest = out[1]
        swept = Session(jobs=1).sweep(list(self.space.candidates()))
        problems = [
            f"exhaustive {r.policy}: {p}"
            for r in swept.results.values()
            for p in checks.result_problems(r.to_dict())
        ]
        objectives = {tag: r.total_time_s for tag, r in swept.results.items()}
        best = min(objectives.values())
        if manifest.best is None or objectives.get(manifest.best.fingerprint) != best:
            found = manifest.best and manifest.best.objective_s
            problems.append(f"incumbent {found} is not the exhaustive minimum {best}")
        return problems

    def counters(self, out):
        stats = out[1].stats
        return {
            "search.evaluations": stats.evaluations,
            "search.pruned": stats.pruned_leaves,
            "search.eval_ratio": stats.evaluations / self.space.size(),
        }


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (PaperWarm, Lassen1024, SeedsJ2, SearchBB)
}


def verify(workload: Workload, out: Any, corrupt: bool = False) -> tuple[str, list[str]]:
    """``(digest, failures)`` of one rep, checked outside the timed region.

    Each failure is one cell breaking an invariant or one failed
    rep-level check. ``corrupt`` poisons the first result before the
    checks, to prove they bite.
    """
    outcomes = workload.outcomes(out)
    if corrupt:
        first = next(result for result, _ in outcomes if result is not None)
        first["epochs"][0]["time_s"] = float("nan")
    failures = workload.problems(out)
    for result, _ in outcomes:
        found = [] if result is None else checks.result_problems(result)
        if found:
            failures.append(f"{result['policy']}: {'; '.join(found)}")
    return workload.digest(out, outcomes), failures


def rss_mb(who: int) -> float:
    """Peak resident set size in MB (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(who).ru_maxrss / 1024


#: Input of the reference loop: fixed, and independent of the program.
REFERENCE_ARRAY = np.random.default_rng(0).random(100_000)


def reference_pass() -> float:
    """Seconds one pass of a fixed reference loop takes right now.

    The loop mixes what the workloads do — numpy sorts and scans, Python
    arithmetic, dict building and JSON encoding — but calls nothing of
    the program, so its time moves only with the speed the shared host
    gives this CPU at the moment.
    """
    start = time.perf_counter()
    for _ in range(8):
        np.sort(REFERENCE_ARRAY)
        np.cumsum(REFERENCE_ARRAY)
        sum(i * 0.5 for i in range(10_000))
        json.dumps({i: str(i) for i in range(3_000)})
    return time.perf_counter() - start


def reference_s(jobs: int = 1) -> float:
    """The host's speed for a workload with ``jobs`` busy processes.

    With one, a single :func:`reference_pass` where this process runs,
    which is where its reps run too. With more, pool workers run the
    reps on other CPUs than this process, and the host may slow its
    CPUs unevenly: one pass runs pinned to each of ``jobs`` CPUs in
    turn, and the mean is returned.
    """
    allowed = sorted(os.sched_getaffinity(0))
    if jobs == 1 or len(allowed) == 1:
        return reference_pass()
    passes = []
    try:
        for cpu in allowed[:jobs]:
            os.sched_setaffinity(0, {cpu})
            passes.append(reference_pass())
    finally:
        os.sched_setaffinity(0, allowed)
    return sum(passes) / len(passes)


def timed(workload: Workload, seconds: float, corrupt: bool) -> dict[str, Any]:
    """Reps back to back until ``seconds`` of measured job time.

    Ahead of each rep, the reference loop (``refs``, paired with
    ``reps``) gauges the host's speed. Each rep starts from a collected
    heap, so a garbage collection the previous rep left pending does
    not land in a random rep.
    """
    report: dict[str, Any] = {"reps": [], "refs": [], "digests": [], "failures": []}
    report["t_ready"] = time.monotonic()
    while not report["reps"] or sum(report["reps"]) < seconds:
        report["refs"].append(reference_s(workload.jobs))
        gc.collect()
        start = time.perf_counter()
        out = workload.job()
        report["reps"].append(time.perf_counter() - start)
        first = len(report["reps"]) == 1
        digest, failures = verify(workload, out, corrupt and first)
        if first:
            failures += workload.cross_check(out)
            if isinstance(workload, PaperFill):
                report["render"] = workload.render_digest(out)
        report["answered"] = workload.answered(out)
        report["digests"].append(digest)
        report["failures"] += failures
        workload.cleanup(out)
    if len(set(report["digests"])) > 1:
        report["failures"].append("digest differs across reps")
    report["peak_rss_mb"] = rss_mb(resource.RUSAGE_SELF)
    return report


def traced(workload: Workload, output: Path) -> dict[str, Any]:
    """One rep with spans; writes ``e2e-trace-<workload>.json``."""
    tracer = tracing.Tracer(workload.name)
    tracer.install()
    report: dict[str, Any] = {"t_ready": time.monotonic()}
    report["refs"] = [reference_s(workload.jobs) for _ in range(3)]
    try:
        gc.collect()
        start = time.perf_counter()
        out = workload.job(on_event=tracer.on_event)
        wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    counters = {**tracer.counters, **workload.counters(out)}
    counters["worker_peak_rss_mb"] = rss_mb(resource.RUSAGE_CHILDREN)
    spans = tracer.export()
    report["layers"] = tracing.layer_metrics(spans, counters, wall_s=wall, jobs=workload.jobs)
    digest, report["failures"] = verify(workload, out)
    report.update(reps=[wall], digests=[digest], answered=workload.answered(out))
    workload.cleanup(out)
    path = output / f"e2e-trace-{workload.name}.json"
    path.write_text(json.dumps(
        {"workload": workload.name, "wall_s": wall, "counters": counters, "spans": spans}
    ))
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--mode", required=True, choices=("probe", "fill", "timed", "traced"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--scratch", type=Path, required=True)
    parser.add_argument("--cache-dir", type=Path, default=None)
    parser.add_argument("--output", type=Path, default=None)
    parser.add_argument("--corrupt", action="store_true")
    args = parser.parse_args(argv)
    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"repro imported from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2

    kind = PaperFill if args.mode == "fill" else WORKLOADS[args.workload]
    workload = kind(args.seed, args.scratch, cache_dir=args.cache_dir)
    if args.mode == "probe":
        report: dict[str, Any] = {"t_ready": time.monotonic()}
        report["refs"] = [reference_s(workload.jobs) for _ in range(3)]
    elif args.mode == "traced":
        report = traced(workload, args.output)
    else:
        seconds = args.seconds if args.mode == "timed" else 0.0
        report = timed(workload, seconds, args.corrupt)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
