"""Spans around the public callables of each layer, and their arithmetic.

:class:`Tracer` patches the callables listed in :func:`trace_points`
for one traced rep and restores them afterwards. Every call opens a
span (name, start, end, parent id, workload, rep); spans stay in memory
until the rep ends. A generator (``Executor.execute``) is a span that
is *active* only while it runs between two yields, so the cache writes
its consumer does in between are not billed to it.

A layer's self time is its span's active time minus the active time of
its child spans. Execution is single-threaded, so at every instant
exactly one span is innermost and the self times of all spans add up
to the active time of the root span.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Any, Callable

#: Per-layer metric -> span name whose self time it sums.
SELF_TIME_METRICS = {
    "experiments.self_s": "experiments",
    "api.self_s": "api",
    "search.self_s": "search",
    "search.bound_s": "search.bound",
    "sweep.runner.self_s": "sweep.runner",
    "sweep.runner.key_s": "sweep.runner.key",
    "sweep.cache.get_s": "sweep.cache.get",
    "sweep.cache.put_s": "sweep.cache.put",
    "sweep.executors.self_s": "sweep.executors",
    "sim.prepare_s": "sim",
    "sim.plan_s": "sim.plan",
    "sim.execute_s": "sim.execute",
    "sim.perm_s": "sim.perm",
    "sim.noise_s": "sim.noise",
    "sim.fetch_s": "sim.fetch",
}

#: Per-layer metric -> (end-to-end metric it should move, workloads).
LAYER_MAP: dict[str, tuple[str, tuple[str, ...]]] = {
    "experiments.self_s": ("job_s", ("paper-warm",)),
    "api.self_s": ("job_s", ("seeds-j2", "lassen-1024")),
    "search.self_s": ("job_s", ("search-bb",)),
    "search.bound_s": ("job_s", ("search-bb",)),
    "search.evaluations": ("job_s", ("search-bb",)),
    "search.pruned": ("job_s", ("search-bb",)),
    "search.eval_ratio": ("job_s", ("search-bb",)),
    "sweep.runner.self_s": ("job_s", ("paper-warm",)),
    "sweep.runner.key_s": ("job_s", ("paper-warm",)),
    "sweep.cache.get_s": ("job_s", ("paper-warm",)),
    "sweep.cache.put_s": ("job_s", ("seeds-j2",)),
    "sweep.cache.hits": ("job_s", ("paper-warm",)),
    "sweep.cache.misses": ("job_s", ("seeds-j2",)),
    "sweep.cache.hit_ratio": ("job_s", ("paper-warm",)),
    "sweep.cache.bytes_read": ("job_s", ("paper-warm",)),
    "sweep.cache.bytes_written": ("job_s", ("seeds-j2",)),
    "sweep.executors.wall_s": ("cells_per_s", ("seeds-j2",)),
    "sweep.executors.self_s": ("cells_per_s", ("seeds-j2",)),
    "sweep.executors.worker_busy_s": ("cells_per_s", ("seeds-j2",)),
    "sweep.executors.busy_ratio": ("cells_per_s", ("seeds-j2",)),
    "sweep.executors.batches": ("cells_per_s", ("seeds-j2",)),
    "sweep.executors.worker_peak_rss_mb": ("peak_rss_mb", ("seeds-j2",)),
    "sim.cells": ("job_s", ("lassen-1024", "search-bb")),
    "sim.epochs": ("job_s", ("lassen-1024", "search-bb")),
    "sim.prepare_s": ("job_s", ("lassen-1024", "search-bb")),
    "sim.plan_s": ("job_s", ("lassen-1024", "search-bb")),
    "sim.execute_s": ("job_s", ("lassen-1024", "search-bb")),
    "sim.perm_s": ("job_s", ("lassen-1024", "search-bb")),
    "sim.perm_builds": ("job_s", ("lassen-1024", "search-bb")),
    "sim.noise_s": ("job_s", ("lassen-1024", "search-bb")),
    "sim.fetch_s": ("job_s", ("lassen-1024", "search-bb")),
    "trace.overhead_ratio": ("job_s", ("paper-warm", "lassen-1024", "seeds-j2", "search-bb")),
    "trace.root_coverage": ("job_s", ("paper-warm", "lassen-1024", "seeds-j2", "search-bb")),
}

Note = Callable[[tuple, Any, Any], dict[str, Any]]


@dataclass(frozen=True)
class Point:
    """One patched callable: ``module[:Class]``, attribute, span name.

    ``before(args)`` runs ahead of the call and ``note(args, result,
    before)`` after it; the dict ``note`` returns is stored on the
    span. ``generator`` marks callables that return generators.
    """

    owner: str
    attr: str
    span: str
    note: Note | None = None
    before: Callable[[tuple], Any] | None = None
    generator: bool = False


def _cells(args: tuple, result: Any, before: Any) -> dict[str, Any]:
    """Cells one engine entry point simulates: one, or one per policy."""
    return {"cells": len(args[1]) if isinstance(args[1], list) else 1}


def trace_points() -> list[Point]:
    """The public callables wrapped for a traced rep, outermost first."""
    engine = "repro.sim.engine"
    sim = f"{engine}:Simulator"
    executors = "repro.sweep.executors"
    perm_builds = dict(
        before=lambda args: args[0].perm_builds,
        note=lambda args, result, before: {"perm_builds": args[0].perm_builds - before},
    )
    return [
        Point("repro.experiments.paper", "run_figures", "experiments"),
        Point("repro.search.run", "run_search", "search"),
        Point("repro.search.evaluator:Evaluator", "lower_bound", "search.bound"),
        Point("repro.api.session:Session", "sweep", "api"),
        Point("repro.sweep.runner:SweepRunner", "run", "sweep.runner"),
        Point("repro.sweep.runner", "cell_key_from_dict", "sweep.runner.key"),
        Point("repro.sweep.cache:ResultCache", "get", "sweep.cache.get",
              note=lambda args, result, before: {"hit": result is not None}),
        Point("repro.sweep.cache:ResultCache", "put", "sweep.cache.put"),
        *(
            Point(f"{executors}:{cls}", "execute", "sweep.executors", generator=True)
            for cls in ("SerialExecutor", "ProcessExecutor", "BatchedExecutor")
        ),
        *(
            Point(sim, method, "sim", note=_cells)
            for method in ("run", "run_seed", "run_many_outcomes", "run_many_seed")
        ),
        Point(sim, "plan_epoch", "sim.plan"),
        Point(sim, "execute_epoch", "sim.execute"),
        Point("repro.sim.context:ScenarioContext", "epoch_matrix", "sim.perm", **perm_builds),
        Point("repro.sim.context:ScenarioContext", "hold_epoch", "sim.perm", **perm_builds),
        Point(engine, "apply_noise_matrix", "sim.noise"),
        Point(engine, "resolve_fetch", "sim.fetch"),
    ]


def _resolve(owner: str) -> Any:
    module, _, cls = owner.partition(":")
    target = importlib.import_module(module)
    return getattr(target, cls) if cls else target


class Tracer:
    """In-memory span recorder for one traced rep of one workload."""

    def __init__(
        self, workload: str, rep: int = 0, clock: Callable[[], float] = time.perf_counter
    ) -> None:
        self.workload = workload
        self.rep = rep
        self.clock = clock
        self.spans: list[dict[str, Any]] = []
        #: Counts gathered at the same boundaries, outside any span.
        self.counters: Counter[str] = Counter()
        self._stack: list[dict[str, Any]] = []
        self._undo: list[Callable[[], None]] = []

    # -- spans ---------------------------------------------------------

    def open(self, name: str) -> dict[str, Any]:
        """Start a span as a child of the innermost active one."""
        now = self.clock()
        span = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "start": now,
            "end": now,
            "active": 0.0,
            "workload": self.workload,
            "rep": self.rep,
            "_resumed": now,
        }
        self.spans.append(span)
        self._stack.append(span)
        return span

    def pause(self, span: dict[str, Any]) -> None:
        """Stop billing ``span``: it ends here unless resumed later."""
        now = self.clock()
        span["active"] += now - span.pop("_resumed")
        span["end"] = now
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span['name']!r} closed out of order")

    def resume(self, span: dict[str, Any]) -> None:
        """Bill ``span`` again (a generator running on after a yield)."""
        span["_resumed"] = self.clock()
        self._stack.append(span)

    # -- patching ------------------------------------------------------

    def install(self) -> None:
        """Wrap every trace point (see :func:`trace_points`)."""
        for point in trace_points():
            owner = _resolve(point.owner)
            original = vars(owner)[point.attr]
            wrap = self._wrap_generator if point.generator else self._wrap_call
            setattr(owner, point.attr, wrap(original, point))
            self._undo.append(functools.partial(setattr, owner, point.attr, original))
        batched = _resolve("repro.sweep.executors:BatchedExecutor")
        group = vars(batched)["group"]
        self._undo.append(functools.partial(setattr, batched, "group", group))
        batched.group = staticmethod(
            self._counting(group.__func__, "batches", lambda args, result: len(result))
        )
        backend = _resolve("repro.sweep.backends:LocalDirBackend")
        for attr, counter, measure in (
            ("read", "bytes_read", lambda args, result: len(result or "")),
            ("write", "bytes_written", lambda args, result: len(args[2])),
        ):
            original = vars(backend)[attr]
            self._undo.append(functools.partial(setattr, backend, attr, original))
            setattr(backend, attr, self._counting(original, counter, measure))
        self._cell_finished = _resolve("repro.sweep.events:CellFinished")

    def uninstall(self) -> None:
        """Restore every patched callable."""
        while self._undo:
            self._undo.pop()()

    def on_event(self, event: Any) -> None:
        """Progress-bus subscriber summing worker-measured cell times."""
        if isinstance(event, self._cell_finished):
            self.counters["worker_busy_s"] += event.elapsed_s

    def _wrap_call(self, fn: Callable, point: Point) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            before = point.before(args) if point.before else None
            span = self.open(point.span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.pause(span)
            if point.note:
                span.update(point.note(args, result, before))
            return result

        return wrapper

    def _wrap_generator(self, fn: Callable, point: Point) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            inner = fn(*args, **kwargs)
            span = None
            try:
                while True:
                    if span is None:
                        span = self.open(point.span)
                    else:
                        self.resume(span)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self.pause(span)
                    yield item
            finally:
                inner.close()

        return wrapper

    def _counting(self, fn: Callable, counter: str, measure: Callable[[tuple, Any], float]):
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            result = fn(*args, **kwargs)
            self.counters[counter] += measure(args, result)
            return result

        return wrapper

    # -- export --------------------------------------------------------

    def export(self) -> list[dict[str, Any]]:
        """The recorded spans, as plain JSON-ready dicts."""
        return [{k: v for k, v in span.items() if not k.startswith("_")} for span in self.spans]


def self_times(spans: list[dict[str, Any]]) -> dict[int, float]:
    """Span id -> active time minus the active time of its children."""
    own = {span["id"]: span["active"] for span in spans}
    for span in spans:
        if span["parent"] is not None:
            own[span["parent"]] -= span["active"]
    return own


def root_coverage(spans: list[dict[str, Any]], wall_s: float) -> float:
    """Share of the job's wall time that the root spans cover."""
    covered = sum(s["end"] - s["start"] for s in spans if s["parent"] is None)
    return covered / wall_s if wall_s > 0 else 0.0


def layer_metrics(
    spans: list[dict[str, Any]],
    counters: dict[str, float],
    *,
    wall_s: float,
    jobs: int,
) -> dict[str, float]:
    """Every span-derived per-layer metric of one traced rep.

    ``counters`` carries the boundary counts the tracer gathered
    (``worker_busy_s``, ``batches``, ``bytes_read``, ``bytes_written``)
    plus the search's own counters and ``worker_peak_rss_mb``.
    """
    own = self_times(spans)
    by_name: dict[str, float] = defaultdict(float)
    for span in spans:
        by_name[span["name"]] += own[span["id"]]
    metrics = {metric: by_name[name] for metric, name in SELF_TIME_METRICS.items()}

    gets = [s for s in spans if s["name"] == "sweep.cache.get"]
    hits = sum(1 for s in gets if s["hit"])
    executors = [s for s in spans if s["name"] == "sweep.executors"]
    executor_wall = sum(s["end"] - s["start"] for s in executors)
    busy = counters.get("worker_busy_s", 0.0)
    metrics.update({
        "sweep.cache.hits": hits,
        "sweep.cache.misses": len(gets) - hits,
        "sweep.cache.hit_ratio": hits / len(gets) if gets else 0.0,
        "sweep.cache.bytes_read": counters.get("bytes_read", 0),
        "sweep.cache.bytes_written": counters.get("bytes_written", 0),
        "sweep.executors.wall_s": executor_wall,
        "sweep.executors.worker_busy_s": busy,
        "sweep.executors.busy_ratio": busy / (jobs * executor_wall) if executor_wall else 0.0,
        "sweep.executors.batches": counters.get("batches", 0),
        "sweep.executors.worker_peak_rss_mb": counters.get("worker_peak_rss_mb", 0.0),
        "sim.cells": sum(s["cells"] for s in spans if s["name"] == "sim"),
        "sim.epochs": sum(1 for s in spans if s["name"] == "sim.execute"),
        "sim.perm_builds": sum(s["perm_builds"] for s in spans if s["name"] == "sim.perm"),
        "search.evaluations": counters.get("search.evaluations", 0),
        "search.pruned": counters.get("search.pruned", 0),
        "search.eval_ratio": counters.get("search.eval_ratio", 0.0),
        "trace.root_coverage": root_coverage(spans, wall_s),
    })
    return metrics
