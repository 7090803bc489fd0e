"""The paper driver's helper thread: runner-free figures off the calling thread.

With an in-process runner and a second CPU, :func:`paper.run_figures`
builds the figures that declare no sweep cells (Table 1, Fig 3) on one
helper thread (``repro-figure_0``) while the calling thread builds the
runner-backed ones. This suite pins that every callable the end-to-end
tracer wraps still runs on the calling thread (the tracer keeps one
span stack), that an error keeps its type and the first in plan order
wins, that no helper outlives the call, and that one CPU or a process
pool builds the same text without starting a thread.
"""

import functools
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.errors import ConfigurationError
from repro.experiments import fig3, fig12, fig13, paper, table1
from repro.sweep import SweepRunner, executors

from ..sim.test_pipelined import load_tracing

HELPER = "repro-figure"
FIG12_SMALL = dict(gpu_counts=(32,), scale=0.05, num_epochs=2)


@pytest.fixture
def two_cpus(monkeypatch):
    """A second CPU for the driver; the engine's own helper stays off."""
    monkeypatch.setattr(executors, "_cpu_budget", lambda: 2)
    monkeypatch.setattr(executors, "_helper_pays", lambda config: False)


@pytest.fixture
def submitted(monkeypatch) -> list:
    """Every future the driver's helper hands out, in submit order."""
    futures: list = []

    class Recording(ThreadPoolExecutor):
        def submit(self, *args, **kwargs):
            futures.append(super().submit(*args, **kwargs))
            return futures[-1]

    monkeypatch.setattr(paper, "ThreadPoolExecutor", Recording)
    return futures


@pytest.fixture
def fig3_threads(monkeypatch) -> list:
    """The thread that ran each ``fig3.run`` call, in call order."""
    threads: list = []
    run = fig3.run

    def recording(**kwargs):
        threads.append(threading.current_thread())
        return run(**kwargs)

    monkeypatch.setattr(fig3, "run", recording)
    return threads


def _helpers() -> list[str]:
    return [t.name for t in threading.enumerate() if t.name.startswith(HELPER)]


def _until(condition, timeout_s: float = 30.0) -> None:
    """Poll ``condition`` until it holds; fail after ``timeout_s``."""
    deadline = time.monotonic() + timeout_s
    while not condition():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.001)


def _text(run: paper.PaperRun) -> str:
    """The rendered figures, without the timing-bearing sweep section."""
    return run.render().split("\n\n=== sweep ===")[0]


def _no_thread(*args, **kwargs):
    raise AssertionError("the driver started a helper thread")


def _spy(fn, span: str, calls: list):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        calls.append((span, threading.current_thread()))
        return fn(*args, **kwargs)

    return wrapper


def test_traced_callables_stay_on_the_calling_thread(
    monkeypatch, tmp_path, two_cpus, fig3_threads
):
    tracing = load_tracing(monkeypatch)
    calls: list = []
    for point in tracing.trace_points():
        # Resolved as Tracer.install resolves it: a trace point whose
        # name is gone from its owner fails here as it fails the tracer.
        owner = tracing._resolve(point.owner)
        monkeypatch.setattr(owner, point.attr, _spy(vars(owner)[point.attr], point.span, calls))

    for warm in (False, True):
        calls.clear()
        run = paper.run_figures(
            runner=SweepRunner(cache_dir=tmp_path),
            profile="quick",
            figures=["table1", "fig3", "fig8", "fig9"],
        )
        assert run.sweep_stats.misses == (0 if warm else run.sweep_stats.cells)
        spans = {span for span, _ in calls}
        assert {"experiments", "sweep.runner", "sweep.cache.get", "sim.perm"} <= spans
        assert ("sim.execute" in spans) is not warm
        off_main = [(span, t.name) for span, t in calls if t is not threading.main_thread()]
        assert off_main == []
        assert list(run.results) == ["table1", "fig3", "fig8", "fig9"]

    assert [t.name for t in fig3_threads] == [f"{HELPER}_0"] * 2
    assert not _helpers()


def test_runner_free_error_keeps_its_type(tmp_path, two_cpus, fig3_threads):
    with pytest.raises(TypeError, match="bogus"):
        paper.run_figures(
            runner=SweepRunner(cache_dir=tmp_path),
            figures=["fig3", "fig12"],
            overrides={"fig3": {"bogus": 1}, "fig12": FIG12_SMALL},
        )
    assert [t.name for t in fig3_threads] == [f"{HELPER}_0"]
    assert not _helpers()


@pytest.mark.parametrize(
    "order, error",
    [(["fig3", "fig12"], ConfigurationError), (["fig12", "fig3"], TypeError)],
)
def test_first_error_in_plan_order_wins(monkeypatch, tmp_path, two_cpus, order, error):
    # Fig 12 (an unknown kwarg: TypeError) fails only once Fig 3 has
    # started, and Fig 3 (num_workers=0: ConfigurationError) only once
    # Fig 12 has failed, so in either order both build and both fail.
    fig3_started, fig12_failed = threading.Event(), threading.Event()
    built: list[str] = []
    run3, run12 = fig3.run, fig12.run

    def fig3_run(**kwargs):
        built.append("fig3")
        fig3_started.set()
        assert fig12_failed.wait(timeout=30)
        return run3(**kwargs)

    def fig12_run(**kwargs):
        built.append("fig12")
        try:
            assert fig3_started.wait(timeout=30)
            return run12(**kwargs)
        finally:
            fig12_failed.set()

    monkeypatch.setattr(fig3, "run", fig3_run)
    monkeypatch.setattr(fig12, "run", fig12_run)
    with pytest.raises(error) as raised:
        paper.run_figures(
            runner=SweepRunner(cache_dir=tmp_path),
            figures=order,
            overrides={"fig3": {"num_workers": 0}, "fig12": {**FIG12_SMALL, "bogus": 1}},
        )
    assert type(raised.value) is error
    assert sorted(built) == ["fig12", "fig3"]
    assert not _helpers()


def test_no_figure_starts_after_a_calling_thread_error(
    monkeypatch, two_cpus, submitted, fig3_threads
):
    # Table 1 holds the helper until Fig 12's error has cancelled the
    # queued Fig 3, which comes after Fig 12 in plan order.
    run1 = table1.run

    def table1_run(**kwargs):
        _until(lambda: len(submitted) == 2 and submitted[1].cancelled())
        return run1(**kwargs)

    monkeypatch.setattr(table1, "run", table1_run)
    with pytest.raises(TypeError, match="bogus"):
        paper.run_figures(
            figures=["table1", "fig12", "fig3"],
            overrides={"fig12": {**FIG12_SMALL, "bogus": 1}},
        )
    assert fig3_threads == []
    assert not _helpers()


def test_calling_thread_stops_after_a_helper_error(monkeypatch, two_cpus, submitted):
    # Fig 12 finishes only once Fig 3 has failed on the helper, so the
    # calling thread sees that error before it would build Fig 13.
    run12 = fig12.run
    built: list[str] = []

    def fig12_run(**kwargs):
        _until(lambda: submitted and submitted[0].done())
        return run12(**kwargs)

    monkeypatch.setattr(fig12, "run", fig12_run)
    monkeypatch.setattr(fig13, "run", lambda **kwargs: built.append("fig13"))
    with pytest.raises(TypeError, match="bogus"):
        paper.run_figures(
            figures=["fig3", "fig12", "fig13"],
            overrides={"fig3": {"bogus": 1}, "fig12": FIG12_SMALL},
        )
    assert built == []
    assert not _helpers()


def test_one_cpu_builds_the_same_text_without_a_thread(monkeypatch, two_cpus, fig3_threads):
    figures, overrides = ["table1", "fig3", "fig12"], {"fig12": FIG12_SMALL}
    two = paper.run_figures(figures=figures, overrides=overrides)
    assert not _helpers()

    monkeypatch.setattr(executors, "_cpu_budget", lambda: 1)
    monkeypatch.setattr(paper, "ThreadPoolExecutor", _no_thread)
    one = paper.run_figures(figures=figures, overrides=overrides)

    assert [t.name for t in fig3_threads] == [f"{HELPER}_0", "MainThread"]
    assert _text(one) == _text(two)


def test_pool_runner_starts_no_helper(monkeypatch, tmp_path, two_cpus, fig3_threads):
    # A pool forks its workers, and forking with a live thread is unsafe.
    figures, overrides = ["fig3", "fig12"], {"fig12": FIG12_SMALL}
    cold = paper.run_figures(
        runner=SweepRunner(cache_dir=tmp_path), figures=figures, overrides=overrides
    )
    monkeypatch.setattr(paper, "ThreadPoolExecutor", _no_thread)
    warm = paper.run_figures(
        runner=SweepRunner(n_jobs=2, cache_dir=tmp_path), figures=figures, overrides=overrides
    )
    assert warm.sweep_stats.misses == 0
    assert [t.name for t in fig3_threads] == [f"{HELPER}_0", "MainThread"]
    assert _text(warm) == _text(cold)
