"""Two-thread epochs: the band loop stages, one helper thread finishes.

On a simulator built with ``helper=True``,
:meth:`Simulator.execute_epoch` finishes each (band, entry) item
(:meth:`Simulator._finish_band`) on one helper thread while the calling
thread stages the next (:meth:`Simulator._stage_band`) — when the
epoch's lineup has at least two entries. This suite pins that the
pipelined schedule is bitwise the serial one and engages exactly then;
that it keeps the serial error contract (the lowest failing worker's
``PolicyError``, an unexpected error's own type, no thread left
running); that every pipelined result conserves its epoch's reads and
bytes; and that the calls the end-to-end tracer wraps stay one properly
nested stack across both threads.
"""

import functools
import importlib
import importlib.util
import math
import sys
import threading
from pathlib import Path

import pytest

from repro.api import fig8_lineup, make_policy
from repro.errors import PolicyError
from repro.sim import NoiseConfig, Simulator, kernels
from repro.sim import engine as engine_mod

from . import test_fetch_table
from .test_band_major import MEMO_LINEUP, N, _canonical, _config, _solo

ROOT = Path(__file__).resolve().parents[2]

LINEUPS = {
    "fig8": fig8_lineup,
    "memo": lambda: [make_policy(spec) for spec in MEMO_LINEUP],
}


@pytest.fixture
def finishers(monkeypatch) -> list:
    """The thread that ran each ``_finish_band`` call, in call order."""
    threads: list = []
    finish = engine_mod.Simulator._finish_band

    def recording(sim, run, staged):
        threads.append(threading.current_thread())
        return finish(sim, run, staged)

    monkeypatch.setattr(engine_mod.Simulator, "_finish_band", recording)
    return threads


def _assert_conserved(config, policies, outcomes) -> None:
    """Per epoch, every non-ideal result counts each of the epoch's
    ``N * L`` reads once and fetches exactly its stream's bytes.

    The streams come from a fresh serial simulator's plans (the
    rewritten ones included), so an item the band loop dropped — its
    rows' counts and bytes never written — fails here.
    """
    reference = Simulator(config)
    reads = N * config.iterations_per_epoch * config.batch_size
    for policy, outcome in zip(policies, outcomes):
        if isinstance(outcome, PolicyError):
            continue
        prep = policy.prepare(reference.ctx)
        if prep.ideal:
            continue
        for epoch, result in enumerate(outcome.epochs):
            assert sum(result.fetch_counts) == reads, (policy.name, epoch)
            plan = reference.plan_epoch(prep, epoch)
            stream_mb = float(reference.ctx.sizes_mb[plan.ids].sum())
            assert math.isclose(sum(result.fetch_bytes), stream_mb, rel_tol=1e-12), (
                policy.name,
                epoch,
            )


@pytest.mark.parametrize("noisy", [True, False], ids=["noise", "no-noise"])
@pytest.mark.parametrize("tile_rows", [None, 1, 3])
@pytest.mark.parametrize("lineup", sorted(LINEUPS))
def test_pipelined_equals_serial(finishers, lineup, tile_rows, noisy):
    config = _config(noise=None if noisy else NoiseConfig.disabled())
    serial = Simulator(config, tile_rows=tile_rows).run_many_outcomes(LINEUPS[lineup]())
    assert set(finishers) == {threading.main_thread()}
    finishers.clear()
    policies = LINEUPS[lineup]()
    pipelined = Simulator(config, tile_rows=tile_rows, helper=True).run_many_outcomes(policies)
    assert [_canonical(o) for o in pipelined] == [_canonical(o) for o in serial]
    # Every item was finished on the helper, one band per epoch or many.
    assert finishers and threading.main_thread() not in finishers
    _assert_conserved(config, policies, pipelined)


@pytest.mark.parametrize(
    ("helper", "specs", "tile_rows", "engaged"),
    [
        (False, ("naive", "nopfs", "perfect"), 1, False),
        (True, ("nopfs",), 1, False),
        (True, ("naive", "nopfs", "perfect"), None, True),
        (True, ("naive", "nopfs", "perfect"), 1, True),
        (True, ("naive", "nopfs", "perfect"), 3, True),
    ],
)
def test_helper_engages_for_multi_entry_epochs(finishers, helper, specs, tile_rows, engaged):
    """``helper=True`` and >= 2 entries, over one band or several."""
    config = _config()
    Simulator(config, tile_rows=tile_rows, helper=helper).run_many_outcomes(
        [make_policy(spec) for spec in specs]
    )
    if engaged:
        # One one-worker helper per epoch, started and joined inside it.
        assert {thread.name for thread in finishers} == {"repro-band_0"}
        assert len(set(finishers)) == config.num_epochs
    else:
        assert set(finishers) == {threading.main_thread()}


@pytest.mark.parametrize("tile_rows", [None, 1, 3])
def test_pipelined_failing_entry_keeps_its_solo_error(finishers, tile_rows):
    """Bands stage in worker order, so the lowest failing worker is named."""
    config = test_fetch_table._config()
    placed = test_fetch_table._Placed
    policies = [make_policy("naive"), placed(uncovered_from=2), make_policy("nopfs")]
    sim = Simulator(config, tile_rows=tile_rows, helper=True)
    outcomes = sim.run_many_outcomes(policies)
    assert finishers and threading.main_thread() not in finishers
    assert isinstance(outcomes[1], PolicyError)
    with pytest.raises(PolicyError) as solo:
        Simulator(config, tile_rows=tile_rows).run(placed(uncovered_from=2))
    assert str(outcomes[1]) == str(solo.value)
    assert "(epoch 1, worker 2)" in str(outcomes[1])
    for index in (0, 2):
        assert _canonical(outcomes[index]) == _solo(config, policies[index], tile_rows)


class _Injected(RuntimeError):
    """An unexpected error raised inside one half of the band pricing."""


def _raise_on_call(fn, nth, on_helper):
    """``fn``, raising :class:`_Injected` on its ``nth`` call made on the
    helper thread (``on_helper``) or on the main thread."""
    calls = []

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if (threading.current_thread() is not threading.main_thread()) == on_helper:
            calls.append(1)
            if len(calls) == nth:
                raise _Injected(f"call {nth}")
        return fn(*args, **kwargs)

    return wrapper


@pytest.mark.parametrize("half", ["finishing", "staging"])
def test_unexpected_error_keeps_its_type_and_joins_the_helper(monkeypatch, half):
    config = _config()
    baseline = threading.active_count()
    if half == "finishing":
        batch_totals = _raise_on_call(kernels.batch_totals, 5, on_helper=True)
        monkeypatch.setattr(kernels, "batch_totals", batch_totals)
    else:
        tile = _raise_on_call(engine_mod.EpochPlan.tile, 5, on_helper=False)
        monkeypatch.setattr(engine_mod.EpochPlan, "tile", tile)
    sim = Simulator(config, tile_rows=1, helper=True)
    with pytest.raises(_Injected):
        sim.run_many_outcomes(LINEUPS["memo"]())
    assert threading.active_count() == baseline
    assert not [t for t in threading.enumerate() if t.name.startswith("repro-band")]
    monkeypatch.undo()
    # Nothing of the failed epoch lingers: the same simulator prices the
    # lineup bitwise as a fresh serial one does.
    again = sim.run_many_outcomes(LINEUPS["memo"]())
    serial = Simulator(config, tile_rows=1).run_many_outcomes(LINEUPS["memo"]())
    assert [_canonical(o) for o in again] == [_canonical(o) for o in serial]


def test_rapid_lock_hand_offs_keep_results():
    """The two threads trade the interpreter lock as often as it lets
    them: an update one thread loses or tears for the other breaks the
    bitwise equality or the conservation."""
    config = _config()
    serial = Simulator(config, tile_rows=1).run_many_outcomes(LINEUPS["memo"]())
    policies = LINEUPS["memo"]()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pipelined = Simulator(config, tile_rows=1, helper=True).run_many_outcomes(policies)
    finally:
        sys.setswitchinterval(interval)
    assert [_canonical(o) for o in pipelined] == [_canonical(o) for o in serial]
    _assert_conserved(config, policies, pipelined)


def test_conservation_catches_a_dropped_item(monkeypatch):
    """The conservation check has teeth: skipping one finish fails it."""
    finish = engine_mod.Simulator._finish_band
    calls = []

    def dropping(sim, run, staged):
        calls.append(1)
        if len(calls) != 4:
            finish(sim, run, staged)

    monkeypatch.setattr(engine_mod.Simulator, "_finish_band", dropping)
    config = _config()
    policies = LINEUPS["memo"]()
    outcomes = Simulator(config, tile_rows=1, helper=True).run_many_outcomes(policies)
    with pytest.raises(AssertionError):
        _assert_conserved(config, policies, outcomes)


def test_helper_is_off_by_default_and_inherited():
    config = _config()
    assert Simulator(config).helper is False
    sim = Simulator(config, tile_rows=1, helper=True)
    sibling = sim._reseeded(config.seed + 1)
    assert sibling is not sim and sibling.helper is True


# -- the end-to-end tracer's invariant ------------------------------------


def load_tracing(monkeypatch):
    """``e2ebench/tracing.py``, loaded by path."""
    spec = importlib.util.spec_from_file_location(
        "e2ebench_tracing", ROOT / "e2ebench" / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    # Registered while it loads: its dataclasses resolve their module.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def _engine_trace_points(monkeypatch) -> list:
    """The engine entries of ``e2ebench/tracing.py::trace_points()``."""
    points = load_tracing(monkeypatch).trace_points()
    return [point for point in points if point.owner.startswith("repro.sim")]


class SpanStack:
    """One call stack shared by every thread, as the tracer keeps it.

    A call may open while another thread's call is innermost only if it
    is the helper's ``apply_noise_matrix`` directly inside the main
    thread's ``execute_epoch``; a call must close while it is innermost.
    """

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.stack: list = []
        self.violations: list = []
        self.helper_calls = 0

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = (name, threading.current_thread())
            self.open(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(frame)

        return wrapper

    def open(self, frame) -> None:
        with self.lock:
            if self.stack and self.stack[-1][1] is not frame[1]:
                if frame[0] == "apply_noise_matrix" and self.stack[-1] == (
                    "execute_epoch",
                    threading.main_thread(),
                ):
                    self.helper_calls += 1
                else:
                    self.violations.append(("open", frame, self.stack[-1]))
            self.stack.append(frame)

    def close(self, frame) -> None:
        with self.lock:
            if self.stack[-1] is not frame:
                self.violations.append(("close", frame, self.stack[-1]))
            del self.stack[max(i for i, open_ in enumerate(self.stack) if open_ is frame)]


def test_traced_calls_stay_one_nested_stack(monkeypatch):
    points = _engine_trace_points(monkeypatch)
    wrapped = {point.attr for point in points}
    assert {
        "plan_epoch",
        "execute_epoch",
        "epoch_matrix",
        "hold_epoch",
        "apply_noise_matrix",
        "resolve_fetch",
    } <= wrapped
    spans = SpanStack()
    for point in points:
        module, _, cls = point.owner.partition(":")
        owner = importlib.import_module(module)
        owner = getattr(owner, cls) if cls else owner
        monkeypatch.setattr(owner, point.attr, spans.wrap(point.attr, vars(owner)[point.attr]))
    config = _config()
    policies = LINEUPS["memo"]()
    outcomes = Simulator(config, tile_rows=1, helper=True).run_many_outcomes(policies)
    assert spans.violations == []
    assert spans.stack == []
    # The helper drew the noise, inside the main thread's execute_epoch.
    assert spans.helper_calls > 0
    monkeypatch.undo()
    for policy, outcome in zip(LINEUPS["memo"](), outcomes):
        assert _canonical(outcome) == _solo(config, policy, 1)
