"""One context per search: where the bound and the evaluation share it.

On a serial session the evaluator's context memoizes each candidate's
prepared policy, the bound fills the memo and an evaluation of that
scenario simulates on that context (``SerialExecutor.lend``). These
tests pin where that sharing happens (serial sessions), where it does
not (pool sessions, evaluations of another scenario), how often
policies are prepared, and the memo's lifetime: at most one evaluator
context alive, only candidates still to be evaluated memoized, and
nothing left once ``run_search`` returns — freed by reference
counting, with the cyclic collector switched off.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.api import Scenario, Session
from repro.api.presets import FIG8_POLICIES, make_policy
from repro.search import Evaluator, KnobDomain, SearchSpace, run_search
from repro.search import evaluator as evaluator_module
from repro.sim import PreparedPolicy, ScenarioContext
from repro.sweep import InMemoryBackend, SerialExecutor

from .test_frontier import RAM0_SYSTEM

#: The e2e search-bb workload's space at seed 1: one scenario, the
#: nine Fig 8 policies, four of them pruned by their bounds.
SEARCH_BB = SearchSpace(
    base=Scenario(
        dataset="imagenet1k",
        system="piz_daint:256",
        policy="nopfs",
        batch_size=32,
        num_epochs=3,
        scale=0.1,
        seed=1,
    )
)


def knob_space(base: Scenario) -> SearchSpace:
    """The Fig 8 lineup x ``batch_size`` 8/16/32: three contexts."""
    return SearchSpace(base=base, knobs=(KnobDomain("batch_size", (8, 16, 32)),))


@pytest.fixture
def prepares(monkeypatch) -> list[str]:
    """Names of the policies prepared in this process, one per prepare.

    Wraps ``prepare`` on every Fig 8 policy class; a prepare that calls
    its parent class's counts once.
    """
    calls: list[str] = []
    depth = [0]
    for cls in {type(make_policy(spec)) for spec in FIG8_POLICIES}:

        def counted(self, ctx, _prepare=cls.prepare):
            if not depth[0]:
                calls.append(self.name)
            depth[0] += 1
            try:
                return _prepare(self, ctx)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(cls, "prepare", counted)
    return calls


class Contexts:
    """Weak references to every evaluator context and its prepared policies.

    ``peak`` is the most evaluator contexts seen alive at once: checked
    when each is built, and by :meth:`watch` around evaluator calls.
    """

    def __init__(self, monkeypatch) -> None:
        self.contexts: list[weakref.ref] = []
        self.preps: list[weakref.ref] = []
        self.peak = 0
        log = self

        class Recorded(ScenarioContext):
            def __init__(self, config) -> None:
                super().__init__(config)
                log.contexts.append(weakref.ref(self))
                log.check()

            def prepare(self, policy):
                outcome = super().prepare(policy)
                if isinstance(outcome, PreparedPolicy):
                    log.preps.append(weakref.ref(outcome))
                return outcome

        monkeypatch.setattr(evaluator_module, "ScenarioContext", Recorded)

    def alive(self) -> int:
        return sum(ref() is not None for ref in self.contexts)

    def check(self) -> None:
        self.peak = max(self.peak, self.alive())

    def watch(self, monkeypatch, *methods: str) -> None:
        """Check the live contexts before and after each call of ``methods``."""
        for name in methods:
            method = getattr(Evaluator, name)

            def watched(evaluator, *args, _method=method):
                self.check()
                try:
                    return _method(evaluator, *args)
                finally:
                    self.check()

            monkeypatch.setattr(Evaluator, name, watched)

    def leftovers(self) -> list:
        return [ref() for ref in (*self.contexts, *self.preps) if ref() is not None]


class TestLifetime:
    @pytest.mark.parametrize("driver", ["bb", "random"])
    @pytest.mark.parametrize("system", ["piz_daint:4", RAM0_SYSTEM], ids=["ram", "ram0"])
    def test_run_search_leaves_no_context_or_prepared_policy(
        self, monkeypatch, smoke_base, driver, system
    ):
        """The lineup includes stream rewriters and, without RAM,
        memoized errors."""
        log = Contexts(monkeypatch)
        gc.disable()
        try:
            manifest = run_search(
                SearchSpace(base=Scenario(**{**smoke_base.to_dict(), "system": system})),
                driver=driver,
                session=Session(),
            )
            leftovers = log.leftovers()
        finally:
            gc.enable()
        assert manifest.stats.evaluations > 0
        if driver == "bb":
            assert log.contexts and log.preps
        else:
            # Nothing to bound: evaluations never build a context.
            assert log.contexts == []
        assert leftovers == []

    def test_knob_search_keeps_at_most_one_context(self, monkeypatch, smoke_base):
        """Bounds run context-major and an evaluation of another scenario
        drops the current context; at no bound and no evaluation are two
        evaluator contexts alive."""
        log = Contexts(monkeypatch)
        log.watch(monkeypatch, "lower_bound", "evaluate_many")
        gc.disable()
        try:
            manifest = run_search(knob_space(smoke_base), driver="bb", session=Session())
            leftovers = log.leftovers()
        finally:
            gc.enable()
        assert manifest.stats.evaluations > 3
        assert len(log.contexts) >= 3
        assert log.peak == 1
        assert leftovers == []

    def test_dropped_evaluator_leaves_no_context(self, monkeypatch, smoke_space):
        """An evaluator used directly, without ``release_context``, frees
        its context and lineup when it is dropped."""
        log = Contexts(monkeypatch)
        gc.disable()
        try:
            evaluator = Evaluator(Session())
            candidates = list(smoke_space.candidates())
            evaluator.lower_bounds(candidates)
            evaluator.evaluate_many(candidates)
            del evaluator
            leftovers = log.leftovers()
        finally:
            gc.enable()
        assert log.contexts and log.preps
        assert leftovers == []

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_only_bounds_build_contexts(self, monkeypatch, smoke_base, warm):
        """An evaluation lends the current context or none: a knob search
        builds one context per bounded scenario, cold or answered from
        the cache, and evaluations alone build none."""
        space = knob_space(smoke_base)
        session = Session(cache=InMemoryBackend())
        if warm:
            run_search(space, driver="bb", session=session)
        log = Contexts(monkeypatch)
        manifest = run_search(space, driver="bb", session=session)
        assert manifest.stats.evaluations > 3
        assert len(log.contexts) == 3
        Evaluator(session).evaluate_many(list(space.candidates()))
        assert len(log.contexts) == 3

    def test_memo_holds_only_leaves_still_to_evaluate(self, monkeypatch):
        """An evaluation drops its candidates' prepared policies and a new
        incumbent drops those of the leaves it prunes: search-bb's batch
        of four runs beside no other memoized policy."""
        calls = []
        evaluate_many = Evaluator.evaluate_many

        def watched(evaluator, scenarios):
            _, ctx = evaluator._context
            fingerprints = {s.fingerprint() for s in scenarios}
            calls.append((len(ctx.prepared), len(fingerprints)))
            objectives = evaluate_many(evaluator, scenarios)
            assert not fingerprints & evaluator._policies.keys()
            assert len(ctx.prepared) == len(evaluator._policies)
            return objectives

        monkeypatch.setattr(Evaluator, "evaluate_many", watched)
        manifest = run_search(SEARCH_BB, driver="bb", session=Session())
        assert manifest.stats.pruned_leaves == 4
        assert calls == [(9, 1), (4, 4)]

    def test_discarded_candidates_evaluate_alike(self, smoke_space):
        """Dropping a prepared policy is always safe: a discarded
        candidate evaluated after all is prepared again, bitwise."""
        candidates = list(smoke_space.candidates())
        evaluator = Evaluator(Session())
        evaluator.lower_bounds(candidates)
        evaluator.discard(candidates[::2])
        _, ctx = evaluator._context
        assert len(ctx.prepared) == len(candidates) // 2
        assert evaluator.evaluate_many(candidates) == Evaluator(Session()).evaluate_many(
            candidates
        )
        assert ctx.prepared == {}

    def test_bounds_switch_contexts_once_per_scenario(self, monkeypatch, smoke_base):
        """27 leaves over three scenarios, listed policy-major: bounded
        context-major, they build three contexts, not one per leaf, and
        come back in input order."""
        candidates = list(knob_space(smoke_base).candidates())
        one_by_one = [Evaluator(Session()).lower_bound(c) for c in candidates]
        log = Contexts(monkeypatch)
        assert Evaluator(Session()).lower_bounds(candidates) == one_by_one
        assert len(log.contexts) == 3


class TestWhereSharingHappens:
    def test_serial_search_prepares_each_candidate_once(self, prepares):
        """The bound prepares all nine policies; the five evaluations
        simulate on those. One prepare per evaluation came on top when
        the evaluation built its own context: 14."""
        manifest = run_search(SEARCH_BB, driver="bb", session=Session())
        assert manifest.stats.evaluations == 5
        assert sorted(prepares) == sorted(make_policy(s).name for s in FIG8_POLICIES)

    def test_pool_session_shares_nothing(self, prepares):
        """A pool session's workers cannot reach this process's context:
        the bounds prepare all nine here, the first leaf (priced alone)
        prepares again in-process, the batch of four in the workers.
        The manifest is the serial search's, byte for byte."""
        serial = run_search(SEARCH_BB, driver="bb", session=Session())
        del prepares[:]
        pooled = run_search(SEARCH_BB, driver="bb", session=Session(jobs=2))
        assert len(prepares) == SEARCH_BB.size() + 1
        assert pooled.to_json(sort_keys=True) == serial.to_json(sort_keys=True)

    @pytest.mark.parametrize("driver", ["bb", "random"])
    def test_knob_search_prepares_no_more_than_a_context_per_sweep(
        self, prepares, smoke_base, driver
    ):
        """Without sharing, every bounded leaf and every swept cell
        prepared once; sharing can only remove prepares."""
        space = knob_space(smoke_base)
        session = Session()
        manifest = run_search(space, driver=driver, session=session)
        bounded = space.size() if driver == "bb" else 0
        assert manifest.stats.evaluations > 0
        assert len(prepares) <= bounded + session.stats.cells

    def test_memoized_errors_record_the_same_text(self, smoke_base):
        """Bounds memoize the unsupported candidates' errors; the
        evaluation records their text as a fresh prepare would."""
        space = SearchSpace(base=Scenario(**{**smoke_base.to_dict(), "system": RAM0_SYSTEM}))
        candidates = list(space.candidates())
        evaluator = Evaluator(Session(cache=InMemoryBackend()))
        evaluator.lower_bounds(candidates)
        _, ctx = evaluator._context
        errors = [prep for prep in ctx.prepared.values() if not isinstance(prep, PreparedPolicy)]
        objectives = evaluator.evaluate_many(candidates)
        # The lent cells keyed the cache as the scenarios' own cells do.
        shared = evaluator.session.sweep(candidates)
        assert shared.stats.hits == len(candidates)
        fresh = Session().sweep(candidates)
        assert errors and shared.errors and shared.errors == fresh.errors
        assert sum(objective is None for objective in objectives) == len(errors)

    def test_lent_context_serves_only_its_own_scenario(self, smoke_base):
        """A sweep under ``lend`` simulates equal-config batches on the
        lent context and builds its own for any other, bitwise alike."""
        executor = SerialExecutor()
        session = Session(executor=executor)
        lent = Scenario(**{**smoke_base.to_dict(), "policy": "nopfs"})
        other = Scenario(**{**smoke_base.to_dict(), "policy": "naive", "batch_size": 8})
        ctx = ScenarioContext(lent.build_config())
        ctx.prepared = {}
        cells = [lent.cell(tag="lent"), other.cell(tag="other")]
        with executor.lend(ctx):
            shared = session.sweep(cells)
        assert executor._lent is None
        assert [type(p).__name__ for p in ctx.prepared] == ["NoPFSPolicy"]
        fresh = Session().sweep([lent, other], tags=["lent", "other"])
        assert {t: r.to_dict() for t, r in shared.results.items()} == {
            t: r.to_dict() for t, r in fresh.results.items()
        }
