"""The search drivers: correctness, pruning, budgets, timeouts."""

import math

import pytest

from repro.api import UnknownNameError
from repro.errors import ConfigurationError
from repro.search import (
    SEARCHERS,
    BranchBoundSearcher,
    CandidateOpened,
    CandidatePruned,
    Evaluator,
    IncumbentImproved,
    RandomSearcher,
    Searcher,
    SearchFinished,
    SearchStarted,
    run_search,
)


class FakeClock:
    """A deterministic clock advancing a fixed step per reading."""

    def __init__(self, step: float = 0.0) -> None:
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        value = self.now
        self.now += self.step
        return value


def exhaustive_best(space, session):
    """(objective, fingerprint) of the true optimum, by full sweep."""
    candidates = list(space.candidates())
    objectives = Evaluator(session).evaluate_many(candidates)
    return min(
        (objective, candidate.fingerprint())
        for objective, candidate in zip(objectives, candidates)
        if objective is not None
    )


class TestRegistry:
    def test_drivers_registered(self):
        assert SEARCHERS.names() == ["bb", "random"]
        assert "branch_and_bound" in SEARCHERS.known()

    def test_variant_spec_builds_relaxed_bb(self):
        searcher = SEARCHERS.create("bb:1.5")
        assert isinstance(searcher, BranchBoundSearcher)
        assert searcher.relaxation == 1.5

    def test_unknown_driver_suggests_near_miss(self):
        with pytest.raises(UnknownNameError, match="did you mean"):
            SEARCHERS.create("branch_nd_bound")

    def test_drivers_satisfy_protocol(self):
        for cls in (BranchBoundSearcher, RandomSearcher):
            assert isinstance(cls(), Searcher)


class TestBranchBound:
    def test_matches_exhaustive_with_fewer_evaluations(
        self, smoke_space, mem_session
    ):
        """The PR's acceptance criterion: same incumbent, fewer cells."""
        best_objective, best_fp = exhaustive_best(smoke_space, mem_session)
        manifest = run_search(smoke_space, driver="bb")
        assert manifest.best is not None
        assert manifest.best.objective_s == best_objective
        assert manifest.best.fingerprint == best_fp
        assert manifest.stats.evaluations < smoke_space.size()
        assert manifest.stats.pruned_leaves > 0
        assert manifest.stats.status == "solved"
        assert manifest.stats.backtracks > 0

    def test_relaxation_prunes_at_least_as_much(self, smoke_space):
        exact = run_search(smoke_space, driver="bb")
        relaxed = run_search(smoke_space, driver="bb:2.0")
        assert relaxed.stats.evaluations <= exact.stats.evaluations
        assert relaxed.params == {"relaxation": 2.0}
        # The relaxed incumbent is within the factor of the optimum.
        assert relaxed.best.objective_s <= exact.best.objective_s * 2.0

    def test_relaxation_below_one_rejected(self):
        with pytest.raises(ConfigurationError, match="relaxation"):
            BranchBoundSearcher(relaxation=0.5)

    @pytest.mark.parametrize("spec", ["bb:nan", "bb:inf", "bb:abc", "bb:0.5"])
    def test_relaxation_must_be_finite_number_at_least_one(self, spec):
        """NaN never prunes, inf prunes everything, text is not a number."""
        with pytest.raises(ConfigurationError, match="finite number >= 1.0"):
            SEARCHERS.create(spec)

    def test_budget_stops_early(self, smoke_space):
        manifest = run_search(smoke_space, driver="bb", budget=2)
        assert manifest.stats.evaluations == 2
        assert manifest.stats.status == "budget_exhausted"

    def test_timeout_via_injected_clock(self, smoke_space, mem_session):
        # Each clock reading advances 1 s; the 2.5 s limit trips after a
        # few readings, well before the 9-candidate space is explored.
        manifest = run_search(
            smoke_space,
            driver="bb",
            session=mem_session,
            timeout_s=2.5,
            clock=FakeClock(step=1.0),
        )
        assert manifest.stats.status == "timed_out"
        assert manifest.stats.evaluations < smoke_space.size()

    def test_event_stream(self, smoke_space, mem_session):
        events = []
        run_search(
            smoke_space, driver="bb", session=mem_session, on_event=events.append
        )
        kinds = [type(e) for e in events]
        assert kinds[0] is SearchStarted
        assert kinds[-1] is SearchFinished
        assert CandidateOpened in kinds
        assert CandidatePruned in kinds
        assert IncumbentImproved in kinds
        started = events[0]
        assert started.driver == "bb"
        assert started.space_size == smoke_space.size()
        pruned = [e for e in events if isinstance(e, CandidatePruned)]
        # every prune names a bound that could not beat the incumbent
        for event in pruned:
            assert event.bound_s >= event.incumbent_s


class TestRandom:
    def test_budget_and_determinism(self, smoke_space, mem_session):
        a = run_search(
            smoke_space, driver="random", session=mem_session, budget=4, seed=3
        )
        b = run_search(
            smoke_space, driver="random", session=mem_session, budget=4, seed=3
        )
        assert a.stats.evaluations == 4
        assert a.stats.status == "budget_exhausted"
        assert [e.fingerprint for e in a.evaluations] == [
            e.fingerprint for e in b.evaluations
        ]

    def test_seed_changes_order(self, smoke_space, mem_session):
        orders = {
            tuple(
                e.fingerprint
                for e in run_search(
                    smoke_space, driver="random", session=mem_session, seed=seed
                ).evaluations
            )
            for seed in range(4)
        }
        assert len(orders) > 1

    def test_exhausts_space_without_budget(self, smoke_space, mem_session):
        manifest = run_search(smoke_space, driver="random", session=mem_session)
        assert manifest.stats.evaluations == smoke_space.size()
        assert manifest.stats.status == "solved"


class TestValidation:
    def test_bad_budget_rejected(self, smoke_space):
        with pytest.raises(ConfigurationError, match="budget"):
            run_search(smoke_space, driver="bb", budget=0)

    def test_bad_timeout_rejected(self, smoke_space):
        with pytest.raises(ConfigurationError, match="timeout"):
            run_search(smoke_space, driver="bb", timeout_s=-1.0)

    @pytest.mark.parametrize("driver", ["bb", "random"])
    @pytest.mark.parametrize("timeout_s", [math.nan, math.inf, -math.inf])
    def test_non_finite_timeout_rejected(self, smoke_space, driver, timeout_s):
        # NaN never times out, and neither NaN nor infinity is valid JSON.
        with pytest.raises(ConfigurationError, match="finite number > 0"):
            run_search(smoke_space, driver=driver, timeout_s=timeout_s)
