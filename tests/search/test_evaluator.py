"""`Evaluator`: cached pricing, dedupe, bounds, event plumbing."""

import math

from repro.api import Scenario
from repro.search import Evaluator, SearchStarted
from repro.sim import Simulator


class TestObjectives:
    def test_objective_is_total_time(self, smoke_base, mem_session):
        scenario = smoke_base
        evaluator = Evaluator(mem_session)
        expected = Simulator(scenario.build_config()).run(
            scenario.build_policy()
        ).total_time_s
        assert evaluator.evaluate(scenario) == expected

    def test_batch_preserves_order_and_dedupes(self, smoke_space, mem_session):
        evaluator = Evaluator(mem_session)
        candidates = list(smoke_space.candidates())
        doubled = candidates + candidates  # every candidate twice
        objectives = evaluator.evaluate_many(doubled)
        assert len(objectives) == len(doubled)
        assert objectives[: len(candidates)] == objectives[len(candidates):]
        # duplicates priced once: one miss per *unique* candidate
        assert evaluator.misses == len(candidates)

    def test_hit_miss_counters_prove_warmth(self, smoke_space, mem_session):
        cold = Evaluator(mem_session)
        cold.evaluate_many(list(smoke_space.candidates()))
        assert cold.misses == smoke_space.size() and cold.hits == 0
        warm = Evaluator(mem_session)
        warm.evaluate_many(list(smoke_space.candidates()))
        assert warm.hits == smoke_space.size() and warm.misses == 0

    def test_unsupported_prices_to_none(self, mem_session):
        # LBANN rejects datasets beyond aggregate cluster memory.
        scenario = Scenario(
            dataset="imagenet22k",
            system="sec6_cluster:2",
            policy="lbann:dynamic",
            batch_size=32,
            num_epochs=2,
            scale=1.0,
        )
        evaluator = Evaluator(mem_session)
        assert evaluator.evaluate(scenario) is None

    def test_empty_batch(self, mem_session):
        assert Evaluator(mem_session).evaluate_many([]) == []


class TestBounds:
    def test_bounds_memoized_and_admissible(self, smoke_space, mem_session):
        evaluator = Evaluator(mem_session)
        candidates = list(smoke_space.candidates())
        bounds = evaluator.lower_bounds(candidates)
        objectives = evaluator.evaluate_many(candidates)
        for bound, objective in zip(bounds, objectives):
            assert objective is None or bound <= objective
        # memoized: same values, same context reused
        assert evaluator.lower_bounds(candidates) == bounds
        assert evaluator._context is not None  # one context for the policy axis

    def test_unsupported_bounds_to_inf(self, mem_session):
        scenario = Scenario(
            dataset="imagenet22k",
            system="sec6_cluster:2",
            policy="lbann:dynamic",
            batch_size=32,
            num_epochs=2,
        )
        assert Evaluator(mem_session).lower_bound(scenario) == math.inf


class TestEvents:
    def test_emit_reaches_session_bus(self, mem_session):
        seen = []
        mem_session.bus.subscribe(seen.append)
        Evaluator(mem_session).emit(SearchStarted(driver="bb", space_size=9))
        assert seen and isinstance(seen[0], SearchStarted)
