"""Frontier pricing: batched leaves, replayed decisions, same manifests.

The drivers price a leaf together with the later leaves of their walk
that share its scenario (one sweep, one epoch-major lineup), then
replay the sequential decisions. These tests hold the result to a
frozen copy of the sequential drivers — one ``evaluate`` per leaf — and
pin how many sweeps and speculative simulations the batching makes.
"""

from __future__ import annotations

import math
import time
from typing import Any, Callable

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.api import Scenario, Session
from repro.api.presets import FIG8_POLICIES
from repro.rng import DEFAULT_SEED, generator
from repro.search import (
    BranchBoundSearcher,
    CandidateOpened,
    CandidatePruned,
    Evaluator,
    KnobDomain,
    RandomSearcher,
    SearchResult,
    SearchSpace,
    run_search,
)
from repro.search.drivers import _start
from repro.sweep import InMemoryBackend

from .test_drivers import FakeClock

#: The smoke base's system with its RAM tier emptied: parallel staging
#: and DeepIO opportunistic are unsupported there.
RAM0_SYSTEM = {"name": "piz_daint:4", "class_capacities_mb": [0.0]}


class SequentialBB(BranchBoundSearcher):
    """The branch-and-bound driver before frontier pricing, frozen."""

    def search(
        self,
        space: SearchSpace,
        evaluator: Evaluator,
        *,
        seed: int,
        budget: int | None = None,
        timeout_s: float | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> SearchResult:
        trace = _start(self.name, space, evaluator, budget, timeout_s, clock)
        assignments = list(space.assignments())
        subtrees = []
        for policy in space.policies:
            leaves = [
                (space.candidate(policy, assignment), assignment)
                for assignment in assignments
            ]
            bounds = evaluator.lower_bounds([scenario for scenario, _ in leaves])
            node_bound = min(bounds)
            ordered = sorted(
                zip(leaves, bounds), key=lambda pair: (pair[1], pair[0][0].label)
            )
            subtrees.append((node_bound, policy, ordered))
        subtrees.sort(key=lambda node: (node[0], node[1]))

        for node_bound, policy, ordered in subtrees:
            if trace.stopping():
                break
            trace.stats.opened += 1
            evaluator.emit(CandidateOpened(label=policy, bound_s=node_bound))
            if self._prunable(node_bound, trace):
                trace.stats.pruned_nodes += 1
                trace.stats.pruned_leaves += len(ordered)
                evaluator.emit(
                    CandidatePruned(
                        label=policy,
                        bound_s=node_bound,
                        incumbent_s=trace.incumbent_s,
                        leaves=len(ordered),
                    )
                )
                continue
            for (scenario, _assignment), bound in ordered:
                if trace.stopping():
                    break
                label = scenario.label
                if self._prunable(bound, trace):
                    trace.stats.pruned_nodes += 1
                    trace.stats.pruned_leaves += 1
                    evaluator.emit(
                        CandidatePruned(
                            label=label,
                            bound_s=bound,
                            incumbent_s=trace.incumbent_s,
                            leaves=1,
                        )
                    )
                    continue
                trace.stats.opened += 1
                evaluator.emit(CandidateOpened(label=label, bound_s=bound))
                trace.record(scenario, evaluator.evaluate(scenario))
            else:
                trace.stats.backtracks += 1
                continue
            break
        return trace.result()


class SequentialRandom(RandomSearcher):
    """The random driver before frontier pricing, frozen."""

    def search(
        self,
        space: SearchSpace,
        evaluator: Evaluator,
        *,
        seed: int,
        budget: int | None = None,
        timeout_s: float | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> SearchResult:
        trace = _start(self.name, space, evaluator, budget, timeout_s, clock)
        candidates = list(space.candidates())
        rng = generator(seed, "search", self.name)
        for index in rng.permutation(len(candidates)):
            if trace.stopping():
                break
            scenario = candidates[int(index)]
            trace.stats.opened += 1
            evaluator.emit(CandidateOpened(label=scenario.label, bound_s=math.nan))
            trace.record(scenario, evaluator.evaluate(scenario))
        return trace.result()


class SweepLog(Session):
    """A cached serial session that records each sweep's cell count."""

    def __init__(self) -> None:
        super().__init__(cache=InMemoryBackend())
        self.sizes: list[int] = []

    def sweep(self, grid, **kwargs):
        cells = list(grid)
        self.sizes.append(len(cells))
        return super().sweep(cells, **kwargs)


def smoke(**fields: Any) -> Scenario:
    """The search smoke base (``tests/search/conftest.py``) with changes."""
    values: dict[str, Any] = dict(
        dataset="mnist",
        system="piz_daint:4",
        policy="naive",
        batch_size=16,
        num_epochs=4,
        scale=0.1,
    )
    values.update(fields)
    return Scenario(**values)


def batched(space: SearchSpace, searcher: Any, **kwargs: Any):
    """``(result, evaluator, session)`` of one batched search."""
    session = SweepLog()
    evaluator = Evaluator(session)
    kwargs.setdefault("seed", DEFAULT_SEED)
    return searcher.search(space, evaluator, **kwargs), evaluator, session


KNOB_VALUES = {
    "batch_size": (8, 16, 32),
    "num_epochs": (2, 4),
    "system": ("piz_daint:4", RAM0_SYSTEM),
}


@st.composite
def spaces(draw) -> SearchSpace:
    """Fig 8 policy subsets x 0-2 knobs over the smoke base."""
    policies = draw(st.lists(st.sampled_from(FIG8_POLICIES), min_size=1, unique=True))
    names = draw(st.lists(st.sampled_from(sorted(KNOB_VALUES)), max_size=2, unique=True))
    knobs = tuple(
        KnobDomain(
            name,
            tuple(
                draw(
                    st.lists(
                        st.sampled_from(KNOB_VALUES[name]),
                        min_size=1,
                        max_size=len(KNOB_VALUES[name]),
                        unique_by=repr,
                    )
                )
            ),
        )
        for name in names
    )
    return SearchSpace(base=smoke(), policies=tuple(policies), knobs=knobs)


#: The two explicit examples of the property below.
EXAMPLES = [
    # Batches whose leaves set incumbents that prune two later
    # batch-mates: recording a batched leaf without replaying its prune
    # fails here.
    dict(
        space=SearchSpace(
            base=smoke(),
            policies=("lbann:preloading", "staging_buffer", "naive", "nopfs", "locality_aware"),
            knobs=(
                KnobDomain("batch_size", (8, 32)),
                KnobDomain("system", (RAM0_SYSTEM, "piz_daint:4")),
            ),
        ),
        driver="bb",
        relaxation=1.0,
        budget=None,
        timeout_s=None,
        seed=0,
    ),
    # A batch cut to the budget's reach, whose second leaf the timeout
    # skips (one speculative simulation).
    dict(
        space=SearchSpace(base=smoke()),
        driver="bb",
        relaxation=1.0,
        budget=3,
        timeout_s=5.5,
        seed=0,
    ),
]


def test_manifests_equal_the_sequential_drivers():
    """Batched and sequential drivers write the same canonical manifest."""
    seen = {"batch": 0, "speculative": 0}

    @settings(
        max_examples=30,
        deadline=None,
        derandomize=True,
        database=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        space=spaces(),
        driver=st.sampled_from(["bb", "random"]),
        relaxation=st.sampled_from([1.0, 1.25, 2.0]),
        budget=st.none() | st.integers(1, 6),
        timeout_s=st.none() | st.sampled_from([2.5, 5.5, 9.5]),
        seed=st.integers(0, 3),
    )
    @example(**EXAMPLES[0])
    @example(**EXAMPLES[1])
    def check(space, driver, relaxation, budget, timeout_s, seed):
        if driver == "bb":
            fast, frozen = BranchBoundSearcher(relaxation), SequentialBB(relaxation)
        else:
            fast, frozen = RandomSearcher(), SequentialRandom()
        kwargs = dict(seed=seed, budget=budget, timeout_s=timeout_s)
        session = SweepLog()
        manifest = run_search(
            space, driver=fast, session=session, clock=FakeClock(step=1.0), **kwargs
        )
        expected = run_search(
            space,
            driver=frozen,
            session=Session(cache=InMemoryBackend()),
            clock=FakeClock(step=1.0),
            **kwargs,
        )
        assert manifest.to_json(sort_keys=True) == expected.to_json(sort_keys=True)
        # Each priced leaf is simulated once; those beyond the recorded
        # evaluations are speculative.
        assert session.stats.misses == session.stats.cells >= manifest.stats.evaluations
        seen["batch"] = max(seen["batch"], *session.sizes, 0)
        seen["speculative"] += session.stats.cells - manifest.stats.evaluations

    check()
    assert seen["batch"] >= 2, "no example priced a batch"
    assert seen["speculative"] > 0, "no example made a speculative simulation"


class TestCounts:
    def test_smoke_bb_prices_first_leaf_then_one_batch(self, smoke_space):
        """The first leaf alone (no incumbent), then the other four
        unprunable leaves in one sweep; all five are recorded."""
        result, evaluator, session = batched(smoke_space, BranchBoundSearcher())
        assert session.sizes == [1, 4]
        assert result.stats.evaluations == 5
        assert evaluator.speculative == 0
        assert evaluator.misses == 5

    def test_pruned_batch_mates_are_speculative(self):
        """EXAMPLES[0]: 20 leaves over four scenarios (two batch sizes x
        two systems). After the first leaf, four same-scenario leaves
        share a batch, then two batches of two; two of the four sit in
        policy subtrees that the incumbent set by their batch-mate
        prunes whole, so ten simulations buy eight evaluations. The count is the cells swept beyond the
        recorded evaluations, which is what the CLI prints."""
        space = EXAMPLES[0]["space"]
        result, evaluator, session = batched(space, BranchBoundSearcher(), seed=0)
        assert session.sizes == [1, 4, 2, 2, 1]
        assert result.stats.evaluations == 8
        assert evaluator.misses == 10
        assert evaluator.speculative == 2
        assert session.stats.cells - result.stats.evaluations == 2

    def test_budget_never_skips_a_batched_leaf(self, smoke_base):
        """Budget 3 on 54 leaves: a batch takes only leaves the walk
        can still record within the budget. The first leaf is priced
        alone (no incumbent); with two evaluations left, the second
        could batch only with the walk's next unprunable leaf, the
        first subtree's third, whose batch size or epochs differ; the
        third is the last evaluation. So three simulations for three
        evaluations. A batch that took the second leaf's next
        same-scenario leaf anywhere in the walk would take a later
        subtree's leaf here that the budget stop then skips."""
        space = SearchSpace(
            base=smoke_base,
            knobs=(KnobDomain("batch_size", (8, 16, 32)), KnobDomain("num_epochs", (2, 4))),
        )
        result, evaluator, session = batched(space, BranchBoundSearcher(), budget=3)
        assert session.sizes == [1, 1, 1]
        assert result.stats.evaluations == 3
        assert result.stats.status == "budget_exhausted"
        assert evaluator.misses == 3
        assert evaluator.speculative == 0

    def test_warm_batched_search_simulates_nothing(self):
        """Speculative leaves warm the cache like recorded ones."""
        space = EXAMPLES[0]["space"]
        session = Session(cache=InMemoryBackend())
        run_search(space, driver="bb", session=session, seed=0)
        warm = Evaluator(session)
        BranchBoundSearcher().search(space, warm, seed=0)
        assert warm.misses == 0 and warm.hits == 10
        assert warm.speculative == 2
