"""The search drivers and the `SEARCHERS` registry that names them.

Two drivers, one :class:`Searcher` protocol:

``bb`` — :class:`BranchBoundSearcher`
    Best-first branch-and-bound over a two-level candidate tree
    (policy subtrees above, knob-assignment leaves below), shaped after
    the mongodb-d4 design search: bound every node with the admissible
    :func:`~repro.sim.bounds.policy_lower_bound`, explore
    cheapest-bound-first, prune any node whose bound (times the
    ``relaxation`` knob) cannot beat the incumbent, count backtracks,
    and stop on budget or the injected-clock timeout. With
    ``relaxation=1.0`` the incumbent is exactly the exhaustive-sweep
    optimum while strictly fewer candidates are simulated (whenever any
    bound exceeds the optimum); ``relaxation > 1`` prunes harder and
    guarantees the result within that factor of the optimum.

``random`` — :class:`RandomSearcher`
    Seeded uniform sampling without replacement — the honest baseline
    B&B must beat on evaluations-to-optimum.

Both drivers price candidates through one trace method that batches
the leaf being evaluated with the later leaves of the walk that share
its scenario, then replays the sequential decisions leaf by leaf
(frontier pricing; ``docs/search.md``), so batching never changes what
a driver records.

Determinism is a hard contract for every driver: time comes only from
the injected ``clock``, randomness only from
:func:`repro.rng.generator` keyed on the search seed, and candidate
traversal derives from the space's declared order — no ambient
``time.time()``, no global RNG. Same seed + space ⇒ identical
evaluation sequence, byte-identical manifest.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Protocol, runtime_checkable

from ..api.registry import Registry
from ..api.scenario import Scenario
from ..errors import ConfigurationError
from ..rng import generator
from .events import (
    CandidateOpened,
    CandidatePruned,
    IncumbentImproved,
    SearchFinished,
    SearchStarted,
)
from .evaluator import Evaluator
from .manifest import EvaluationRecord, IncumbentStep, SearchStats
from .space import SearchSpace

__all__ = [
    "SEARCHERS",
    "BranchBoundSearcher",
    "RandomSearcher",
    "SearchResult",
    "Searcher",
]

#: The search drivers, by name — the fourth registry next to
#: ``POLICIES`` / ``DATASETS`` / ``SYSTEMS`` (also reachable as
#: ``repro.api.SEARCHERS``).
SEARCHERS: Registry = Registry("searcher")


@dataclass(frozen=True)
class SearchResult:
    """What a driver hands back to :func:`~repro.search.run.run_search`."""

    evaluations: tuple[EvaluationRecord, ...]
    incumbents: tuple[IncumbentStep, ...]
    best: EvaluationRecord | None
    stats: SearchStats


@runtime_checkable
class Searcher(Protocol):
    """The driver contract: explore a space through an evaluator.

    ``name`` keys events and manifests; :meth:`params` reports the
    driver's own knobs (e.g. the relaxation) for the manifest;
    :meth:`search` runs the exploration — taking its time *only* from
    ``clock`` and its randomness *only* from the ``seed`` — and
    returns the full trace.
    """

    name: str

    def params(self) -> dict[str, Any]:
        """The driver's knob settings, for the manifest."""
        ...

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
        """Explore ``space``; every simulation goes through ``evaluator``."""
        ...


@dataclass
class _Trace:
    """Shared driver bookkeeping: evaluations, incumbent, budget, clock."""

    evaluator: Evaluator
    budget: int | None
    timeout_s: float | None
    clock: Callable[[], float]
    stats: SearchStats
    started_at: float = 0.0
    incumbent_s: float = math.inf
    best: EvaluationRecord | None = None
    evaluations: list[EvaluationRecord] = field(default_factory=list)
    incumbents: list[IncumbentStep] = field(default_factory=list)
    #: Objectives priced by a batch but not yet recorded, by fingerprint.
    priced: dict[str, float | None] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.started_at = self.clock()

    def timed_out(self) -> bool:
        """Whether the injected clock has passed the timeout."""
        return (
            self.timeout_s is not None
            and self.clock() - self.started_at >= self.timeout_s
        )

    def exhausted(self) -> bool:
        """Whether the evaluation budget is spent."""
        return self.budget is not None and self.stats.evaluations >= self.budget

    def stopping(self) -> bool:
        """Set the terminal status if budget or timeout says stop."""
        if self.timed_out():
            self.stats.status = "timed_out"
            return True
        if self.exhausted():
            self.stats.status = "budget_exhausted"
            return True
        return False

    def record(self, scenario: Scenario, objective: float | None) -> EvaluationRecord:
        """Append one evaluation; it takes the incumbent if it improves.

        Ties on the objective break toward the smaller fingerprint, so
        the incumbent is the canonical ``min((objective, fingerprint))``
        of everything evaluated — independent of exploration order, and
        always the same candidate an exhaustive sweep would name.
        """
        record = EvaluationRecord(
            index=len(self.evaluations),
            fingerprint=scenario.fingerprint(),
            scenario=scenario,
            objective_s=objective,
        )
        self.evaluations.append(record)
        self.stats.evaluations += 1
        improves = objective is not None and (
            objective < self.incumbent_s
            or (
                objective == self.incumbent_s
                and self.best is not None
                and record.fingerprint < self.best.fingerprint
            )
        )
        if objective is None:
            self.stats.unsupported += 1
        elif improves:
            self.incumbent_s = objective
            self.best = record
            self.incumbents.append(
                IncumbentStep(
                    evaluation=record.index,
                    fingerprint=record.fingerprint,
                    objective_s=objective,
                )
            )
            self.evaluator.emit(
                IncumbentImproved(
                    fingerprint=record.fingerprint,
                    label=scenario.label,
                    objective_s=objective,
                )
            )
        return record

    def evaluate(
        self, scenario: Scenario, later: Iterable[Scenario] = ()
    ) -> EvaluationRecord:
        """Record one candidate, pricing it first unless a batch has.

        Once the incumbent is finite, an unpriced candidate is priced in
        one :meth:`Evaluator.evaluate_many` call together with every
        leaf of ``later`` — the rest of the driver's walk, in order,
        that its bounds cannot prune yet — that shares the candidate's
        scenario (:meth:`Evaluator.context_key`): one epoch-major
        lineup instead of one sweep per leaf. Under a budget only the
        first ``remaining - 1`` leaves of ``later`` qualify: the walk
        records nothing outside ``later``, so those are the only leaves
        it can still reach, and the budget never skips a batched leaf.
        The driver then replays its decisions leaf by leaf, and each
        batched leaf it records reads its objective here. Before the
        first finite incumbent a candidate is priced alone, since every
        bound is unprunable then.
        """
        fingerprint = scenario.fingerprint()
        if fingerprint not in self.priced:
            batch = [scenario]
            if math.isfinite(self.incumbent_s):
                if self.budget is not None:
                    later = itertools.islice(
                        later, self.budget - self.stats.evaluations - 1
                    )
                key = self.evaluator.context_key(scenario)
                batch += [
                    leaf for leaf in later if self.evaluator.context_key(leaf) == key
                ]
            objectives = self.evaluator.evaluate_many(batch)
            self.priced.update(
                zip((leaf.fingerprint() for leaf in batch), objectives)
            )
        return self.record(scenario, self.priced.pop(fingerprint))

    def result(self) -> SearchResult:
        """Freeze the trace into the driver's return value.

        Batched leaves the driver never recorded — pruned by a later
        incumbent, or skipped by a timeout — are speculative: they stay
        out of the result (their objectives are in the cache) and
        :attr:`Evaluator.speculative` counts them.
        """
        self.evaluator.speculative += len(self.priced)
        if self.stats.status in ("initialized", "solving"):
            self.stats.status = "solved"
        self.evaluator.emit(SearchFinished(stats=self.stats))
        return SearchResult(
            evaluations=tuple(self.evaluations),
            incumbents=tuple(self.incumbents),
            best=self.best,
            stats=self.stats,
        )


def _start(
    name: str,
    space: SearchSpace,
    evaluator: Evaluator,
    budget: int | None,
    timeout_s: float | None,
    clock: Callable[[], float],
) -> _Trace:
    """Validate common driver inputs and open a trace."""
    if budget is not None and budget < 1:
        raise ConfigurationError(f"search budget must be >= 1, got {budget}")
    # NaN never times out and neither NaN nor infinity is valid JSON in
    # the manifest, so the timeout must be a finite number.
    if timeout_s is not None and not (math.isfinite(timeout_s) and timeout_s > 0):
        raise ConfigurationError(
            f"search timeout must be a finite number > 0, got {timeout_s!r}"
        )
    stats = SearchStats(status="solving")
    evaluator.emit(SearchStarted(driver=name, space_size=space.size()))
    return _Trace(
        evaluator=evaluator,
        budget=budget,
        timeout_s=timeout_s,
        clock=clock,
        stats=stats,
    )


class BranchBoundSearcher:
    """Best-first branch-and-bound with admissible-bound pruning.

    ``relaxation`` (finite, ``>= 1``) multiplies a node's bound before the
    incumbent comparison: ``1.0`` (default) prunes only provably
    non-improving nodes (exact optimum), larger values trade optimality
    — bounded to within the factor — for fewer evaluations. Reachable
    as the ``bb:1.5`` spec shorthand.
    """

    name = "bb"

    def __init__(self, relaxation: float = 1.0) -> None:
        # A NaN or infinite factor would never prune or prune everything.
        try:
            value = float(relaxation)
        except (TypeError, ValueError):
            value = math.nan
        if not (math.isfinite(value) and value >= 1.0):
            raise ConfigurationError(
                f"relaxation must be a finite number >= 1.0, got {relaxation!r}"
            )
        self.relaxation = value

    def params(self) -> dict[str, Any]:
        """The driver's knob settings, for the manifest."""
        return {"relaxation": self.relaxation}

    def _prunable(self, bound: float, trace: _Trace) -> bool:
        """Whether a node with ``bound`` cannot (relaxedly) improve."""
        return bound * self.relaxation >= trace.incumbent_s

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
        """Bound, order, prune, evaluate — until solved, broke, or late."""
        trace = _start(self.name, space, evaluator, budget, timeout_s, clock)
        assignments = list(space.assignments())

        # Bound every leaf up front (bounds are cheap — no simulation),
        # in one call, which the evaluator prices context-major; a
        # policy subtree's bound is its best leaf's.
        grid = [
            [space.candidate(policy, assignment) for assignment in assignments]
            for policy in space.policies
        ]
        bounds = iter(evaluator.lower_bounds(itertools.chain.from_iterable(grid)))
        subtrees = []
        for policy, leaves in zip(space.policies, grid):
            leaf_bounds = list(itertools.islice(bounds, len(leaves)))
            ordered = sorted(zip(leaves, leaf_bounds), key=lambda pair: (pair[1], pair[0].label))
            subtrees.append((min(leaf_bounds), policy, ordered))
        # Best-first: cheapest-bound subtree explored first, so the
        # incumbent tightens as early as possible.
        subtrees.sort(key=lambda node: (node[0], node[1]))

        # Every leaf in walk order. A leaf's bound is at least its
        # subtree's, so a leaf its own bound cannot prune sits in a
        # subtree that cannot be pruned either.
        walk = [leaf for _, _, ordered in subtrees for leaf in ordered]

        def frontier(start: int) -> Iterable[Scenario]:
            """The leaves after walk position ``start`` not prunable now."""
            return (
                scenario
                for scenario, bound in itertools.islice(walk, start, None)
                if not self._prunable(bound, trace)
            )

        starts = itertools.accumulate((len(node[2]) for node in subtrees), initial=0)
        for (node_bound, policy, ordered), start in zip(subtrees, starts):
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
            for position, (scenario, bound) in enumerate(ordered, start + 1):
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
                incumbent_s = trace.incumbent_s
                trace.evaluate(scenario, frontier(position))
                if trace.incumbent_s < incumbent_s:
                    # The leaves the new incumbent prunes are never
                    # evaluated: free their prepared policies now.
                    evaluator.discard(
                        leaf
                        for leaf, leaf_bound in itertools.islice(walk, position, None)
                        if self._prunable(leaf_bound, trace)
                    )
            else:
                trace.stats.backtracks += 1
                continue
            break  # inner loop stopped on budget/timeout
        return trace.result()


class RandomSearcher:
    """Seeded uniform sampling without replacement (the baseline)."""

    name = "random"

    def params(self) -> dict[str, Any]:
        """The driver's knob settings, for the manifest."""
        return {}

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
        """Evaluate candidates in a seeded random order until stopped."""
        trace = _start(self.name, space, evaluator, budget, timeout_s, clock)
        candidates = list(space.candidates())
        rng = generator(seed, "search", self.name)
        order = [candidates[int(index)] for index in rng.permutation(len(candidates))]
        for position, scenario in enumerate(order, 1):
            if trace.stopping():
                break
            trace.stats.opened += 1
            evaluator.emit(CandidateOpened(label=scenario.label, bound_s=math.nan))
            trace.evaluate(scenario, itertools.islice(order, position, None))
        return trace.result()


SEARCHERS.register(
    "bb",
    BranchBoundSearcher,
    summary="Branch-and-bound pruning on analytic lower bounds (:R = relaxation)",
    variant_param="relaxation",
)
SEARCHERS.register(
    "random",
    RandomSearcher,
    summary="Seeded random sampling without replacement (baseline)",
)
SEARCHERS.alias("branch_and_bound", "bb")
