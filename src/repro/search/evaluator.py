"""`Evaluator`: candidate pricing through the cached sweep layer.

Every candidate a driver wants simulated goes through
:meth:`Session.sweep <repro.api.session.Session.sweep>` — never a bare
:class:`~repro.sim.engine.Simulator` — so each evaluation lands in (or
is answered by) the content-addressed result cache under the
scenario's fingerprint. A driver prices a batch of candidates in one
sweep: the leaf it is about to record plus the frontier leaves that
share its scenario (:meth:`Evaluator.context_key`), which the serial
executor runs as one epoch-major lineup. Repeated searches,
overlapping spaces and interrupted-then-resumed runs are warm for
free; the evaluator's :attr:`~Evaluator.hits` /
:attr:`~Evaluator.misses` counters split priced candidates into
cache-served and freshly simulated, which is how the tests *prove* a
warm re-search performs zero re-simulations, and
:attr:`~Evaluator.speculative` counts the batched candidates the
driver never recorded.

Lower bounds (:func:`~repro.sim.bounds.policy_lower_bound`) are priced
here too, memoized per fingerprint, with one
:class:`~repro.sim.context.ScenarioContext` shared across every
candidate that differs only in policy — the ``run_many`` trick applied
to bounding, so bounding a nine-policy lineup builds the scenario's
access streams once.
"""

from __future__ import annotations

import json
from typing import Iterable, Sequence

from ..api.scenario import Scenario
from ..api.session import Session
from ..sim.bounds import policy_lower_bound
from ..sim.context import ScenarioContext
from ..sweep.events import SweepEvent

__all__ = ["Evaluator"]


class Evaluator:
    """Prices candidates (objective and bound) for the search drivers.

    The objective is the simulated end-to-end time
    (:attr:`~repro.sim.result.SimulationResult.total_time_s`:
    prestaging plus every epoch — the same structure the lower bound
    refines); unsupported candidates (the paper's "Does not support"
    cells) price to ``None`` and can never become the incumbent.
    """

    def __init__(self, session: Session) -> None:
        self.session = session
        #: Evaluations answered from the result cache.
        self.hits = 0
        #: Evaluations that actually simulated (cache misses).
        self.misses = 0
        #: Candidates a driver priced in a batch but never recorded:
        #: pruned by a later incumbent, or skipped by a timeout.
        self.speculative = 0
        self._bounds: dict[str, float] = {}
        self._contexts: dict[str, ScenarioContext] = {}

    # -- events --------------------------------------------------------

    def emit(self, event: SweepEvent) -> None:
        """Publish a search event on the session's progress bus."""
        self.session.bus.emit(event)

    # -- objectives ----------------------------------------------------

    def evaluate_many(self, scenarios: Sequence[Scenario]) -> list[float | None]:
        """Objectives for ``scenarios``, in order (one sweep, deduped).

        Duplicate fingerprints are evaluated once; the whole batch is
        a single :meth:`Session.sweep` call, so it parallelizes across
        the session's executor and memoizes per candidate, and the
        serial executor prices candidates that share a scenario as one
        epoch-major lineup.
        """
        order: list[str] = []
        unique: dict[str, Scenario] = {}
        for scenario in scenarios:
            fingerprint = scenario.fingerprint()
            order.append(fingerprint)
            unique.setdefault(fingerprint, scenario)
        if not unique:
            return []
        cells = [s.cell(tag=fp) for fp, s in unique.items()]
        outcome = self.session.sweep(cells)
        self.hits += outcome.stats.hits
        self.misses += outcome.stats.misses
        objectives = {
            fp: (None if (res := outcome.get(fp)) is None else float(res.total_time_s))
            for fp in unique
        }
        return [objectives[fp] for fp in order]

    def evaluate(self, scenario: Scenario) -> float | None:
        """Objective for one candidate (``None`` = unsupported)."""
        return self.evaluate_many([scenario])[0]

    # -- bounds --------------------------------------------------------

    def context_key(self, scenario: Scenario) -> str:
        """Every scenario field except the policy, as canonical JSON.

        Candidates with equal keys differ only in policy: they share a
        bound context here, and a driver prices them as one lineup.
        """
        payload = scenario.to_dict()
        payload.pop("policy", None)
        return json.dumps(payload, sort_keys=True, default=repr)

    def _context_for(self, scenario: Scenario) -> ScenarioContext:
        """A scenario context shared across the policy axis.

        Keyed on :meth:`context_key`, because the context (access
        streams, sample sizes) is policy-independent.
        """
        key = self.context_key(scenario)
        ctx = self._contexts.get(key)
        if ctx is None:
            ctx = ScenarioContext(scenario.build_config())
            self._contexts[key] = ctx
        return ctx

    def lower_bound(self, scenario: Scenario) -> float:
        """Admissible lower bound on the candidate's objective.

        Memoized per fingerprint; ``inf`` for unsupported candidates
        (:func:`~repro.sim.bounds.policy_lower_bound` semantics), so
        they are pruned rather than simulated whenever an incumbent
        exists.
        """
        fingerprint = scenario.fingerprint()
        bound = self._bounds.get(fingerprint)
        if bound is None:
            bound = policy_lower_bound(
                scenario.build_config(),
                scenario.build_policy(),
                self._context_for(scenario),
            )
            self._bounds[fingerprint] = bound
        return bound

    def lower_bounds(self, scenarios: Iterable[Scenario]) -> list[float]:
        """:meth:`lower_bound` for each scenario, in order."""
        return [self.lower_bound(s) for s in scenarios]
