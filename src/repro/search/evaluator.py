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
here too, memoized per fingerprint, on one
:class:`~repro.sim.context.ScenarioContext` shared by every candidate
that differs only in policy — the ``run_many`` trick applied to
bounding, so bounding a nine-policy lineup builds the scenario's
access streams once.

One context per search. The evaluator keeps at most one context alive,
the current scenario's, and bounds a batch of candidates grouped by
context, so it switches contexts once per scenario. On a serial
session the context memoizes its prepared policies
(:meth:`ScenarioContext.prepare <repro.sim.context.ScenarioContext.prepare>`),
and an evaluation of the current scenario borrows it
(:meth:`SerialExecutor.lend <repro.sweep.executors.SerialExecutor.lend>`):
the bound and the evaluation of a candidate share one policy object,
one prepare and its plan scalars. Only bounds build contexts: an
evaluation of another scenario drops the current context and sweeps
the scenarios' own cells. The memo holds only candidates that may
still be evaluated: an evaluation drops the prepared policies it
simulated, and a driver drops the ones its incumbent prunes
(:meth:`~Evaluator.discard`). Prepared policies and memoized errors
never refer back to their context, so forgetting the context frees it
and its memo by reference counting alone:
:meth:`~Evaluator.release_context` (which
:func:`~repro.search.run.run_search` calls when it returns) forgets it,
and so does dropping the evaluator. Pool sessions simulate in other
processes, which cannot share the context; there the context memoizes
nothing.
"""

from __future__ import annotations

import json
from typing import Iterable, Sequence

from ..api.scenario import Scenario
from ..api.session import Session
from ..sim import Policy
from ..sim.bounds import policy_lower_bound
from ..sim.context import ScenarioContext
from ..sweep.events import SweepEvent
from ..sweep.executors import SerialExecutor
from ..sweep.grid import SweepCell

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
        executor = session.runner.executor
        #: The session's serial executor, which the current context is
        #: lent to; ``None`` on a pool session.
        self._serial = executor if isinstance(executor, SerialExecutor) else None
        #: The current scenario's ``(context_key, context)``, or ``None``.
        self._context: tuple[str, ScenarioContext] | None = None
        #: The current context's candidates' policy objects, by
        #: fingerprint: the keys of the context's prepared-policy memo.
        self._policies: dict[str, Policy] = {}

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
        epoch-major lineup. On a serial session, when the first
        scenario's context is the current one, that lineup runs on it,
        with the policy objects and prepared policies its bounds used;
        otherwise the current context is dropped and the sweep builds
        its own, as a plain sweep does.
        """
        order: list[str] = []
        unique: dict[str, Scenario] = {}
        for scenario in scenarios:
            fingerprint = scenario.fingerprint()
            order.append(fingerprint)
            unique.setdefault(fingerprint, scenario)
        if not unique:
            return []
        ctx = None
        if self._serial is not None and self._context is not None:
            key = self.context_key(next(iter(unique.values())))
            if key == self._context[0]:
                ctx = self._context[1]
        if ctx is None:
            # Building a context here would cost cells the cache answers,
            # and another scenario's memo would sit beside this lineup.
            self.release_context()
            outcome = self.session.sweep([s.cell(tag=fp) for fp, s in unique.items()])
        else:
            cells = [
                SweepCell(tag=fp, config=ctx.config, policy=self._policy(fp, s))
                if self.context_key(s) == key
                else s.cell(tag=fp)
                for fp, s in unique.items()
            ]
            with self._serial.lend(ctx):
                outcome = self.session.sweep(cells)
            # Drivers price a candidate once: its prepared policy is spent.
            self._drop(unique)
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

    # -- contexts ------------------------------------------------------

    def context_key(self, scenario: Scenario) -> str:
        """Every scenario field except the policy, as canonical JSON.

        Candidates with equal keys differ only in policy: they share a
        context here, and a driver prices them as one lineup.
        """
        payload = scenario.to_dict()
        payload.pop("policy", None)
        return json.dumps(payload, sort_keys=True, default=repr)

    def _context_for(self, scenario: Scenario) -> ScenarioContext:
        """The scenario's context: the current one, or a new one replacing it.

        Keyed on :meth:`context_key`, because the context (access
        streams, sample sizes) is policy-independent. The old context is
        released before the new one is built, so two never coexist.
        """
        key = self.context_key(scenario)
        if self._context is not None and self._context[0] == key:
            return self._context[1]
        self.release_context()
        ctx = ScenarioContext(scenario.build_config())
        if self._serial is not None:
            ctx.prepared = {}
        self._context = (key, ctx)
        return ctx

    def _policy(self, fingerprint: str, scenario: Scenario) -> Policy:
        """The current context's policy object for one candidate."""
        policy = self._policies.get(fingerprint)
        if policy is None:
            policy = self._policies[fingerprint] = scenario.build_policy()
        return policy

    def discard(self, scenarios: Iterable[Scenario]) -> None:
        """Drop the prepared policies of candidates that will not be evaluated.

        A driver calls this for the candidates its incumbent prunes, so
        the memo holds only candidates it may still evaluate;
        :meth:`evaluate_many` drops the ones it simulated. Dropping is
        always safe: a dropped candidate evaluated after all is prepared
        again.
        """
        self._drop(scenario.fingerprint() for scenario in scenarios)

    def _drop(self, fingerprints: Iterable[str]) -> None:
        """Forget these candidates' policy objects and prepared policies."""
        memo = None if self._context is None else self._context[1].prepared
        for fingerprint in fingerprints:
            policy = self._policies.pop(fingerprint, None)
            if policy is not None and memo is not None:
                memo.pop(policy, None)

    def release_context(self) -> None:
        """Forget the current context, its prepared policies and policy objects."""
        self._context = None
        self._policies = {}

    # -- bounds --------------------------------------------------------

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
            ctx = self._context_for(scenario)
            bound = policy_lower_bound(ctx.config, self._policy(fingerprint, scenario), ctx)
            self._bounds[fingerprint] = bound
        return bound

    def lower_bounds(self, scenarios: Iterable[Scenario]) -> list[float]:
        """:meth:`lower_bound` for each scenario, in order.

        Computed context-major: grouped by :meth:`context_key`, groups
        in first-seen order, so the one-context rule switches contexts
        once per scenario rather than once per candidate.
        """
        scenarios = list(scenarios)
        keys = [self.context_key(s) for s in scenarios]
        group = {key: rank for rank, key in enumerate(dict.fromkeys(keys))}
        bounds = [0.0] * len(scenarios)
        for i in sorted(range(len(scenarios)), key=lambda i: group[keys[i]]):
            bounds[i] = self.lower_bound(scenarios[i])
        return bounds
