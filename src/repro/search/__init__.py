"""`repro.search`: policy/knob search over the cached sweep layer.

The paper's core question — which prefetching policy and knob settings
minimize epoch I/O time for a given dataset x system — is answered
here by *searching* the design space instead of enumerating it:

* :mod:`repro.search.space` — :class:`SearchSpace`: the candidate set
  (policy specs x knob domains over a base
  :class:`~repro.api.scenario.Scenario`) declared as plain,
  JSON-round-trippable data.
* :mod:`repro.search.drivers` — the :data:`SEARCHERS` registry and the
  two drivers behind it: ``bb`` branch-and-bound pruning on
  :func:`~repro.sim.bounds.policy_lower_bound`, plus the seeded
  ``random`` baseline.
* :mod:`repro.search.evaluator` — :class:`Evaluator`: every candidate
  flows through :meth:`Session.sweep <repro.api.session.Session.sweep>`
  and the content-addressed result cache, so repeated and overlapping
  searches are warm (the hit/miss counters prove it).
* :mod:`repro.search.events` — typed search progress events
  (:class:`CandidateOpened`, :class:`CandidatePruned`,
  :class:`IncumbentImproved`, ...) published on the session's existing
  :class:`~repro.sweep.events.ProgressBus`.
* :mod:`repro.search.manifest` — :class:`SearchManifest`: space + seed
  + driver + every evaluation's cache fingerprint + the incumbent
  trajectory, making any search byte-reproducible and resumable.
* :mod:`repro.search.run` — :func:`run_search`, the one-call entry the
  CLI (``python -m repro search``) wraps.

Determinism is load-bearing throughout: drivers take their clock and
RNG from injected seams (:func:`repro.rng.generator` keyed on the
search seed; no ambient ``time.time()`` or global RNG), so the same
seed and space produce a byte-identical manifest on every run and
every executor — and resuming an interrupted search is simply
re-running it against the warm cache.
"""

from .drivers import (
    SEARCHERS,
    BranchBoundSearcher,
    RandomSearcher,
    Searcher,
    SearchResult,
)
from .evaluator import Evaluator
from .events import (
    CandidateOpened,
    CandidatePruned,
    IncumbentImproved,
    SearchEvent,
    SearchFinished,
    SearchStarted,
)
from .manifest import EvaluationRecord, IncumbentStep, SearchManifest, SearchStats
from .run import run_search
from .space import KnobDomain, SearchSpace

__all__ = [
    "SEARCHERS",
    "BranchBoundSearcher",
    "CandidateOpened",
    "CandidatePruned",
    "Evaluator",
    "EvaluationRecord",
    "IncumbentImproved",
    "IncumbentStep",
    "KnobDomain",
    "RandomSearcher",
    "SearchEvent",
    "SearchFinished",
    "SearchManifest",
    "SearchResult",
    "SearchSpace",
    "SearchStarted",
    "SearchStats",
    "Searcher",
    "run_search",
]
