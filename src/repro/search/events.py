"""Typed search progress events, published on the sweep progress bus.

Search events subclass :class:`~repro.sweep.events.SweepEvent`, so
they ride the exact bus the sweep layer already owns: a subscriber on
:attr:`Session.bus <repro.api.session.Session.bus>` sees the per-cell
sweep lifecycle (each pricing batch is one sweep, whose cell events
arrive before the :class:`CandidateOpened` of every batched leaf but
the first) *and* the search-level narrative interleaved, in emission
order:

* :class:`SearchStarted` / :class:`SearchFinished` bracket a driver
  run (``search_finished`` carries the final counter snapshot);
* :class:`CandidateOpened` — a tree node (a policy subtree or a leaf
  scenario) was opened for exploration, with its lower bound;
* :class:`CandidatePruned` — a node's bound (times the driver's
  relaxation) met or beat the incumbent, so its ``leaves`` candidate
  scenarios were discarded without simulation;
* :class:`IncumbentImproved` — a full-fidelity evaluation beat the
  best objective seen so far.

Like all bus traffic these are emitted synchronously from the process
driving the search, never from pool workers.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..sweep.events import SweepEvent

__all__ = [
    "CandidateOpened",
    "CandidatePruned",
    "IncumbentImproved",
    "SearchEvent",
    "SearchFinished",
    "SearchStarted",
]


@dataclass(frozen=True)
class SearchEvent(SweepEvent):
    """Base class of every search-level event."""


@dataclass(frozen=True)
class SearchStarted(SearchEvent):
    """A driver began exploring; ``space_size`` counts every candidate."""

    driver: str
    space_size: int


@dataclass(frozen=True)
class CandidateOpened(SearchEvent):
    """A node was opened: ``label`` names it (policy spec, or policy
    spec plus knob assignment for a leaf), ``bound_s`` is its admissible
    lower bound on the objective."""

    label: str
    bound_s: float


@dataclass(frozen=True)
class CandidatePruned(SearchEvent):
    """A node was discarded by its bound: ``leaves`` candidates were
    skipped because ``bound_s`` (under the driver's relaxation) could
    not beat ``incumbent_s``."""

    label: str
    bound_s: float
    incumbent_s: float
    leaves: int = 1


@dataclass(frozen=True)
class IncumbentImproved(SearchEvent):
    """A full evaluation produced a new best objective."""

    fingerprint: str
    label: str
    objective_s: float


@dataclass(frozen=True)
class SearchFinished(SearchEvent):
    """The driver returned; ``stats`` is the final
    :class:`~repro.search.manifest.SearchStats` snapshot (untyped here
    to keep the event layer import-light)."""

    stats: "object"
