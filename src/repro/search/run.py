"""`run_search`: one call from a declared space to a written manifest.

This is the function behind ``python -m repro search``: resolve the
driver spec through :data:`~repro.search.drivers.SEARCHERS` (so
``bb:1.5`` shorthand and near-miss suggestions work exactly as for
policies), wire an :class:`~repro.search.evaluator.Evaluator` onto a
:class:`~repro.api.session.Session`, run the driver, and fold its
trace into a :class:`~repro.search.manifest.SearchManifest`.

The determinism seams are all injectable here: ``clock`` (defaults to
``time.monotonic``; tests pass fake clocks to exercise timeouts),
``timestamp`` (the manifest's ``created_at`` — never read from the
system clock, so manifests stay byte-reproducible unless the caller
opts in), and ``seed`` (the only randomness any driver sees).
"""

from __future__ import annotations

import time
from typing import Any, Callable, Mapping

from ..api.session import Session
from ..rng import DEFAULT_SEED
from ..sweep.events import SweepEvent
from .drivers import SEARCHERS, Searcher
from .evaluator import Evaluator
from .manifest import SearchManifest
from .space import SearchSpace

__all__ = ["run_search"]


def run_search(
    space: SearchSpace,
    *,
    driver: "str | Mapping[str, Any] | Searcher" = "bb",
    session: Session | None = None,
    seed: int = DEFAULT_SEED,
    budget: int | None = None,
    timeout_s: float | None = None,
    clock: Callable[[], float] | None = None,
    timestamp: str | None = None,
    on_event: Callable[[SweepEvent], None] | None = None,
) -> SearchManifest:
    """Search ``space`` and return the manifest of everything that happened.

    ``driver`` is a :data:`SEARCHERS` spec (``"bb"``, ``"bb:1.5"``,
    ``{"name": "bb", "relaxation": 2.0}``) or an already-built
    :class:`~repro.search.drivers.Searcher`. ``session`` supplies the
    executor and result cache every evaluation routes through (a fresh
    serial, uncached session when omitted). ``on_event`` subscribes to
    the session bus for the duration of the search only. The
    evaluator's context and its prepared policies are released before
    the call returns (:meth:`Evaluator.release_context`).
    """
    if session is None:
        session = Session()
    searcher: Searcher
    if isinstance(driver, (str, Mapping)):
        searcher = SEARCHERS.create(driver)
    else:
        searcher = driver
    evaluator = Evaluator(session)
    unsubscribe = session.bus.subscribe(on_event) if on_event is not None else None
    try:
        result = searcher.search(
            space,
            evaluator,
            seed=seed,
            budget=budget,
            timeout_s=timeout_s,
            clock=time.monotonic if clock is None else clock,
        )
    finally:
        evaluator.release_context()
        if unsubscribe is not None:
            unsubscribe()
    return SearchManifest(
        driver=searcher.name,
        seed=seed,
        space=space,
        params=searcher.params(),
        budget=budget,
        timeout_s=timeout_s,
        created_at=timestamp,
        evaluations=result.evaluations,
        incumbents=result.incumbents,
        best=result.best,
        stats=result.stats,
    )
