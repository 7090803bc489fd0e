"""Shared fixtures for the search suite.

``smoke_space`` is the canonical search smoke scenario (also used by
``tests/sim/test_bounds.py`` and the CI smoke job): mnist on four
Piz Daint nodes at 10% scale, where several cacheless Fig 8 policies
are provably prunable by the analytic bound.
"""

import pytest

from repro.api import Scenario, Session
from repro.search import SearchSpace
from repro.sweep import InMemoryBackend


@pytest.fixture
def smoke_base() -> Scenario:
    """Base scenario of the smoke space (policy is a placeholder)."""
    return Scenario(
        dataset="mnist",
        system="piz_daint:4",
        policy="naive",
        batch_size=16,
        num_epochs=4,
        scale=0.1,
    )


@pytest.fixture
def smoke_space(smoke_base) -> SearchSpace:
    """The Fig 8 policy lineup over the smoke base (9 candidates)."""
    return SearchSpace(base=smoke_base)


@pytest.fixture
def mem_session() -> Session:
    """A serial session with a private in-memory result cache."""
    return Session(cache=InMemoryBackend())
