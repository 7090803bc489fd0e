"""A stream-rewriting policy with nothing to stream is unsupported.

Parallel staging and DeepIO opportunistic iterate only what their
memory tier holds. With that tier emptied every worker's stream set is
empty, so both policies raise :class:`~repro.errors.PolicyError` in
``prepare`` — the paper's "Does not support" — and a sweep or search
records the cell as unsupported instead of aborting. DeepIO
opportunistic's one-epoch run never iterates the set and still runs.
"""

import math

import pytest

from repro.api import Scenario, Session
from repro.errors import PolicyError
from repro.search import KnobDomain, SearchSpace, run_search
from repro.sim import ScenarioContext, policy_lower_bound
from repro.sweep import InMemoryBackend

#: Piz Daint with a zero-capacity RAM tier.
RAM0 = {"name": "piz_daint:8", "class_capacities_mb": [0.0]}
LINEUP = ("pytorch", "parallel_staging", "deepio:opportunistic", "nopfs")
EMPTY = ("parallel_staging", "deepio:opportunistic")


def scenario(policy, system=RAM0, num_epochs=2):
    return Scenario(
        dataset="imagenet1k",
        system=system,
        policy=policy,
        batch_size=32,
        num_epochs=num_epochs,
        scale=0.01,
    )


@pytest.mark.parametrize("policy", EMPTY)
def test_prepare_raises_policy_error_and_bounds_to_inf(policy):
    s = scenario(policy)
    config = s.build_config()
    with pytest.raises(PolicyError, match="worker 0"):
        s.build_policy().prepare(ScenarioContext(config))
    assert policy_lower_bound(config, s.build_policy()) == math.inf


def test_one_epoch_opportunistic_still_runs():
    """Its only epoch reads the permutation; the empty set is never
    iterated, and the result is the one it always was."""
    result = Session().run(scenario("deepio:opportunistic", num_epochs=1))
    assert result.total_time_s == 10.403160948096941
    with pytest.raises(PolicyError):
        Session().run(scenario("parallel_staging", num_epochs=1))


@pytest.mark.parametrize("jobs", [1, 2])
def test_sweep_records_unsupported_cells_and_keeps_siblings(jobs):
    cells = [scenario(policy) for policy in LINEUP]
    outcome = Session(jobs=jobs).sweep(cells)
    by_policy = dict(zip(LINEUP, cells))
    assert set(outcome.unsupported) == {by_policy[p].fingerprint() for p in EMPTY}
    for policy in ("pytorch", "nopfs"):
        solo = Session().run(scenario(policy))
        assert outcome.get(by_policy[policy].fingerprint()).to_dict() == solo.to_dict()


@pytest.mark.parametrize("driver", ["bb", "random"])
def test_search_over_an_empty_ram_tier_completes(driver):
    space = SearchSpace(
        base=scenario("nopfs"),
        policies=LINEUP,
        knobs=(KnobDomain("system", ("piz_daint:8", RAM0)),),
    )
    manifest = run_search(space, driver=driver, session=Session(cache=InMemoryBackend()))
    assert manifest.stats.status == "solved"
    assert manifest.best is not None
    for record in manifest.evaluations:
        if record.scenario.system.class_capacities_mb == (0.0,):
            empty = record.scenario.policy.name in EMPTY
            assert (record.objective_s is None) == empty
