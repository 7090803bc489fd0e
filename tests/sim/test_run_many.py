"""Epoch-major ``run_many`` is bitwise-identical to per-policy ``run``.

The sharing contract: :meth:`Simulator.run_many_outcomes` iterates
epochs outermost so each epoch's permutation and size gather are
materialized once and shared by every policy, while the context keeps
only one epoch permutation resident. Every policy draws from the same
per-``(epoch, worker)`` noise streams. This suite pins, for every
registered policy spec:

* byte-identical results (or identical ``PolicyError`` messages)
  against a fresh per-policy ``Simulator.run``;
* the sharing counters — the epoch-major loop builds each permutation
  once (``E`` builds, not ``E x P``), on top of the ``E`` NoPFS's
  frequency scan builds at prepare time;
* the resident permutation slot drains afterwards (``held_epoch is
  None``).

A second part pins how many permutations ``run`` (policy by policy), the
reference engine and the lineup's lower bounds build on the search-bb
scenario.
"""

import json

import pytest

from repro.api import FIG8_POLICIES, POLICIES, TABLE1_POLICIES, Scenario, make_policy
from repro.datasets import DatasetModel
from repro.errors import PolicyError
from repro.perfmodel import sec6_cluster
from repro.sim import ScenarioContext, SimulationConfig, Simulator
from repro.sim.bounds import policy_lower_bound
from repro.sim.result import SimulationResult
from repro.units import TB

from .reference_engine import ReferenceSimulator

#: Every registered policy spec (canonical names plus lineup variants),
#: mirroring the engine-equivalence matrix.
ALL_POLICY_SPECS = sorted(
    {*POLICIES.names(), *FIG8_POLICIES, *TABLE1_POLICIES}
)


def _config(name: str, **kw) -> SimulationConfig:
    total_mb = kw.pop("total_mb", 200.0)
    n_samples = kw.pop("n_samples", 2_000)
    ds = DatasetModel(name, n_samples, total_mb / n_samples, 0.02)
    base = dict(
        dataset=ds,
        system=sec6_cluster(),
        batch_size=8,
        num_epochs=3,
        seed=7,
    )
    base.update(kw)
    return SimulationConfig(**base)


#: Two corners: the default noisy scenario (every policy simulates) and
#: the oversized one (LBANN overflow — the PolicyError slots must carry
#: the same error the per-policy run raises, without disturbing peers).
SCENARIOS = {
    "default": _config("rm-default"),
    "oversized": _config(
        "rm-oversized",
        total_mb=1.5 * TB,
        n_samples=4_000,
        num_epochs=2,
        seed=11,
    ),
}


def _canonical(outcome):
    """An outcome's canonical JSON, or its PolicyError as a tuple."""
    if isinstance(outcome, PolicyError):
        return ("PolicyError", str(outcome))
    return json.dumps(outcome.to_dict(), sort_keys=True)


def _expected(config: SimulationConfig, spec: str):
    """What a fresh single-policy simulator produces for ``spec``."""
    try:
        result = Simulator(config).run(make_policy(spec))
        return json.dumps(result.to_dict(), sort_keys=True)
    except PolicyError as exc:
        return ("PolicyError", str(exc))


@pytest.fixture(scope="module")
def shared():
    """One epoch-major batch per scenario, plus per-policy oracles."""
    data = {}
    for key, config in SCENARIOS.items():
        sim = Simulator(config)
        policies = [make_policy(spec) for spec in ALL_POLICY_SPECS]
        outcomes = sim.run_many_outcomes(policies)
        assert len(outcomes) == len(policies)
        data[key] = {
            "sim": sim,
            "policies": policies,
            "outcomes": dict(zip(ALL_POLICY_SPECS, outcomes)),
            "expected": {
                spec: _expected(config, spec) for spec in ALL_POLICY_SPECS
            },
            "builds": sim.ctx.perm_builds,
        }
    return data


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
@pytest.mark.parametrize("spec", ALL_POLICY_SPECS)
def test_bitwise_identical_to_per_policy_run(shared, scenario, spec):
    entry = shared[scenario]
    assert _canonical(entry["outcomes"][spec]) == entry["expected"][spec]


def test_oversized_exercises_error_slots(shared):
    """The oversized batch must actually contain PolicyError slots."""
    outcomes = shared["oversized"]["outcomes"].values()
    assert any(isinstance(o, PolicyError) for o in outcomes)
    assert any(isinstance(o, SimulationResult) for o in outcomes)


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_permutations_built_once_per_epoch(shared, scenario):
    """2E builds for the whole batch — not E x P (the policy-major cost).

    The prepares build E: NoPFS's frequency scan reads every epoch (the
    placement builders before it read epoch 0, which the scan reuses)
    and keeps none, leaving epoch E-1 resident. The epoch-major loop
    then builds each epoch once for every policy: E more.
    """
    entry = shared[scenario]
    assert entry["builds"] == 2 * SCENARIOS[scenario].num_epochs


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_rolling_slots_released(shared, scenario):
    assert shared[scenario]["sim"].ctx.held_epoch is None


def test_size_gathers_shared_across_policies(gathers):
    """The band loop gathers each epoch's one band once for the lineup."""
    config = SCENARIOS["default"]
    sim = Simulator(config)
    sim.run_many_outcomes([make_policy(spec) for spec in ALL_POLICY_SPECS])
    n = sim.ctx.num_workers
    assert gathers.shared() == [(epoch, 0, n) for epoch in range(config.num_epochs)]
    used = sum(shared is not None for *_, shared in gathers.tiles)
    assert used > config.num_epochs


def test_run_many_dict_omits_unsupported():
    """``run_many`` keeps the historical dict shape over the new core."""
    config = SCENARIOS["oversized"]
    policies = [make_policy(spec) for spec in ALL_POLICY_SPECS]
    outcomes = Simulator(config).run_many_outcomes(
        [make_policy(spec) for spec in ALL_POLICY_SPECS]
    )
    results = Simulator(config).run_many(policies)
    supported = {
        policy.name: outcome
        for policy, outcome in zip(policies, outcomes)
        if isinstance(outcome, SimulationResult)
    }
    assert set(results) == set(supported)
    for name, result in results.items():
        assert _canonical(result) == _canonical(supported[name])


# -- permutation builds per entry point --------------------------------------

#: The search-bb benchmark scenario (imagenet1k at scale 0.1 on 256
#: Piz Daint GPUs, B=32, E=3).
SEARCH_BB = Scenario(
    dataset="imagenet1k", system="piz_daint:256", policy="naive",
    batch_size=32, num_epochs=3, scale=0.1, seed=0,
).build_config()

E = SEARCH_BB.num_epochs

#: Permutations a fresh ``Simulator.run`` builds. Stream rewriters read
#: only epoch 0 (their placement) or nothing at all; NoPFS's frequency
#: scan reads every epoch before the loop reads them again — the one 2E
#: exception.
RUN_BUILDS = {
    "naive": E,
    "staging_buffer": E,
    "deepio:ordered": E,
    "lbann:dynamic": E,
    "lbann:preloading": E,
    "deepio:opportunistic": 1,
    "locality_aware": 1,
    "parallel_staging": 0,
    "nopfs": 2 * E,
}


@pytest.mark.parametrize("spec", FIG8_POLICIES)
def test_run_permutation_builds(spec):
    sim = Simulator(SEARCH_BB)
    sim.run(make_policy(spec))
    assert sim.ctx.perm_builds == RUN_BUILDS[spec]
    assert sim.ctx.held_epoch is None


def test_reference_engine_builds_once_per_epoch():
    """The frozen reference reads worker rows; the resident slot serves them."""
    reference = ReferenceSimulator(SEARCH_BB)
    reference.run(make_policy("naive"))
    assert reference.ctx.perm_builds == E


def test_lineup_bounds_share_worker_totals():
    """Bounds over the Fig 8 lineup on one context build at most 2E."""
    ctx = ScenarioContext(SEARCH_BB)
    for spec in FIG8_POLICIES:
        policy_lower_bound(SEARCH_BB, make_policy(spec), ctx)
    assert ctx.perm_builds <= 2 * E
