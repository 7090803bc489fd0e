"""Execution-knob equivalence matrix: tiling x reaching the seed via ``run_seed``.

``tile_rows`` and ``run_seed`` from a simulator on another seed are
execution paths with a bitwise-identity contract: no combination may change a
single simulated number. This suite pins every registered policy spec
(canonical names plus the lineup variants) against the frozen seed
engine (``tests/sim/reference_engine.py``) across the full knob cross
product.
"""

import dataclasses
import json

import pytest

from repro.api import FIG8_POLICIES, POLICIES, TABLE1_POLICIES, make_policy
from repro.datasets import DatasetModel
from repro.errors import PolicyError
from repro.perfmodel import sec6_cluster
from repro.sim import SimulationConfig, Simulator

from .reference_engine import ReferenceSimulator

ALL_POLICY_SPECS = sorted({*POLICIES.names(), *FIG8_POLICIES, *TABLE1_POLICIES})


def _config() -> SimulationConfig:
    ds = DatasetModel("knob-matrix", 1_200, 120.0 / 1_200, 0.02)
    return SimulationConfig(
        dataset=ds,
        system=sec6_cluster(),
        batch_size=8,
        num_epochs=2,
        seed=7,
    )


def _outcome(run) -> "str | tuple":
    """Canonical JSON of a run, or the PolicyError it raised."""
    try:
        return json.dumps(run().to_dict(), sort_keys=True)
    except PolicyError as exc:
        return ("PolicyError", str(exc))


@pytest.fixture(scope="module")
def reference():
    """One frozen-engine outcome per policy spec."""
    config = _config()
    sim = ReferenceSimulator(config)
    return {
        spec: _outcome(lambda: sim.run(make_policy(spec)))
        for spec in ALL_POLICY_SPECS
    }


@pytest.mark.parametrize("shared", [False, True], ids=["direct", "seed-shared"])
@pytest.mark.parametrize("tile_rows", [None, 3], ids=["untiled", "tiled"])
@pytest.mark.parametrize("spec", ALL_POLICY_SPECS)
def test_knob_matrix_bitwise_identical(reference, spec, tile_rows, shared):
    config = _config()
    policy = make_policy(spec)
    if shared:
        # Reach the target seed through a simulator on another seed,
        # exercising run_seed's sibling-simulator path.
        base = Simulator(dataclasses.replace(config, seed=3), tile_rows=tile_rows)
        try:
            base.run(policy)  # prime the base seed's caches first
        except PolicyError:
            pass
        run = lambda: base.run_seed(policy, config.seed)
    else:
        sim = Simulator(config, tile_rows=tile_rows)
        run = lambda: sim.run(policy)
    assert _outcome(run) == reference[spec]
