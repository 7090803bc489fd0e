"""Tiled streaming execution is bitwise-identical to untiled execution.

The engine's memory-tiled execute phase (``Simulator(tile_rows=...)``)
materializes each epoch in worker-row bands instead of one full
``(N, L)`` matrix. The contract is absolute: for **every** registered
policy spec and **every** tile height — single-row, a ragged height
that does not divide N, exactly N, and larger than N — the
``SimulationResult`` JSON must be byte-equal to the untiled run, and
the PolicyError-parity cases (oversized LBANN) must raise the same
message with the same epoch/worker indices.

Also covers the reuse the tiling rides on: per-policy plan scalars
computed once and kept on the prepared policy, per-band size gathers
shared across a ``run_many`` comparison, and a shared gather staying
read-only.
"""

import gc
import json
import weakref

import numpy as np
import pytest

from repro.api import FIG8_POLICIES, POLICIES, TABLE1_POLICIES, make_policy
from repro.datasets import DatasetModel
from repro.errors import ConfigurationError, PolicyError
from repro.perfmodel import sec6_cluster
from repro.sim import ScenarioContext, SimulationConfig, Simulator, plan_scalars
from repro.sim import engine as engine_mod
from repro.sim.engine import SizeBand, band_rows
from repro.sweep import ScenarioGrid, SweepRunner
from repro.units import TB

#: Every registered policy spec: canonical names plus the lineup
#: variants (``deepio:opportunistic``, ``lbann:preloading``, ...).
ALL_POLICY_SPECS = sorted(
    {*POLICIES.names(), *FIG8_POLICIES, *TABLE1_POLICIES}
)

#: N=8 workers; 7 leaves a ragged final band, 1 is the worst case,
#: 8 covers exactly-N, 64 covers tile_rows > N.
TILE_HEIGHTS = (1, 7, 8, 64)


def _config(name: str, **kw) -> SimulationConfig:
    total_mb = kw.pop("total_mb", 200.0)
    n_samples = kw.pop("n_samples", 2_000)
    ds = DatasetModel(name, n_samples, total_mb / n_samples, 0.02)
    base = dict(
        dataset=ds,
        system=sec6_cluster(num_workers=8),
        batch_size=8,
        num_epochs=3,
        seed=11,
    )
    base.update(kw)
    return SimulationConfig(**base)


SCENARIOS = {
    "default": _config("tiling-default"),
    "oversized": _config(
        "tiling-oversized", total_mb=1.5 * TB, n_samples=4_000, num_epochs=2
    ),
}


def _run(sim: Simulator, policy) -> "str | tuple":
    """A result's canonical JSON, or the PolicyError it raised."""
    try:
        return json.dumps(sim.run(policy).to_dict(), sort_keys=True)
    except PolicyError as exc:
        return ("PolicyError", str(exc))


@pytest.fixture(scope="module")
def untiled_runs():
    """Per scenario: the shared context and every spec's untiled outcome."""
    runs = {}
    for key, config in SCENARIOS.items():
        ctx = ScenarioContext(config)
        sim = Simulator(config, ctx=ctx)
        runs[key] = (ctx, {spec: _run(sim, make_policy(spec)) for spec in ALL_POLICY_SPECS})
    return runs


@pytest.mark.parametrize("tile_rows", TILE_HEIGHTS)
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
@pytest.mark.parametrize("spec", ALL_POLICY_SPECS)
def test_tiled_bitwise_identical(untiled_runs, scenario, spec, tile_rows):
    ctx, expected = untiled_runs[scenario]
    sim = Simulator(SCENARIOS[scenario], tile_rows=tile_rows, ctx=ctx)
    assert _run(sim, make_policy(spec)) == expected[spec]


def test_policy_error_parity_includes_indices(untiled_runs):
    """Oversized LBANN raises identically — same epoch/worker — tiled."""
    _, expected = untiled_runs["oversized"]
    outcome = expected["lbann:dynamic"]
    assert isinstance(outcome, tuple), "oversized LBANN must be unsupported"
    tiled = Simulator(SCENARIOS["oversized"], tile_rows=1)
    assert _run(tiled, make_policy("lbann:dynamic")) == outcome


def test_invalid_tile_rows_rejected():
    config = SCENARIOS["default"]
    for bad in (0, -1):
        with pytest.raises(ConfigurationError):
            Simulator(config, tile_rows=bad)
    with pytest.raises(ConfigurationError):
        SweepRunner(tile_rows=0)


def test_epoch_plan_tiles_cover_all_rows():
    """Tile bands partition the worker rows in order, ragged tail included."""
    config = SCENARIOS["default"]
    sim = Simulator(config, tile_rows=3)
    prep = make_policy("staging_buffer").prepare(sim.ctx)
    plan = sim.plan_epoch(prep, 0)
    n = sim.ctx.num_workers
    step = band_rows(n, sim.ctx.samples_per_worker_per_epoch, 3)
    tiles = [plan.tile(slice(start, min(start + step, n))) for start in range(0, n, step)]
    assert [(t.rows.start, t.rows.stop) for t in tiles] == [(0, 3), (3, 6), (6, 8)]
    stitched = np.vstack([t.ids for t in tiles])
    np.testing.assert_array_equal(stitched, plan.ids)
    sizes = np.vstack([t.sizes_mb for t in tiles])
    np.testing.assert_array_equal(sizes, sim.ctx.sizes_mb[plan.ids])


# -- plan scalars and shared gathers ----------------------------------------


def test_plan_scalars_computed_once_per_prepared_policy(monkeypatch):
    """The first plan stores the scalars on the policy; later plans reuse them."""
    config = SCENARIOS["default"]
    computed = []
    compute = engine_mod.plan_scalars
    monkeypatch.setattr(
        engine_mod, "plan_scalars", lambda prep, ctx: computed.append(prep) or compute(prep, ctx)
    )
    sim = Simulator(config)
    prep = make_policy("nopfs").prepare(sim.ctx)
    assert prep.scalars is None
    for epoch in range(config.num_epochs):
        sim.plan_epoch(prep, epoch)
    assert len(computed) == 1 and computed[0] is prep
    assert prep.scalars == plan_scalars(prep, sim.ctx)


def test_plan_scalars_match_per_epoch_values():
    """The cold/warm phases reproduce the per-epoch arithmetic."""
    config = SCENARIOS["default"]
    ctx = ScenarioContext(config)
    system = config.system
    for spec in ("naive", "nopfs", "perfect", "locality_aware"):
        prep = make_policy(spec).prepare(ctx)
        scalars = plan_scalars(prep, ctx)
        for epoch in range(config.num_epochs):
            if prep.ideal:
                fraction = 0.0
            elif epoch < prep.warm_epochs:
                fraction = 1.0
            elif prep.warm_pfs_fraction is not None:
                fraction = float(prep.warm_pfs_fraction)
            elif not prep.pfs_in_warm:
                fraction = 0.0
            else:
                fraction = scalars.uncovered_fraction
            phase = scalars.phase(epoch < prep.warm_epochs)
            assert phase.pfs_fraction == fraction
            assert phase.gamma == float(
                system.pfs.effective_gamma(ctx.num_workers, fraction)
            )


def test_finished_pass_releases_its_prepared_policies():
    """A simulator kept across passes (a multi-seed batch's base) holds none."""
    from repro.sim import NoPFSPolicy

    sim = Simulator(SCENARIOS["default"])
    preps = []

    class Recording(NoPFSPolicy):
        def prepare(self, ctx):
            prep = super().prepare(ctx)
            preps.append(weakref.ref(prep))
            return prep

    sim.run_many([Recording(), make_policy("naive")])
    gc.collect()
    assert len(preps) == 1 and preps[0]() is None


def test_run_many_shares_epoch_size_gathers(gathers):
    """A multi-policy comparison gathers each epoch's sizes only once."""
    config = SCENARIOS["default"]
    sim = Simulator(config)
    policies = [make_policy(s) for s in ("naive", "staging_buffer", "nopfs")]
    results = sim.run_many(policies)
    assert len(results) == len(policies)
    # Each epoch is one band here: one gather per epoch, used by every
    # policy's tile.
    n = sim.ctx.num_workers
    assert gathers.shared() == [(epoch, 0, n) for epoch in range(config.num_epochs)]
    assert len(gathers.tiles) == len(policies) * config.num_epochs


def test_shared_matrices_are_read_only():
    """A band's shared gather — sizes, compute totals, write times — is read-only."""
    config = SCENARIOS["default"]
    sim = Simulator(config)
    prep = make_policy("naive").prepare(sim.ctx)
    plan = sim.plan_epoch(prep, 0)
    rows = slice(0, sim.ctx.num_workers)
    shared = SizeBand(sim.ctx.sizes_mb[plan.canonical[rows]], config)
    tile = plan.tile(rows, shared)
    assert tile.shared is shared and tile.sizes_mb is shared.sizes_mb
    for matrix in (tile.sizes_mb, shared.comp_totals, shared.write_s):
        with pytest.raises(ValueError):
            matrix[0, 0] = 0.0


def test_sweep_runner_tile_rows_matches_untiled():
    """The plumbed knob yields byte-equal results through the sweep layer."""
    from repro.sim import NaivePolicy, NoPFSPolicy

    ds = DatasetModel("tiling-sweep", 1_000, 0.1, 0.02)
    grid = ScenarioGrid(
        datasets=[ds],
        systems=[sec6_cluster(num_workers=4)],
        policies=[NaivePolicy(), NoPFSPolicy()],
        batch_sizes=[8],
        epoch_counts=[2],
    )
    plain = SweepRunner().run(grid)
    tiled = SweepRunner(tile_rows=3).run(grid)
    assert set(plain.results) == set(tiled.results)
    for tag, result in plain.results.items():
        assert json.dumps(tiled.results[tag].to_dict(), sort_keys=True) == json.dumps(
            result.to_dict(), sort_keys=True
        )
