"""The engine's per-epoch fetch table against per-sample resolution.

:class:`~repro.sim.engine.FetchTable` replaces resolving every sample
with one gather from the ``(C+1)**2`` (local tier, remote tier) pairs.
These tests keep the per-sample path the engine used before as the
reference — :func:`~repro.perfmodel.resolve_fetch` plus the PFS latency
on PFS-sourced fetches — and require the table to match it bitwise,
ties included.
"""

import numpy as np
import pytest

from repro.core import CachePlan, WorkerPlacement
from repro.datasets import mnist
from repro.errors import ConfigurationError, PolicyError
from repro.perfmodel import Source, lassen, piz_daint, resolve_fetch, sec6_cluster
from repro.sim import SimulationConfig, Simulator
from repro.sim.engine import FetchTable
from repro.sim.policies import Policy, PreparedPolicy

from .reference_engine import ReferenceSimulator

#: Systems with one and two cache tiers; the sec6 variant's network rate
#: equals tier 0's read rate, so local and remote tie on tier 0.
SYSTEMS = {
    "sec6_cluster": sec6_cluster(),
    "lassen": lassen(),
    "piz_daint": piz_daint(),
    "sec6_tied_network": sec6_cluster().replace(network_mbps=21_760.0),
}


def _per_sample(sizes, local, remote, system, pfs_share, pfs_latency):
    """The engine's per-sample path before the table: resolve, add latency."""
    res = resolve_fetch(sizes, local, remote, system, pfs_share)
    fetch = res.fetch_times
    if pfs_latency > 0:
        fetch = fetch + pfs_latency * (res.sources == int(Source.PFS))
    return fetch, res.sources


def _shares(system):
    """PFS shares below, between, above and equal to every tier rate."""
    rates = system.hierarchy.read_per_thread()
    remote = np.minimum(system.network_mbps, rates)
    return [0.0, 1.0, 385.0, 1e6, *rates.tolist(), *remote.tolist()]


@pytest.mark.parametrize("name", sorted(SYSTEMS))
@pytest.mark.parametrize("pfs_latency", [0.0, 0.0125])
def test_table_equals_per_sample_resolution(name, pfs_latency):
    system = SYSTEMS[name]
    tiers = system.hierarchy.num_classes
    rng = np.random.default_rng(7)
    shape = (6, 257)
    sizes = rng.lognormal(-1.5, 0.6, size=shape)
    local = rng.integers(-1, tiers, size=shape).astype(np.int8)
    remote = rng.integers(-1, tiers, size=shape).astype(np.int8)
    for share in _shares(system):
        table = FetchTable.build(system, share, pfs_latency)
        fetch, sources = table.resolve(sizes, local, remote)
        ref_fetch, ref_sources = _per_sample(
            sizes, local, remote, system, share, pfs_latency
        )
        assert sources.dtype == np.int8
        np.testing.assert_array_equal(sources, ref_sources)
        sourced = ref_sources != int(Source.NONE)
        assert fetch[sourced].tobytes() == ref_fetch[sourced].tobytes()
        assert (int(Source.NONE) in table.sources) == (share == 0.0)


def test_ties_follow_resolve_fetch():
    """Equal rates prefer local over remote over PFS, as resolve_fetch does."""
    system = SYSTEMS["sec6_tied_network"]
    rate = float(system.hierarchy.read_per_thread()[0])
    table = FetchTable.build(system, rate, 0.0)
    local = np.array([[0, -1, -1]], dtype=np.int8)
    remote = np.array([[0, 0, -1]], dtype=np.int8)
    _, sources = table.resolve(np.ones((1, 3)), local, remote)
    assert sources.tolist() == [[int(Source.LOCAL), int(Source.REMOTE), int(Source.PFS)]]


class TestLatencyColumn:
    """The table's latency column, formerly ``kernels.add_pfs_latency``."""

    def test_zero_latency_skips_the_add(self):
        table = FetchTable.build(sec6_cluster(), 385.0, 0.0)
        assert table.latency is None
        sizes = np.full((1, 2), 0.5)
        cls = np.full((1, 2), -1, dtype=np.int8)
        fetch, _ = table.resolve(sizes, cls, cls)
        np.testing.assert_array_equal(fetch, sizes / 385.0)

    def test_latency_hits_pfs_only(self):
        system = sec6_cluster()
        table = FetchTable.build(system, 1.0, 0.25)
        local = np.array([[-1, 0, -1]], dtype=np.int8)
        remote = np.full((1, 3), -1, dtype=np.int8)
        fetch, sources = table.resolve(np.ones((1, 3)), local, remote)
        assert sources.tolist() == [[int(Source.PFS), int(Source.LOCAL), int(Source.PFS)]]
        local_rate = system.hierarchy.read_per_thread()[0]
        np.testing.assert_array_equal(fetch, [[1.25, 1.0 / local_rate, 1.25]])


# -- engine-level contracts --------------------------------------------------


def _config(system=None, epochs=2):
    return SimulationConfig(
        dataset=mnist(1).scaled(0.05),
        system=system or sec6_cluster(num_workers=4),
        batch_size=8,
        num_epochs=epochs,
        seed=3,
    )


class _Placed(Policy):
    """Caches each worker's epoch-1 ids in one class, PFS-free when warm.

    Each sample is read by one worker per epoch, so workers from
    ``uncovered_from`` on, which cache nothing, have no source at all
    for their epoch-1 samples.
    """

    name = "placed"

    def __init__(self, class_idx=0, uncovered_from=None):
        self.class_idx = class_idx
        self.uncovered_from = uncovered_from

    def prepare(self, ctx):
        placements = []
        for w in range(ctx.num_workers):
            ids = np.unique(ctx.worker_epoch_ids(w, 1))
            if self.uncovered_from is not None and w >= self.uncovered_from:
                ids = ids[:0]
            class_ids = [np.empty(0, dtype=np.int64)] * (self.class_idx + 1)
            class_ids[self.class_idx] = ids.astype(np.int64)
            placements.append(WorkerPlacement(w, tuple(class_ids)))
        plan = CachePlan(placements, ctx.config.dataset.num_samples, self.class_idx + 1)
        return PreparedPolicy(name=self.name, plan=plan, pfs_in_warm=False)


@pytest.mark.parametrize("tile_rows", [None, 1, 3])
def test_unsourced_sample_raises_todays_policy_error(tile_rows):
    """With a zero PFS share the first uncovered worker is named."""
    config = _config()
    policy = _Placed(uncovered_from=2)
    with pytest.raises(PolicyError) as reference:
        ReferenceSimulator(config).run(policy)
    with pytest.raises(PolicyError) as engine:
        Simulator(config, tile_rows=tile_rows).run(policy)
    assert str(engine.value) == str(reference.value)
    assert "(epoch 1, worker 2)" in str(engine.value)


def test_covered_pfs_free_policy_matches_reference():
    """A PFS-free warm table (it holds a NONE pair) still runs when
    every sample has a source."""
    config = _config()
    new = Simulator(config, tile_rows=3).run(_Placed())
    ref = ReferenceSimulator(config).run(_Placed())
    assert new.to_dict() == ref.to_dict()


def test_out_of_range_class_label_raises():
    """A label >= C fails once per prepared policy instead of reading
    the next pair's table entry."""
    system = piz_daint(num_workers=4)
    assert system.hierarchy.num_classes == 1
    with pytest.raises(ConfigurationError, match="caches in class 1\\+; system has 1 tiers"):
        Simulator(_config(system)).run(_Placed(class_idx=1))
