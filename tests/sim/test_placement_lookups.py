"""Sort-free placement lookups against the loops they replaced.

:meth:`PreparedPolicy.classes_matrix` answers each worker row through
a scratch map of length ``F``; the reference engine's per-worker path,
:meth:`WorkerLookup.classes_of`, binary-searches. The scratch scatter
relies on each worker's placement ids being unique, which every
registered policy is checked for here. :meth:`CachePlan.best_class_map`
and :meth:`CachePlan.holder_counts` are pinned against the
``np.minimum.at`` / ``np.add.at`` loops they replaced, kept below as
references.
"""

import numpy as np
import pytest

from repro.api import FIG8_POLICIES, POLICIES, TABLE1_POLICIES, make_policy
from repro.core import CachePlan, WorkerPlacement
from repro.datasets import DatasetModel
from repro.errors import PolicyError
from repro.perfmodel import lassen, piz_daint, sec6_cluster
from repro.sim import ScenarioContext, SimulationConfig

ALL_POLICY_SPECS = sorted({*POLICIES.names(), *FIG8_POLICIES, *TABLE1_POLICIES})


def _config(name, system, n_samples, total_mb, epochs=3):
    return SimulationConfig(
        dataset=DatasetModel(name, n_samples, total_mb / n_samples, 0.02),
        system=system,
        batch_size=8,
        num_epochs=epochs,
        seed=5,
    )


#: Two-tier, two-tier-with-slow-network and one-tier systems; the
#: lassen scenario is large enough that placements spill to tier 1.
SCENARIOS = {
    "sec6": _config("lookups-sec6", sec6_cluster(num_workers=8), 2_000, 200.0),
    "lassen": _config("lookups-lassen", lassen(num_workers=6), 1_800, 4e6),
    "piz_daint": _config("lookups-piz", piz_daint(num_workers=5), 1_500, 150.0),
}


@pytest.fixture(scope="module")
def prepared():
    """(scenario, spec, ctx, prep) for every spec a scenario supports."""
    out = []
    for key, config in SCENARIOS.items():
        ctx = ScenarioContext(config)
        for spec in ALL_POLICY_SPECS:
            try:
                prep = make_policy(spec).prepare(ctx)
            except PolicyError:
                continue
            out.append((key, spec, ctx, prep))
    return out


def _placed(prepared):
    return [entry for entry in prepared if entry[3].plan is not None]


def test_placement_ids_unique_and_in_range(prepared):
    checked = 0
    for key, spec, ctx, prep in _placed(prepared):
        f = ctx.config.dataset.num_samples
        for placement in prep.plan.placements:
            ids = placement.cached_ids
            assert np.unique(ids).size == ids.size, (key, spec, placement.worker)
            assert ids.size == 0 or (ids.min() >= 0 and ids.max() < f), (key, spec)
            checked += 1
    assert checked >= 100
    specs = {spec for _, spec, _, _ in _placed(prepared)}
    assert {"nopfs", "deepio", "lbann", "locality_aware"} <= {
        s.split(":")[0] for s in specs
    }


def test_lookups_share_placement_arrays(prepared):
    """A prepared policy holds each cached id once: lookups view the placement."""
    shared = 0
    for key, spec, _, prep in _placed(prepared):
        for lookup, placement in zip(prep.lookups, prep.plan.placements, strict=True):
            assert len(lookup.class_ids) == len(placement.class_ids), (key, spec)
            for ids, placed in zip(lookup.class_ids, placement.class_ids):
                if len(placed):
                    assert np.shares_memory(ids, placed), (key, spec, placement.worker)
                    shared += 1
    assert shared >= 100


@pytest.mark.parametrize("tile_rows", [1, 3, None])
def test_classes_matrix_equals_classes_of(prepared, tile_rows):
    rng = np.random.default_rng(3)
    for key, spec, ctx, prep in _placed(prepared):
        n = ctx.num_workers
        step = n if tile_rows is None else tile_rows
        f = ctx.config.dataset.num_samples
        # The warm stream, plus random ids covering uncached samples.
        queries = (ctx.epoch_matrix(1), rng.integers(0, f, size=(n, 97)))
        for ids in queries:
            for start in range(0, n, step):
                band = ids[start : start + step]
                got = prep.classes_matrix(band, worker_offset=start)
                expected = np.stack(
                    [prep.lookups[start + i].classes_of(row) for i, row in enumerate(band)]
                )
                assert got.dtype == np.int8
                np.testing.assert_array_equal(got, expected, err_msg=f"{key} {spec}")
    # Repeated calls see a clean scratch map.
    key, spec, ctx, prep = _placed(prepared)[0]
    ids = ctx.epoch_matrix(1)
    np.testing.assert_array_equal(prep.classes_matrix(ids), prep.classes_matrix(ids))


def _best_class_map_ufunc(plan):
    """The ``np.minimum.at`` loop ``best_class_map`` used to run."""
    best = np.full(plan.num_samples, np.iinfo(np.int8).max, dtype=np.int8)
    seen = np.zeros(plan.num_samples, dtype=bool)
    for placement in plan.placements:
        for class_idx, ids in enumerate(placement.class_ids):
            if len(ids):
                idx = np.asarray(ids)
                np.minimum.at(best, idx, np.int8(class_idx))
                seen[idx] = True
    best[~seen] = -1
    return best


def _holder_counts_ufunc(plan):
    """The ``np.add.at`` loop ``holder_counts`` used to run."""
    counts = np.zeros(plan.num_samples, dtype=np.int32)
    for placement in plan.placements:
        ids = placement.cached_ids
        if ids.size:
            np.add.at(counts, ids, 1)
    return counts


def _random_plan(seed, workers=7, f=300, classes=3):
    """Overlapping placements: samples held by several workers/classes."""
    rng = np.random.default_rng(seed)
    placements = []
    for w in range(workers):
        chosen = rng.permutation(f)[: rng.integers(0, f // 2)]
        cuts = np.sort(rng.integers(0, chosen.size + 1, size=classes - 1))
        placements.append(WorkerPlacement(w, tuple(np.split(chosen, cuts))))
    return CachePlan(placements, f, classes)


def test_plan_maps_match_ufunc_at_loops(prepared):
    plans = [prep.plan for *_, prep in _placed(prepared)]
    plans += [_random_plan(seed) for seed in range(5)]
    plans.append(CachePlan([WorkerPlacement(0, ())], 10, 2))
    for plan in plans:
        best = plan.best_class_map()
        holders = plan.holder_counts()
        assert best.dtype == np.int8 and holders.dtype == np.int32
        np.testing.assert_array_equal(best, _best_class_map_ufunc(plan))
        np.testing.assert_array_equal(holders, _holder_counts_ufunc(plan))
