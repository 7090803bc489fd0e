"""Band-major lineup execution: each band's shared inputs are built once.

:meth:`Simulator.execute_epoch` prices an epoch's whole lineup with the
row bands outermost. Noise draws are keyed ``("noise", epoch, worker)``,
never by policy, so policies whose band reads every sample from the
same sources draw one multiplier matrix between them, and count those
sources once; the band's clairvoyant-stream size gather (made only when
some entry reads that stream), its cold-epoch availability, the byte
totals over that gather and the noise stream states are likewise built
once. This suite pins those counts, the derived band height, the
per-band rewritten streams and the error path — and that every result
stays bitwise equal to the policy's solo run.
"""

import json
import threading

import numpy as np
import pytest

from repro.api import make_policy
from repro.core import CachePlan, WorkerPlacement
from repro.datasets import DatasetModel
from repro.errors import ConfigurationError, PolicyError
from repro.perfmodel import Source, sec6_cluster
from repro.sim import NoiseConfig, ScenarioContext, SimulationConfig, Simulator, kernels
from repro.sim import engine as engine_mod
from repro.sim import noise as noise_mod
from repro.sim.engine import BAND_ELEMENTS, band_rows
from repro.sim.policies import Policy, PreparedPolicy

from . import test_fetch_table

#: Policies that read every sample from the PFS in every epoch.
ALL_PFS = ("naive", "staging_buffer", "pytorch")

N = 4


def _config(
    num_samples=N * 8 * 16, batch=8, epochs=3, seed=5, noise=None
) -> SimulationConfig:
    """Every sample is read exactly once per epoch (F = N * L)."""
    return SimulationConfig(
        dataset=DatasetModel("band-major", num_samples, 0.1, 0.02),
        system=sec6_cluster(num_workers=N),
        batch_size=batch,
        num_epochs=epochs,
        seed=seed,
        noise=NoiseConfig() if noise is None else noise,
    )


class _OneCached(Policy):
    """Caches sample 0 on worker 0 from epoch 0 on.

    Each epoch one worker reads sample 0, locally or from worker 0;
    every other read goes to the PFS, so exactly one band per epoch
    differs from an all-PFS band, in one sample's source.
    """

    name = "one_cached"

    def prepare(self, ctx):
        tiers = ctx.system.hierarchy.num_classes
        empty = np.empty(0, dtype=np.int64)
        placements = [
            WorkerPlacement(
                w, (np.array([0] if w == 0 else [], dtype=np.int64),) + (empty,) * (tiers - 1)
            )
            for w in range(ctx.num_workers)
        ]
        plan = CachePlan(placements, ctx.config.dataset.num_samples, tiers)
        return PreparedPolicy(name=self.name, plan=plan, warm_epochs=0)


def _canonical(outcome):
    if isinstance(outcome, PolicyError):
        return ("PolicyError", str(outcome))
    return json.dumps(outcome.to_dict(), sort_keys=True)


def _solo(config, policy, tile_rows=None):
    try:
        return _canonical(Simulator(config, tile_rows=tile_rows).run(policy))
    except PolicyError as exc:
        return _canonical(exc)


@pytest.fixture
def draws(monkeypatch):
    """Every multiplier matrix the noise model draws, as its sources."""
    calls = []
    draw = noise_mod.noise_multipliers

    def counting(sources, *args, **kwargs):
        calls.append(np.array(sources))
        return draw(sources, *args, **kwargs)

    monkeypatch.setattr(noise_mod, "noise_multipliers", counting)
    return calls


@pytest.mark.parametrize("tile_rows", [None, 1])
def test_all_pfs_lineup_draws_once_per_band(draws, tile_rows):
    config = _config()
    bands = N if tile_rows == 1 else 1
    sim = Simulator(config, tile_rows=tile_rows)
    outcomes = sim.run_many_outcomes([make_policy(spec) for spec in ALL_PFS])
    assert len(draws) == config.num_epochs * bands
    assert all((d == int(Source.PFS)).all() for d in draws)
    for spec, outcome in zip(ALL_PFS, outcomes):
        assert _canonical(outcome) == _solo(config, make_policy(spec))


@pytest.mark.parametrize("tile_rows", [None, 1])
def test_one_changed_source_adds_its_own_draw(draws, tile_rows):
    config = _config()
    bands = N if tile_rows == 1 else 1
    sim = Simulator(config, tile_rows=tile_rows)
    policies = [make_policy(spec) for spec in ALL_PFS] + [_OneCached()]
    outcomes = sim.run_many_outcomes(policies)
    one_cached = outcomes[-1]
    reads = N * config.iterations_per_epoch * config.batch_size
    for epoch in one_cached.epochs:
        assert epoch.fetch_counts[int(Source.PFS)] == reads - 1
    # One draw per (epoch, band) for the all-PFS bands, plus one per
    # epoch for the band holding the read of sample 0.
    assert len(draws) == config.num_epochs * (bands + 1)
    differing = [d for d in draws if not (d == int(Source.PFS)).all()]
    assert len(differing) == config.num_epochs
    assert all(int((d != int(Source.PFS)).sum()) == 1 for d in differing)
    for policy, outcome in zip(policies, outcomes):
        assert _canonical(outcome) == _solo(config, policy)


@pytest.mark.parametrize("tile_rows", [None, 1, 3])
def test_failing_entry_keeps_its_solo_error_and_spares_its_siblings(tile_rows):
    config = test_fetch_table._config()
    placed = test_fetch_table._Placed
    policies = [make_policy("naive"), placed(uncovered_from=2), make_policy("nopfs")]
    outcomes = Simulator(config, tile_rows=tile_rows).run_many_outcomes(policies)
    assert isinstance(outcomes[1], PolicyError)
    with pytest.raises(PolicyError) as solo:
        Simulator(config, tile_rows=tile_rows).run(placed(uncovered_from=2))
    assert str(outcomes[1]) == str(solo.value)
    assert "(epoch 1, worker 2)" in str(outcomes[1])
    for index in (0, 2):
        assert _canonical(outcomes[index]) == _solo(config, policies[index], tile_rows)


def _bands(tile_rows):
    """The ``(start, stop)`` row bands of a ``_config()`` epoch."""
    step = tile_rows or N
    return [(start, min(start + step, N)) for start in range(0, N, step)]


@pytest.mark.parametrize("tile_rows", [None, 1])
def test_shared_band_inputs_built_once_per_band(monkeypatch, gathers, tile_rows):
    """One size gather and one stream derivation per band; one noise
    call per non-ideal policy and band."""
    config = _config()
    bands = N if tile_rows == 1 else 1
    sim = Simulator(config, tile_rows=tile_rows)
    derive = sim.noise_stream_states
    derived = []
    sim.noise_stream_states = lambda epoch, rows: (
        derived.append((epoch, rows.start, rows.stop)) or derive(epoch, rows)
    )
    noise_calls = []
    apply = engine_mod.apply_noise_matrix
    monkeypatch.setattr(
        engine_mod,
        "apply_noise_matrix",
        lambda *args, **kwargs: noise_calls.append(1) or apply(*args, **kwargs),
    )
    specs = (*ALL_PFS, "perfect")
    sim.run_many_outcomes([make_policy(spec) for spec in specs])
    slots = config.num_epochs * bands
    assert len(derived) == len(set(derived)) == slots
    assert len(noise_calls) == len(ALL_PFS) * slots
    # Every policy reads the clairvoyant stream: each (epoch, band) is
    # gathered once and every policy's tile uses that gather.
    assert gathers.shared() == [
        (epoch, *band) for epoch in range(config.num_epochs) for band in _bands(tile_rows)
    ]
    assert len(gathers.built) == slots
    assert len(gathers.tiles) == len(specs) * slots


@pytest.mark.parametrize("tile_rows", [None, 1])
def test_rewriter_lineup_gathers_only_canonical_epochs(gathers, tile_rows):
    """A lineup of stream rewriters makes no shared gather.

    Parallel staging rewrites every epoch, DeepIO opportunistic its warm
    ones; only DeepIO's cold epoch 0 reads the clairvoyant stream. Every
    rewritten tile gathers its own sizes, bitwise as in a solo run.
    """
    config = _config()
    specs = ("parallel_staging", "deepio:opportunistic")
    sim = Simulator(config, tile_rows=tile_rows)
    outcomes = sim.run_many_outcomes([make_policy(spec) for spec in specs])
    assert gathers.shared() == [(0, *band) for band in _bands(tile_rows)]
    rewritten = config.num_epochs * len(specs) - 1
    assert len(gathers.built) == (rewritten + 1) * len(_bands(tile_rows))
    for spec, outcome in zip(specs, outcomes):
        assert _canonical(outcome) == _solo(config, make_policy(spec), tile_rows)


def test_none_derives_the_band_height():
    """``tile_rows=None`` cuts an epoch into BAND_ELEMENTS-element bands."""
    length = BAND_ELEMENTS // 2  # two rows per band
    config = _config(num_samples=N * length, batch=16, epochs=1)
    assert config.iterations_per_epoch * config.batch_size == length
    assert band_rows(N, length, None) == 2
    sim = Simulator(config)
    derive = sim.noise_stream_states
    rows_seen = []
    sim.noise_stream_states = lambda epoch, rows: (
        rows_seen.append((rows.start, rows.stop)) or derive(epoch, rows)
    )
    derived = _canonical(sim.run(make_policy("naive")))
    assert rows_seen == [(0, 2), (2, 4)]
    assert derived == _solo(config, make_policy("naive"), tile_rows=N)


def test_band_rows_bounds():
    assert band_rows(1024, 1248, None) == BAND_ELEMENTS // 1248
    assert band_rows(8, 10, None) == 8
    assert band_rows(8, 10 * BAND_ELEMENTS, None) == 1
    assert band_rows(8, 10, 3) == 3
    assert band_rows(8, 10, 64) == 8


def test_rewritten_streams_are_built_per_band(monkeypatch):
    """plan_epoch stacks no rewritten rows; each band builds its own."""
    config = _config()
    sim = Simulator(config, tile_rows=1)
    prep = make_policy("parallel_staging").prepare(sim.ctx)
    built = []
    tiled = ScenarioContext.tiled_epoch_stream

    def stream(ctx, ids, worker, epoch, tag):
        built.append(worker)
        return tiled(ctx, ids, worker, epoch, tag)

    monkeypatch.setattr(ScenarioContext, "tiled_epoch_stream", stream)
    plan = sim.plan_epoch(prep, 1)
    assert built == [] and plan.canonical is None
    policy = make_policy("parallel_staging")
    (result,) = sim.execute_epoch([(policy, prep, plan)])
    assert built == list(range(N))
    # The parity seam still sees the whole rewritten epoch.
    np.testing.assert_array_equal(
        plan.ids, np.stack([tiled(sim.ctx, prep.pools[w], w, 1, prep.name) for w in range(N)])
    )
    solo = Simulator(config).run(make_policy("parallel_staging"))
    assert result.to_dict() == solo.epochs[1].to_dict()


def test_execute_epoch_lineup_contract():
    config = _config()
    sim = Simulator(config)
    assert sim.execute_epoch([]) == []
    policy = make_policy("naive")
    prep = policy.prepare(sim.ctx)
    lineup = [(policy, prep, sim.plan_epoch(prep, 0)), (policy, prep, sim.plan_epoch(prep, 1))]
    with pytest.raises(ConfigurationError, match="one epoch"):
        sim.execute_epoch(lineup)


class BandCalls:
    """What the band loop computed per ``(epoch, start, stop)`` band.

    ``tiles`` maps each band to its lineup entries' ``(sources, shared)``
    in pricing order (``shared``: the tile read the band's shared size
    gather); ``totals`` to its ``source_totals`` calls by kind — counts
    (no weights), bytes (weighted by a size gather) or seconds (weighted
    by fetch times); ``hashes`` counts availability hashes.
    """

    def __init__(self) -> None:
        self.tiles: dict = {}
        self.totals: dict = {}
        self.hashes = 0

    def kinds(self, band) -> dict:
        kinds = {"counts": 0, "bytes": 0, "seconds": 0}
        for kind in self.totals.get(band, []):
            kinds[kind] += 1
        return kinds


@pytest.fixture
def band_calls(monkeypatch, gathers) -> BandCalls:
    """Record each band's fetch sources, source totals and hashes.

    Each call is billed to the last tile built: the serial schedule
    prices a tile right after building it.
    """
    return _record_band_calls(monkeypatch, gathers, lambda: tuple(gathers.tiles[-1][:3]))


@pytest.fixture
def item_calls(monkeypatch, gathers) -> BandCalls:
    """:func:`band_calls`, billing each call to the item it serves.

    On a pipelined epoch the band loop stages items ahead of the helper
    that finishes them, so the last tile built need not be the one
    being finished: a call made inside ``Simulator._finish_band`` is
    billed to that item's band, and any other call (``resolve`` and the
    memo's counts, in the staging half) to the last tile built.
    """
    finishing = threading.local()
    finish = engine_mod.Simulator._finish_band

    def recording_finish(sim, run, staged):
        rows = staged.tile.rows
        finishing.band = (run.plan.epoch, rows.start, rows.stop)
        try:
            return finish(sim, run, staged)
        finally:
            finishing.band = None

    monkeypatch.setattr(engine_mod.Simulator, "_finish_band", recording_finish)

    def band():
        current = getattr(finishing, "band", None)
        return current if current is not None else tuple(gathers.tiles[-1][:3])

    return _record_band_calls(monkeypatch, gathers, band)


def _record_band_calls(monkeypatch, gathers, band) -> BandCalls:
    """Wrap the memo's kernels, billing each call to ``band()``."""
    log = BandCalls()
    resolve = engine_mod.FetchTable.resolve

    def recording_resolve(table, sizes_mb, local, remote):
        fetch, sources = resolve(table, sizes_mb, local, remote)
        shared = gathers.tiles[-1][3] is not None
        log.tiles.setdefault(band(), []).append((sources.copy(), shared))
        return fetch, sources

    totals = kernels.source_totals

    def counting_totals(index, weights=None):
        if weights is None:
            kind = "counts"
        elif any(weights is built.sizes_mb for built in gathers.built):
            kind = "bytes"
        else:
            kind = "seconds"
        log.totals.setdefault(band(), []).append(kind)
        return totals(index, weights)

    hash01 = kernels.hash01

    def counting_hash(ids):
        log.hashes += 1
        return hash01(ids)

    monkeypatch.setattr(engine_mod.FetchTable, "resolve", recording_resolve)
    monkeypatch.setattr(kernels, "source_totals", counting_totals)
    monkeypatch.setattr(kernels, "hash01", counting_hash)
    return log


def _distinct(matrices) -> int:
    seen: list = []
    for matrix in matrices:
        if not any(np.array_equal(matrix, other) for other in seen):
            seen.append(matrix)
    return len(seen)


#: A lineup whose bands mix every case: three all-PFS policies sharing
#: one source matrix, NoPFS and DeepIO opportunistic (both cold in epoch
#: 0, so their canonical bands need the availability hash), and
#: rewritten streams (DeepIO's warm epochs, parallel staging's every
#: epoch) whose tiles gather their own sizes.
MEMO_LINEUP = (*ALL_PFS, "nopfs", "deepio:opportunistic", "parallel_staging")


@pytest.mark.parametrize("noisy", [True, False], ids=["noise", "no-noise"])
@pytest.mark.parametrize("tile_rows", [None, 1])
def test_band_memo_counts_each_source_matrix_once(band_calls, noisy, tile_rows):
    """Per band: one counts call per distinct source matrix; one bytes
    call per distinct matrix among shared-gather tiles plus one per
    rewritten tile; one seconds call per entry; one availability hash
    per cold canonical band — with noise on or off."""
    _assert_memo_counts(band_calls, noisy, tile_rows, helper=False)


@pytest.mark.parametrize("noisy", [True, False], ids=["noise", "no-noise"])
@pytest.mark.parametrize("tile_rows", [None, 1, 3])
def test_band_memo_counts_each_source_matrix_once_pipelined(item_calls, noisy, tile_rows):
    """The same counts with a helper thread finishing the items, each
    call billed to the item it serves."""
    _assert_memo_counts(item_calls, noisy, tile_rows, helper=True)


def _assert_memo_counts(band_calls: BandCalls, noisy: bool, tile_rows, helper: bool) -> None:
    """Run :data:`MEMO_LINEUP` (on a helper thread or not) and check the
    per-band counts."""
    config = _config(noise=None if noisy else NoiseConfig.disabled())
    policies = [make_policy(spec) for spec in MEMO_LINEUP]
    sim = Simulator(config, tile_rows=tile_rows, helper=helper)
    outcomes = sim.run_many_outcomes(policies)
    bands = [
        (epoch, *band) for epoch in range(config.num_epochs) for band in _bands(tile_rows)
    ]
    assert sorted(band_calls.tiles) == bands
    for band in bands:
        entries = band_calls.tiles[band]
        assert len(entries) == len(MEMO_LINEUP)
        shared = [sources for sources, is_shared in entries if is_shared]
        own = [sources for sources, is_shared in entries if not is_shared]
        assert band_calls.kinds(band) == {
            "counts": _distinct(sources for sources, _ in entries),
            "bytes": _distinct(shared) + len(own),
            "seconds": len(entries),
        }, band
    # Every band shares: the all-PFS policies one matrix, and in warm
    # epochs the rewritten all-local tiles NoPFS's all-local counts.
    assert all(band_calls.kinds(band)["counts"] <= 3 for band in bands)
    # Epoch 0 is cold for NoPFS and DeepIO: one hash per band for both.
    assert band_calls.hashes == len(_bands(tile_rows))
    for policy, outcome in zip(policies, outcomes):
        assert _canonical(outcome) == _solo(config, policy, tile_rows)
