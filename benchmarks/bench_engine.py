"""Simulation-engine throughput: epoch-matrix kernels vs the seed loop.

Benchmarks the innermost hot path under every sweep cell — one
``Simulator.run`` — at two scales:

* **N=64** (the PR 5 acceptance scenario): the vectorized epoch-matrix
  engine must beat the retained scalar reference
  (``tests/sim/reference_engine.py``) while producing
  bitwise-identical results.
* **N=1024** (the paper-scale tier): a Sec 7-sized scenario —
  1024 workers over a multi-million-sample stream — must complete
  with streaming tiles (``tile_rows=PAPER_SCALE_TILE_ROWS``) under the
  documented peak-memory bound, bitwise-identical to one whole-epoch
  band (``tile_rows=PAPER_SCALE_WORKERS``);
  and Fig 10's seven-policy Lassen lineup at 1024 GPUs must run as one
  epoch-major pass under its own peak-memory bound.

CI uploads the pytest-benchmark timings as ``BENCH_engine.json`` plus
the rendered comparisons; ``tools/bench_gate.py`` compares the timings
against ``benchmarks/baselines.json`` and fails the build on
regression.
"""

import json
import sys
import time
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from repro.api import Scenario, make_policy  # noqa: E402
from repro.datasets import DatasetModel  # noqa: E402
from repro.errors import PolicyError  # noqa: E402
from repro.perfmodel import Source, sec6_cluster  # noqa: E402
from repro.sim import (  # noqa: E402
    NaivePolicy,
    NoPFSPolicy,
    ScenarioContext,
    SimulationConfig,
    Simulator,
    StagingBufferPolicy,
)
from repro.sim.result import SimulationResult  # noqa: E402
from tests.sim.reference_engine import ReferenceSimulator  # noqa: E402

#: N >= 64 per the acceptance criterion: enough workers that per-worker
#: Python overhead (the seed engine's cost model) is the dominant term.
NUM_WORKERS = 64

#: The paper's headline scale (Sec 7: up to 1024 workers).
PAPER_SCALE_WORKERS = 1024
#: Streaming tile height for the paper-scale runs: 64-worker bands keep
#: every per-sample float matrix at ~1.5 MB while one whole-epoch band
#: materializes ~25 MB per temporary.
PAPER_SCALE_TILE_ROWS = 64
#: Documented peak-allocation bound (tracemalloc, MB) for the tiled
#: N=1024 run. Measured ~192 MB, set by NoPFS's prepare (its transient
#: frequency table over both epochs and the placement built from it),
#: not by per-sample floats; one whole-epoch band peaks ~271 MB. The bound
#: carries slack for allocator variance across numpy versions, not for
#: regressions.
PAPER_SCALE_TILED_PEAK_MB = 256.0


def _scenario(num_workers=NUM_WORKERS, batch=16, iterations=16, epochs=3, seed=5):
    num_samples = num_workers * batch * iterations
    dataset = DatasetModel("bench-engine", num_samples, 0.15, 0.02)
    return SimulationConfig(
        dataset=dataset,
        system=sec6_cluster(num_workers=num_workers),
        batch_size=batch,
        num_epochs=epochs,
        seed=seed,
    )


def _lineup():
    return [NaivePolicy(), StagingBufferPolicy(), NoPFSPolicy()]


def _lineup_runner(run_cell, policies):
    """A callable simulating the whole lineup once."""

    def run():
        for policy in policies:
            run_cell(policy)

    return run


def test_engine_speedup(report, ab_timer):
    """Epoch-matrix engine > scalar engine on an N=64 scenario, bitwise-equal."""
    config = _scenario()
    sim = Simulator(config)
    reference = ReferenceSimulator(config, ctx=sim.ctx)

    # Identical results come first; this also warms the shared context
    # (sample sizes) so the timed runs compare engine arithmetic, not
    # one-off scenario setup. Both engines run the same prepares (NoPFS
    # rebuilds its frequency table in each) and build each epoch's
    # permutation once per run.
    for policy_new, policy_ref in zip(_lineup(), _lineup()):
        new = json.dumps(sim.run(policy_new).to_dict(), sort_keys=True)
        ref = json.dumps(reference.run(policy_ref).to_dict(), sort_keys=True)
        assert new == ref, f"engine results diverge for {policy_new.name}"

    old_s, new_s = ab_timer(
        _lineup_runner(reference.run, _lineup()),
        _lineup_runner(sim.run, _lineup()),
        rounds=3,
    )
    speedup = old_s / new_s
    cells = len(_lineup())

    report(
        "engine",
        "\n".join(
            [
                f"scenario: N={NUM_WORKERS} workers, "
                f"F={config.dataset.num_samples} samples, "
                f"E={config.num_epochs} epochs, B={config.batch_size}",
                f"scalar reference: {old_s:7.3f}s  ({cells / old_s:6.2f} cells/s)",
                f"epoch-matrix:     {new_s:7.3f}s  ({cells / new_s:6.2f} cells/s)",
                f"speedup: {speedup:.2f}x (bitwise-identical results)",
            ]
        ),
    )
    assert speedup > 1.0, (
        f"vectorized engine ({new_s:.3f}s) must beat the scalar reference "
        f"({old_s:.3f}s) on an N={NUM_WORKERS} scenario"
    )


def test_engine_throughput(benchmark):
    """Timing series for BENCH_engine.json: one three-epoch N=64 cell."""
    sim = Simulator(_scenario())
    sim.run(NaivePolicy())  # warm the scenario state once
    benchmark.pedantic(sim.run, args=(NoPFSPolicy(),), rounds=3, iterations=1)


# -- paper scale (N=1024) --------------------------------------------------


def _paper_scenario():
    """A Sec 7-sized cell: N=1024 workers, ~3.1M samples, 2 epochs."""
    return _scenario(
        num_workers=PAPER_SCALE_WORKERS, batch=32, iterations=96, epochs=2
    )


def _traced_run(sim, policy):
    """(result, wall seconds, tracemalloc peak MB) of one engine run."""
    tracemalloc.start()
    start = time.perf_counter()
    result = sim.run(policy)
    wall = time.perf_counter() - start
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return result, wall, peak / 2**20


def test_engine_paper_scale(report):
    """N=1024: 64-row bands are bitwise-equal to one whole-epoch band and
    memory-bounded.

    Peak memory is measured with ``tracemalloc`` (it traces every numpy
    buffer and, unlike RSS, is deterministic across allocator reuse).
    The runs share the scenario context's sample sizes, built before
    tracing; each pays for its own working set — NoPFS's prepare,
    frequency table included (the context keeps none), and one
    resident epoch permutation at a time.
    """
    config = _paper_scenario()
    ctx = ScenarioContext(config)

    # tile_rows=None derives a band height; pass N for one whole-epoch band.
    whole, whole_s, whole_mb = _traced_run(
        Simulator(config, tile_rows=PAPER_SCALE_WORKERS, ctx=ctx), NoPFSPolicy()
    )
    tiled, tiled_s, tiled_mb = _traced_run(
        Simulator(config, tile_rows=PAPER_SCALE_TILE_ROWS, ctx=ctx), NoPFSPolicy()
    )

    assert json.dumps(tiled.to_dict(), sort_keys=True) == json.dumps(
        whole.to_dict(), sort_keys=True
    ), "tiled paper-scale run diverges from whole-epoch execution"
    assert tiled_mb < PAPER_SCALE_TILED_PEAK_MB, (
        f"tiled N={PAPER_SCALE_WORKERS} run peaked at {tiled_mb:.1f} MB; "
        f"documented bound is {PAPER_SCALE_TILED_PEAK_MB:.0f} MB"
    )

    cells = config.num_epochs * config.iterations_per_epoch * ctx.num_workers
    report(
        "engine_paper_scale",
        "\n".join(
            [
                f"scenario: N={PAPER_SCALE_WORKERS} workers, "
                f"F={config.dataset.num_samples:,} samples, "
                f"E={config.num_epochs} epochs, B={config.batch_size}",
                f"one band (tile_rows={PAPER_SCALE_WORKERS}): "
                f"{whole_s:6.2f}s  peak {whole_mb:7.1f} MB",
                f"tiled (tile_rows={PAPER_SCALE_TILE_ROWS}):  "
                f"{tiled_s:6.2f}s  peak {tiled_mb:7.1f} MB",
                f"matrix cells/s (tiled): {cells / tiled_s:,.0f}",
                "results: bitwise-identical",
            ]
        ),
    )


def test_engine_paper_scale_throughput(benchmark):
    """Timing series for BENCH_engine.json: one tiled N=1024 cell."""
    config = _paper_scenario()
    sim = Simulator(config, tile_rows=PAPER_SCALE_TILE_ROWS)
    sim.run(NaivePolicy())  # warm the scenario state once
    benchmark.pedantic(sim.run, args=(NoPFSPolicy(),), rounds=2, iterations=1)


# -- seed replicas in one batch ----------------------------------------------

#: Fig 8-style replication seeds: same scenario, five noise seeds.
FIG8_SEEDS = [3, 7, 11, 19, 23]


def _run_lineup_fresh(config):
    """{(seed, policy): result} via per-cell execution.

    The baseline mirrors what the ``process`` executor's one-cell pool
    tasks do for every one of the grid's 15 cells: deserialize the
    cell's config and build a fresh
    :class:`Simulator` — scenario context, permutations and all — for
    that single run. This is exactly the work a batched-executor
    worker replaces.
    """
    out = {}
    for seed in FIG8_SEEDS:
        for policy in _lineup():
            sim = Simulator(
                SimulationConfig.from_dict({**config.to_dict(), "seed": seed})
            )
            try:
                out[(seed, policy.name)] = sim.run(policy)
            except PolicyError:
                out[(seed, policy.name)] = None
    return out


def _run_lineup_shared(config):
    """Same cells seed-major, as one batched-executor worker runs them.

    The base lives on the grid's first seed — exactly what
    ``_simulate_batch`` does (it builds its simulator from the batch's
    first cell) — and each seed's lineup goes through one
    ``run_many_seed`` call, so the base context is itself one of the
    measured cells, not bookkeeping overhead.
    """
    base = Simulator(
        SimulationConfig.from_dict({**config.to_dict(), "seed": FIG8_SEEDS[0]})
    )
    out = {}
    lineup = _lineup()
    for seed in FIG8_SEEDS:
        for policy, outcome in zip(lineup, base.run_many_seed(lineup, seed)):
            out[(seed, policy.name)] = (
                None if isinstance(outcome, PolicyError) else outcome
            )
    return out


def test_engine_seed_sharing(report, ab_timer):
    """A Fig 8-style 5-seed grid: one batch beats per-cell runs, bitwise-equal.

    The paper's headline figures replicate every scenario across noise
    seeds; the batched executor folds those replicas into one worker
    batch, where each seed's lineup shares one epoch-major pass (each
    epoch's permutation, size gather and noise states built once for
    all policies) and every seed shares the dataset's size table —
    instead of paying a fresh config and scenario context per *cell*.
    The batch must stay bitwise-identical to per-cell execution *and*
    finish faster.
    """
    config = _scenario()
    fresh = _run_lineup_fresh(config)
    shared = _run_lineup_shared(config)
    for key in fresh:
        a, b = fresh[key], shared[key]
        a_json = None if a is None else json.dumps(a.to_dict(), sort_keys=True)
        b_json = None if b is None else json.dumps(b.to_dict(), sort_keys=True)
        assert a_json == b_json, f"seed-batched run diverges for {key}"

    fresh_s, shared_s = ab_timer(
        lambda: _run_lineup_fresh(config),
        lambda: _run_lineup_shared(config),
        rounds=5,
    )
    speedup = fresh_s / shared_s
    cells = len(FIG8_SEEDS) * len(_lineup())

    report(
        "engine_seed_sharing",
        "\n".join(
            [
                f"grid: {len(_lineup())} policies x {len(FIG8_SEEDS)} seeds "
                f"on the N={NUM_WORKERS} scenario ({cells} cells)",
                f"per-cell:     {fresh_s:7.3f}s  ({cells / fresh_s:6.2f} cells/s)",
                f"seed-major:   {shared_s:7.3f}s  ({cells / shared_s:6.2f} cells/s)",
                f"speedup: {speedup:.2f}x (bitwise-identical results)",
            ]
        ),
    )
    assert speedup > 1.0, (
        f"seed-major batch ({shared_s:.3f}s) must beat per-cell execution "
        f"({fresh_s:.3f}s) on a {len(FIG8_SEEDS)}-seed Fig 8-style grid"
    )


def test_engine_seed_sharing_throughput(benchmark):
    """Timing series for BENCH_engine.json: the 5-seed lineup seed-major
    through one base simulator (base construction included — amortizing
    it is the feature under test)."""
    config = _scenario()
    benchmark.pedantic(
        lambda: _run_lineup_shared(config), rounds=3, iterations=1
    )


# -- noise-RNG fast path (ISSUE 10) ----------------------------------------

#: Required speedup of the production noise path (vectorized stream
#: seeding + draw-then-scatter kernel + lazy source masks) over the
#: frozen baseline kernel (:func:`_pr9_apply_noise_matrix`) on the
#: noisiest N=64 cell. Measured 1.45-1.48x; the gate keeps margin for
#: CI jitter, not for regressions.
NOISE_FAST_PATH_MIN_SPEEDUP = 1.15


def _pr9_apply_noise_matrix(fetch_times, sources, noise, rngs):
    """The PR 9 noise kernel, frozen verbatim as the speedup baseline.

    Eager whole-matrix masks for every source class, separate lognormal
    draws per (worker, source) segment — the code
    :func:`repro.sim.noise.apply_noise_matrix` replaced. Kept here so
    the fast-path gate always measures against the real predecessor.
    """
    import numpy as np

    from repro.sim.noise import _lognormal_mean_one

    times = np.asarray(fetch_times, dtype=np.float64)
    if not noise.enabled or times.size == 0:
        return times.copy()
    src = np.asarray(sources)
    masks = {
        name: src == int(code)
        for name, code in (
            ("pfs", Source.PFS),
            ("remote", Source.REMOTE),
            ("local", Source.LOCAL),
        )
    }
    counts = {name: mask.sum(axis=1) for name, mask in masks.items()}

    mult = np.ones_like(times)
    for worker, rng in enumerate(rngs):
        n_pfs = int(counts["pfs"][worker])
        if n_pfs:
            draw = _lognormal_mean_one(rng, noise.pfs_sigma, n_pfs)
            if noise.pfs_tail_prob > 0:
                tails = rng.random(n_pfs) < noise.pfs_tail_prob
                draw = np.where(tails, draw * noise.pfs_tail_scale, draw)
            mult[worker, masks["pfs"][worker]] = draw
        n_remote = int(counts["remote"][worker])
        if n_remote:
            mult[worker, masks["remote"][worker]] = _lognormal_mean_one(
                rng, noise.remote_sigma, n_remote
            )
        n_local = int(counts["local"][worker])
        if n_local:
            mult[worker, masks["local"][worker]] = _lognormal_mean_one(
                rng, noise.local_sigma, n_local
            )
    return times * mult


def _pr9_noise_sim(config, ctx):
    """A simulator forced onto the baseline's fresh-generator noise path.

    Its ``noise_stream_states`` hands the engine one fresh
    ``generator()`` per worker where the production path hands stream
    states; only
    :func:`_frozen_noise_kernel` consumes them.
    """
    from repro.rng import generator

    sim = Simulator(config, ctx=ctx)
    seed = config.seed

    def fresh_noise_generators(epoch, rows):
        return [
            generator(seed, "noise", epoch, worker)
            for worker in range(rows.start, rows.stop)
        ]

    sim.noise_stream_states = fresh_noise_generators
    return sim


def _frozen_noise_kernel(fetch_times, sources, noise, band, counts=None):
    """The frozen kernel above behind the engine's call signature: the
    engine's band carries the fresh generators as its ``states`` (and
    passes the band's per-source counts, which the kernel ignores)."""
    return _pr9_apply_noise_matrix(fetch_times, sources, noise, band.states)


def test_engine_noise_fast_path(report, ab_timer):
    """The noisy N=64 cell beats the PR 9 noise path >= 1.15x, bitwise-equal.

    The all-PFS :class:`NaivePolicy` cell is the noisiest the engine
    runs (every sample draws PFS jitter + a tail uniform), so it
    isolates the noise path: per-tile stream states derived in one
    vectorized pass instead of one SeedSequence expansion per worker,
    draws collected per worker and scattered once per source, and
    source masks built lazily. The legacy side runs the frozen baseline
    kernel (:func:`_pr9_apply_noise_matrix`) with fresh per-worker
    generators — and must still produce byte-identical results.
    """
    from repro.sim import engine as engine_mod

    config = _scenario()
    policy = NaivePolicy()
    fast = Simulator(config)
    legacy = _pr9_noise_sim(config, fast.ctx)

    def run_legacy():
        saved = engine_mod.apply_noise_matrix
        engine_mod.apply_noise_matrix = _frozen_noise_kernel
        try:
            return legacy.run(policy)
        finally:
            engine_mod.apply_noise_matrix = saved

    fast_json = json.dumps(fast.run(policy).to_dict(), sort_keys=True)
    legacy_json = json.dumps(run_legacy().to_dict(), sort_keys=True)
    assert fast_json == legacy_json, "fast noise path diverges from the frozen kernel"
    legacy_s, fast_s = ab_timer(run_legacy, lambda: fast.run(policy), rounds=7)
    speedup = legacy_s / fast_s

    report(
        "engine_noise_fast_path",
        "\n".join(
            [
                f"scenario: N={NUM_WORKERS} workers, "
                f"F={config.dataset.num_samples} samples, "
                f"E={config.num_epochs} epochs, B={config.batch_size}, "
                f"policy {policy.name} (all-PFS noise + tails)",
                f"PR 9 noise path: {legacy_s * 1e3:7.2f} ms/cell",
                f"fast path:       {fast_s * 1e3:7.2f} ms/cell",
                f"speedup: {speedup:.2f}x (bitwise-identical results)",
            ]
        ),
    )
    assert speedup >= NOISE_FAST_PATH_MIN_SPEEDUP, (
        f"noise fast path ({fast_s * 1e3:.2f} ms) must beat the PR 9 "
        f"baseline ({legacy_s * 1e3:.2f} ms) by "
        f">= {NOISE_FAST_PATH_MIN_SPEEDUP}x; got {speedup:.2f}x"
    )


def test_engine_noise_fast_path_throughput(benchmark):
    """Timing series for BENCH_engine.json: the noisiest N=64 cell
    (all-PFS naive policy) on the production fast path."""
    sim = Simulator(_scenario())
    sim.run(NaivePolicy())  # warm scenario state
    benchmark.pedantic(sim.run, args=(NaivePolicy(),), rounds=3, iterations=1)


# -- epoch-major run_many at paper scale ------------------------------------

#: Peak-allocation bound (tracemalloc, MB) for the N=1024 ``run_many``:
#: ~one epoch's matrices (a 24 MB id permutation plus the band's shared
#: size gather and band floats), NOT per-policy copies; a band's noise
#: stream states and memoized draws live only while that band executes.
#: Measured ~78 MB (~75 MB before band-major execution kept each
#: policy's per-batch totals alive across the epoch's bands); the bound
#: carries allocator slack only.
RUN_MANY_UNCACHED_PEAK_MB = 160.0

#: Clairvoyant-stream lineup for the run_many tier: policies whose
#: prepare reads at most epoch 0 (no frequency scans), so the
#: permutation-build counter isolates the epoch-major loop.
RUN_MANY_POLICIES = ("naive", "staging_buffer", "pytorch")


def test_engine_run_many_uncached(report):
    """N=1024 epoch-major ``run_many``: E builds, one-epoch memory.

    The context keeps one epoch permutation resident, so the
    epoch-major ``run_many`` must materialize each epoch's permutation
    once for the whole policy lineup — ``perm_builds == E``, not
    ``E x policies`` (the policy-major cost) — and keep the traced peak
    near one epoch's matrices.
    """
    config = _paper_scenario()
    sim = Simulator(config, tile_rows=PAPER_SCALE_TILE_ROWS)
    policies = [make_policy(spec) for spec in RUN_MANY_POLICIES]

    tracemalloc.start()
    start = time.perf_counter()
    outcomes = sim.run_many_outcomes(policies)
    wall = time.perf_counter() - start
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    peak_mb = peak / 2**20

    assert all(not isinstance(o, PolicyError) for o in outcomes)
    assert sim.ctx.perm_builds == config.num_epochs, (
        f"epoch-major run_many built {sim.ctx.perm_builds} permutations "
        f"for {len(policies)} policies; must be E={config.num_epochs}"
    )
    assert peak_mb < RUN_MANY_UNCACHED_PEAK_MB, (
        f"N={PAPER_SCALE_WORKERS} run_many peaked at "
        f"{peak_mb:.1f} MB; documented bound is "
        f"{RUN_MANY_UNCACHED_PEAK_MB:.0f} MB"
    )

    report(
        "engine_run_many_uncached",
        "\n".join(
            [
                f"scenario: N={PAPER_SCALE_WORKERS} workers, "
                f"F={config.dataset.num_samples:,} samples, "
                f"E={config.num_epochs} epochs, B={config.batch_size}, "
                f"one resident epoch permutation",
                f"lineup: {', '.join(RUN_MANY_POLICIES)} "
                f"({len(policies)} policies, tile_rows="
                f"{PAPER_SCALE_TILE_ROWS})",
                f"wall: {wall:6.2f}s  "
                f"({len(policies) / wall:5.2f} cells/s)  "
                f"peak {peak_mb:6.1f} MB",
                f"permutations built: {sim.ctx.perm_builds} "
                f"(= E, shared across the lineup)",
            ]
        ),
    )


def test_engine_run_many_uncached_throughput(benchmark):
    """Timing series for BENCH_engine.json: the N=1024 lineup through
    one epoch-major ``run_many`` call (permutations rebuilt per call)."""
    config = _paper_scenario()
    sim = Simulator(config, tile_rows=PAPER_SCALE_TILE_ROWS)
    policies = [make_policy(spec) for spec in RUN_MANY_POLICIES]
    sim.run_many_outcomes(policies)  # warm the scenario state once
    benchmark.pedantic(
        lambda: sim.run_many_outcomes(policies), rounds=2, iterations=1
    )


# -- the Fig 10 lineup at N=1024 ----------------------------------------------

#: Fig 10's 1024-GPU Lassen lineup, as the e2e lassen-1024 workload runs it.
FIG10_LINEUP = (
    "pytorch",
    "lbann:dynamic",
    "nopfs",
    "naive",
    "staging_buffer",
    "deepio:opportunistic",
    "locality_aware",
)
#: Peak-allocation bound (tracemalloc, MB) for the lineup's one pass.
#: Measured ~117 MB: the seven prepared policies held together (~86 MB;
#: NoPFS's placement is ~41 MB of it) plus one epoch's working set
#: (~126 MB before band-major execution shared each band's gather and
#: noise draws across the lineup).
#: When the context kept NoPFS's frequency table and every worker lookup
#: copied its placement ids, the same pass peaked at ~252 MB. The bound
#: carries slack for allocator variance across numpy versions, not for
#: regressions.
FIG10_LINEUP_PEAK_MB = 160.0


def _fig10_pass(config, helper):
    """``(simulator, outcomes, wall s, tracemalloc peak MB)`` of one lineup pass."""
    sim = Simulator(config, tile_rows=PAPER_SCALE_TILE_ROWS, helper=helper)
    policies = [make_policy(spec) for spec in FIG10_LINEUP]
    tracemalloc.start()
    start = time.perf_counter()
    outcomes = sim.run_many_outcomes(policies)
    wall = time.perf_counter() - start
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return sim, outcomes, wall, peak / 2**20


def test_engine_fig10_lineup(report):
    """Fig 10's lineup at 1024 GPUs in one epoch-major pass, memory-bounded.

    ``run_many_outcomes`` prepares every policy before the first epoch,
    so the pass holds all seven prepared policies at once — the state a
    serial sweep of the scenario's seven cells holds, since it runs them
    as one batch. The sample-size table is built before tracing. The
    pass runs twice: serially and pipelined, as the serial sweep
    executor runs it on two CPUs (a helper thread finishes each band's
    items while the band loop stages the next); both stay under the
    bound and agree bitwise.
    """
    config = Scenario(
        dataset="imagenet1k", system="lassen:1024", policy="nopfs",
        batch_size=32, num_epochs=3, scale=1.0, seed=1,
    ).build_config()
    lines = [
        f"scenario: lassen:1024, F={config.dataset.num_samples:,} samples, "
        f"E={config.num_epochs} epochs, B={config.batch_size}, "
        f"tile_rows={PAPER_SCALE_TILE_ROWS}",
        f"lineup: {', '.join(FIG10_LINEUP)}",
    ]
    results = {}
    for helper in (False, True):
        sim, outcomes, wall, peak_mb = _fig10_pass(config, helper)
        assert all(isinstance(outcome, SimulationResult) for outcome in outcomes)
        # The prepares build E permutations (NoPFS's frequency scan reads
        # every epoch), the shared loop E more: not E per policy.
        assert sim.ctx.perm_builds == 2 * config.num_epochs
        assert peak_mb < FIG10_LINEUP_PEAK_MB, (
            f"N=1024 Fig 10 lineup (helper={helper}) peaked at {peak_mb:.1f} MB; "
            f"documented bound is {FIG10_LINEUP_PEAK_MB:.0f} MB"
        )
        results[helper] = [outcome.to_dict() for outcome in outcomes]
        lines.append(
            f"one run_many_outcomes, helper={helper!s:5}: {wall:6.2f}s (traced)  "
            f"peak {peak_mb:7.1f} MB"
        )
    assert results[True] == results[False]
    lines.append(f"permutation builds per pass: {2 * config.num_epochs}")
    report("engine_fig10_lineup", "\n".join(lines))
