"""Sweep-engine throughput: executors, cold vs warm, serial vs parallel.

Benchmarks the :mod:`repro.sweep` layer itself on Fig 8-shaped grids
(the nine-policy lineup on ImageNet-1k), reporting simulation
throughput in grid cells per second, the executor comparison on a
multi-scenario grid (where ``batched`` amortizes worker spawn/pickle
overhead and shares one access-stream build per scenario instead of
one per cell) and on a one-scenario seed-replica grid (where
``batched`` must cut the lone scenario batch across its workers), and
the warm-cache hit rate (which should be 100%: a repeated sweep
performs zero re-simulations).
"""

import tempfile
import time

from repro.datasets import imagenet1k
from repro.experiments.common import policy_cells, scaled_scenario
from repro.perfmodel import sec6_cluster
from repro.api import fig8_lineup
from repro.sweep import BatchedExecutor, SweepRunner
from repro.sweep.executors import CellTask


def _grid(seed: int = 1):
    config = scaled_scenario(
        imagenet1k(seed),
        sec6_cluster(),
        batch_size=32,
        num_epochs=3,
        scale=0.02,
        seed=seed,
    )
    return policy_cells(config, fig8_lineup())


def _multi_scenario_grid(n_scenarios: int = 6):
    """The batched executor's home turf: many policies x many scenarios.

    Two epochs keeps the per-cell simulation short relative to the
    access-stream build, which is exactly the overhead the executors
    differ on: ``process`` pays one build per cell (9 per scenario for
    the Fig 8 lineup), ``batched`` one per scenario.
    """
    cells = []
    for seed in range(1, n_scenarios + 1):
        config = scaled_scenario(
            imagenet1k(seed),
            sec6_cluster(),
            batch_size=32,
            num_epochs=2,
            scale=0.02,
            seed=seed,
        )
        cells.extend(
            policy_cells(config, fig8_lineup(), tag_fn=lambda p, s=seed: (s, p.name))
        )
    return cells


def _seed_replica_grid(n_seeds: int = 4):
    """Sec 7's multi-seed replication: one scenario, many noise seeds.

    The cells differ only in ``SimulationConfig.seed``, so they form a
    single scenario batch: ``batched`` keeps a second worker busy only
    by cutting that batch into one chunk per worker.
    """
    cells = []
    for seed in range(1, n_seeds + 1):
        config = scaled_scenario(
            imagenet1k(1),
            sec6_cluster(),
            batch_size=32,
            num_epochs=2,
            scale=0.02,
            seed=seed,
        )
        cells.extend(
            policy_cells(config, fig8_lineup(), tag_fn=lambda p, s=seed: (s, p.name))
        )
    return cells


#: Alternating rounds per side behind each executor speedup assert.
EXECUTOR_ROUNDS = 3


def _sweep(cells, executor, jobs, outcomes):
    """A callable running ``cells`` on ``executor``, keeping its outcome."""

    def run():
        outcomes[executor] = SweepRunner(n_jobs=jobs, executor=executor).run(cells)

    return run


def test_executor_comparison(report, ab_timer):
    """serial vs process vs batched on two grid shapes.

    On the multi-scenario grid ``batched`` must beat ``process``: the
    process executor rebuilds the scenario's access streams once per
    *cell* (9x per scenario for the Fig 8 lineup), batched once per
    *scenario batch*. On the seed-replica grid ``batched`` at two jobs
    must beat ``serial``: its one scenario batch is cut into one chunk
    per worker, so both workers simulate. Each compared pair is timed in
    alternating rounds, best round per side.
    """
    cells = _multi_scenario_grid()
    timings, outcomes = {}, {}
    start = time.perf_counter()
    _sweep(cells, "serial", 1, outcomes)()
    timings["serial"] = time.perf_counter() - start
    timings["process"], timings["batched"] = ab_timer(
        _sweep(cells, "process", 2, outcomes),
        _sweep(cells, "batched", 2, outcomes),
        rounds=EXECUTOR_ROUNDS,
    )
    replicas = _seed_replica_grid()
    replica_timings, replica_outcomes = {}, {}
    replica_timings["serial"], replica_timings["batched"] = ab_timer(
        _sweep(replicas, "serial", 1, replica_outcomes),
        _sweep(replicas, "batched", 2, replica_outcomes),
        rounds=EXECUTOR_ROUNDS,
    )
    chunks = len(
        BatchedExecutor.group(
            [CellTask(index=i, cell=cell) for i, cell in enumerate(replicas)], 2
        )
    )

    lines = [
        f"{name:8s} {timings[name]:7.2f}s  {outcomes[name].stats.render()}"
        for name in ("serial", "process", "batched")
    ]
    lines.append(
        f"batched vs process speedup: {timings['process'] / timings['batched']:.2f}x"
    )
    lines.append(f"seed replicas ({len(replicas)} cells, {chunks} batched pool tasks):")
    lines += [
        f"{name:8s} {replica_timings[name]:7.2f}s  {replica_outcomes[name].stats.render()}"
        for name in ("serial", "batched")
    ]
    lines.append(
        "batched (2 jobs) vs serial speedup: "
        f"{replica_timings['serial'] / replica_timings['batched']:.2f}x"
    )
    report("sweep_executors", "\n".join(lines))

    # Identical results are a hard invariant; the speedup is the point.
    serial = outcomes["serial"]
    for tag in serial.results:
        assert outcomes["process"][tag] == serial[tag], tag
        assert outcomes["batched"][tag] == serial[tag], tag
    assert replica_outcomes["batched"].results == replica_outcomes["serial"].results
    assert timings["batched"] < timings["process"], (
        f"batched ({timings['batched']:.2f}s) should beat process "
        f"({timings['process']:.2f}s) on multi-policy scenario grids"
    )
    assert replica_timings["batched"] < replica_timings["serial"], (
        f"batched at 2 jobs ({replica_timings['batched']:.2f}s) should beat "
        f"serial ({replica_timings['serial']:.2f}s) on a seed-replica grid"
    )


def test_sweep_throughput(benchmark, report):
    """Cold serial sweep: the baseline cells/sec of the engine."""
    cells = _grid()
    outcome = benchmark.pedantic(
        SweepRunner(n_jobs=1).run, args=(cells,), rounds=1, iterations=1
    )
    lines = [f"serial cold:   {outcome.stats.render()}"]

    with tempfile.TemporaryDirectory() as tmp:
        cached = SweepRunner(n_jobs=1, cache_dir=tmp)
        cold = cached.run(cells)
        warm = cached.run(cells)
        lines.append(f"cached cold:   {cold.stats.render()}")
        lines.append(f"cached warm:   {warm.stats.render()}")
        assert warm.stats.misses == 0, "warm cache must not re-simulate"
        assert warm.stats.hit_rate == 1.0
        assert warm.stats.cells_per_sec > cold.stats.cells_per_sec

    parallel = SweepRunner(n_jobs=2).run(cells)
    lines.append(f"parallel cold: {parallel.stats.render()}")
    for tag, result in outcome.results.items():
        assert parallel.results[tag] == result, f"parallel result differs for {tag}"

    report("sweep", "\n".join(lines))
