"""The seed (pre-vectorization) simulation engine, kept verbatim.

This is the per-worker scalar loop the epoch-matrix engine in
:mod:`repro.sim.engine` replaced. It is retained — outside the
``repro`` package, so it never ships and never enters the sweep-cache
code fingerprint — as the ground truth for the bitwise-equivalence
suite (``tests/sim/test_engine_equivalence.py``), the CI cache-diff
smoke (``tools/engine_equivalence.py``) and the old-vs-new speedup
benchmark (``benchmarks/bench_engine.py``).

Do not "improve" this module: its value is that it computes exactly
what the seed engine computed, one worker at a time.
"""

from __future__ import annotations

import numpy as np

from repro.errors import PolicyError
from repro.perfmodel import Source, resolve_fetch, write_times
from repro.rng import generator
from repro.sim.config import SimulationConfig
from repro.sim.context import ScenarioContext
from repro.sim.lockstep import lockstep_epoch
from repro.sim.noise import apply_noise
from repro.sim.policies.base import Policy, PreparedPolicy
from repro.sim.result import BatchTimeStats, EpochResult, SimulationResult

__all__ = ["ReferenceSimulator", "reference_run"]

_HASH_MULT = np.uint64(0x9E3779B97F4A7C15)


def _hash01(ids: np.ndarray) -> np.ndarray:
    """Deterministic per-sample uniforms in [0, 1) (splitmix-style)."""
    with np.errstate(over="ignore"):
        x = ids.astype(np.uint64) * _HASH_MULT
        x ^= x >> np.uint64(31)
        x *= np.uint64(0xFF51AFD7ED558CCD)
        x ^= x >> np.uint64(33)
    return x.astype(np.float64) / float(2**64)


def reference_run(
    config: SimulationConfig, policy: Policy, ctx: ScenarioContext | None = None
) -> SimulationResult:
    """Run ``policy`` through the seed scalar engine."""
    return ReferenceSimulator(config, ctx=ctx).run(policy)


class ReferenceSimulator:
    """The seed engine: per-worker Python loop over every epoch."""

    def __init__(
        self, config: SimulationConfig, ctx: ScenarioContext | None = None
    ) -> None:
        self.config = config
        self.ctx = ctx if ctx is not None else ScenarioContext(config)

    def run(self, policy: Policy) -> SimulationResult:
        prep = policy.prepare(self.ctx)
        return self._run_prepared(policy, prep)

    # -- internals (verbatim seed code) ------------------------------------

    def _lookahead_batches(self, prep: PreparedPolicy) -> int | None:
        if prep.lookahead_batches is not None:
            return prep.lookahead_batches
        batch_mb = self.config.batch_size * self.config.dataset.mean_realized_size_mb
        if batch_mb <= 0:
            return None
        return max(1, int(self.config.system.staging.capacity_mb / batch_mb))

    def _uncovered_fraction(self, prep: PreparedPolicy) -> float:
        if prep.best_map is None:
            return 1.0
        sizes = self.ctx.sizes_mb
        uncovered = prep.best_map < 0
        total = float(sizes.sum())
        if total <= 0:
            return 0.0
        return float(sizes[uncovered].sum()) / total

    def _epoch_pfs_fraction(self, prep: PreparedPolicy, epoch: int) -> float:
        if prep.ideal:
            return 0.0
        if epoch < prep.warm_epochs:
            return 1.0
        if prep.warm_pfs_fraction is not None:
            return float(prep.warm_pfs_fraction)
        if not prep.pfs_in_warm:
            return 0.0
        return self._uncovered_fraction(prep)

    def _run_prepared(self, policy: Policy, prep: PreparedPolicy) -> SimulationResult:
        cfg = self.config
        ctx = self.ctx
        system = cfg.system
        n = ctx.num_workers
        t_iters = cfg.iterations_per_epoch
        batch = cfg.batch_size
        p0 = system.staging.threads
        lookahead = self._lookahead_batches(prep)

        epoch_results: list[EpochResult] = []
        for epoch in range(cfg.num_epochs):
            warm = prep.plan is not None and epoch >= prep.warm_epochs
            fraction = self._epoch_pfs_fraction(prep, epoch)
            gamma = system.pfs.effective_gamma(n, fraction)
            pfs_share = float(system.pfs.per_worker_mbps(gamma)) if gamma > 0 else 0.0
            pfs_latency = system.pfs.per_sample_latency(gamma) if gamma > 0 else 0.0
            pfs_share_per_thread = pfs_share / p0 if prep.overlap else pfs_share

            batch_reads = np.zeros((n, t_iters))
            batch_comps = np.zeros((n, t_iters))
            fetch_seconds = np.zeros(4)
            fetch_bytes = np.zeros(4)
            fetch_counts = np.zeros(4, dtype=np.int64)

            for worker in range(n):
                use_override = prep.pools is not None and (
                    warm or prep.warm_epochs == 0
                )
                if use_override:
                    ids = ctx.tiled_epoch_stream(prep.pools[worker], worker, epoch, prep.name)
                else:
                    ids = ctx.worker_epoch_ids(worker, epoch)
                sizes = ctx.sizes_mb[ids]
                comps = sizes / system.compute_mbps
                batch_comps[worker] = comps.reshape(t_iters, batch).sum(axis=1)
                if prep.ideal:
                    continue

                if warm:
                    local_cls = prep.lookups[worker].classes_of(ids)
                    remote_cls = prep.best_map[ids]
                else:
                    local_cls = np.full(ids.shape, -1, dtype=np.int8)
                    remote_cls = local_cls
                    if prep.plan is not None and prep.best_map is not None:
                        progress = (
                            np.arange(1, ids.size + 1, dtype=np.float64)
                            / max(ids.size, 1)
                        )
                        available = _hash01(ids) < progress
                        remote_cls = np.where(
                            available, prep.best_map[ids], np.int8(-1)
                        ).astype(np.int8)
                res = resolve_fetch(
                    sizes, local_cls, remote_cls, system, pfs_share_per_thread
                )
                if np.any(res.sources == int(Source.NONE)):
                    raise PolicyError(
                        f"policy {policy.name!r} scheduled a sample with no "
                        f"available source (epoch {epoch}, worker {worker})"
                    )
                fetch = res.fetch_times
                if pfs_latency > 0:
                    fetch = fetch + pfs_latency * (
                        res.sources == int(Source.PFS)
                    )
                rng = generator(cfg.seed, "noise", epoch, worker)
                fetch = apply_noise(fetch, res.sources, cfg.noise, rng)
                reads = fetch + write_times(sizes, system)

                divisor = float(p0) if prep.overlap else 1.0
                fetch_seconds += (
                    np.bincount(res.sources, weights=fetch, minlength=4)[:4]
                    / divisor
                )
                worker_bytes = np.bincount(
                    res.sources, weights=sizes, minlength=4
                )[:4]
                fetch_bytes += worker_bytes
                fetch_counts += np.bincount(res.sources, minlength=4)[:4]

                if cfg.network_interference > 0:
                    total_b = worker_bytes.sum()
                    if total_b > 0:
                        nonlocal_frac = (
                            worker_bytes[int(Source.PFS)]
                            + 0.5 * worker_bytes[int(Source.REMOTE)]
                        ) / total_b
                        batch_comps[worker] *= (
                            1.0 + cfg.network_interference * nonlocal_frac
                        )

                per_batch_read = reads.reshape(t_iters, batch).sum(axis=1)
                if prep.overlap:
                    batch_reads[worker] = per_batch_read / p0
                else:
                    batch_comps[worker] += per_batch_read

            step = lockstep_epoch(
                batch_reads,
                batch_comps,
                lookahead if prep.overlap else None,
                barrier=cfg.barrier,
            )
            durations = step.batch_durations
            epoch_results.append(
                EpochResult(
                    epoch=epoch,
                    time_s=step.epoch_time,
                    stall_mean_s=float(step.worker_stalls.mean()),
                    stall_max_s=float(step.worker_stalls.max()),
                    fetch_seconds=tuple((fetch_seconds / n).tolist()),
                    fetch_bytes=tuple(fetch_bytes.tolist()),
                    fetch_counts=tuple(int(c) for c in fetch_counts),
                    batch_stats=BatchTimeStats.from_durations(durations),
                    gamma=float(gamma),
                    batch_durations=durations if cfg.record_batch_times else None,
                )
            )

        return SimulationResult(
            policy=policy.name,
            scenario=cfg.scenario,
            prestage_time_s=prep.prestage_time_s,
            accesses_full_dataset=prep.accesses_full_dataset,
            epochs=tuple(epoch_results),
        )
