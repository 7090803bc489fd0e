#!/usr/bin/env python
"""Per-phase timing breakdown for one simulator cell.

Times where a single ``Simulator.run`` actually spends its wall clock,
by phase:

``plan``
    :meth:`~repro.sim.engine.Simulator.plan_epoch` — policy scalars,
    epoch id resolution.
``resolve_fetch``
    The fetch-source resolution (:func:`repro.perfmodel.resolve_fetch`),
    which runs once per epoch to build the engine's
    :class:`~repro.sim.engine.FetchTable`. Per band, the pair index is
    billed to ``accumulate`` and the table gathers to ``other``.
``rng``
    Stream seeding — the noise streams' vectorized
    :meth:`~repro.sim.engine.Simulator.noise_stream_states` path and,
    for the stream-rewriting policies (``deepio:opportunistic``,
    ``locality_aware``, ``parallel_staging``), the shuffle streams'
    :meth:`~repro.sim.context.ScenarioContext.policy_stream_states`; or
    (with ``--fresh-rng``) one fresh :func:`repro.rng.generator` per
    worker's noise stream and per worker's rewritten stream, so the
    seeding share is measurable both ways.
``noise``
    :func:`~repro.sim.noise.apply_noise_matrix` — the draws and the
    multiplier scatter (stream seeding excluded; see ``rng``).
``accumulate``
    The :mod:`repro.sim.kernels` functions (batch totals, source
    totals, row accumulation, latency add, interference, warm-up
    availability) plus the lockstep scan.

Everything not covered lands in ``other`` (result assembly, write
times, Python glue). A timed call made inside another timed call (the
noise model's source histogram, the warm-up hash) is billed to the
outer one only. The tool only *observes* — every wrapper calls
straight through and the patched module attributes are restored
afterwards — so the simulated results are the production engine's,
bitwise. ``result_sha256`` digests the last run's canonical JSON, so
the two RNG modes can be checked for identical results.

Usage::

    python tools/profile_cell.py --workers 64 --repeats 5
    python tools/profile_cell.py --fresh-rng --json
    python tools/profile_cell.py --policy deepio:opportunistic --fresh-rng
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path
from typing import Callable

_ROOT = Path(__file__).resolve().parent.parent
for entry in (str(_ROOT), str(_ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from repro.api import make_policy  # noqa: E402
from repro.datasets import DatasetModel  # noqa: E402
from repro.perfmodel import sec6_cluster  # noqa: E402
from repro.rng import generator  # noqa: E402
from repro.sim import SimulationConfig, Simulator  # noqa: E402
from repro.sim import engine as engine_mod  # noqa: E402
from repro.sim import kernels as kernels_mod  # noqa: E402

PHASES = ("plan", "resolve_fetch", "rng", "noise", "accumulate")


def _timed(
    fn: Callable, phases: dict[str, float], bucket: str, active: list[str]
) -> Callable:
    """A pass-through wrapper accumulating ``fn``'s wall time.

    ``active`` is shared by every wrapper of one profile: a call made
    while another timed call is running is not timed again.
    """

    def wrapper(*args, **kwargs):
        if active:
            return fn(*args, **kwargs)
        active.append(bucket)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            phases[bucket] += time.perf_counter() - start
            active.pop()

    return wrapper


def _scenario(args: argparse.Namespace) -> SimulationConfig:
    samples = args.workers * args.batch * args.iterations
    dataset = DatasetModel("profile-cell", samples, 0.15, 0.05)
    return SimulationConfig(
        dataset=dataset,
        system=sec6_cluster(num_workers=args.workers),
        batch_size=args.batch,
        num_epochs=args.epochs,
        seed=args.seed,
    )


def profile_cell(args: argparse.Namespace) -> dict:
    """Run the cell ``--repeats`` times and return the phase breakdown."""
    phases = {name: 0.0 for name in PHASES}
    active: list[str] = []

    def timed(fn: Callable, bucket: str) -> Callable:
        return _timed(fn, phases, bucket, active)

    config = _scenario(args)
    sim = Simulator(config)
    sim.plan_epoch = timed(sim.plan_epoch, "plan")
    if args.fresh_rng:
        seed = config.seed

        def fresh_noise_states(epoch: int, rows: slice) -> list[dict]:
            return [
                generator(seed, "noise", epoch, worker).bit_generator.state
                for worker in range(rows.start, rows.stop)
            ]

        def fresh_policy_states(tag: str, epoch: int) -> list[dict]:
            return [
                generator(seed, "policy", tag, worker, epoch).bit_generator.state
                for worker in range(args.workers)
            ]

        sim.noise_stream_states = timed(fresh_noise_states, "rng")
        sim.ctx.policy_stream_states = timed(fresh_policy_states, "rng")
    else:
        sim.noise_stream_states = timed(sim.noise_stream_states, "rng")
        sim.ctx.policy_stream_states = timed(sim.ctx.policy_stream_states, "rng")

    policy = make_policy(args.policy)
    # (module, attribute, phase) for every module-level callable the
    # engine reaches by attribute lookup at call time.
    patches = [
        (engine_mod, "resolve_fetch", "resolve_fetch"),
        (engine_mod, "apply_noise_matrix", "noise"),
        (engine_mod, "lockstep_epoch", "accumulate"),
        *(
            (kernels_mod, name, "accumulate")
            for name in kernels_mod.__all__
            if callable(getattr(kernels_mod, name))
        ),
    ]
    saved = [(module, name, getattr(module, name)) for module, name, _ in patches]
    total = 0.0
    try:
        for module, name, bucket in patches:
            setattr(module, name, timed(getattr(module, name), bucket))
        for _ in range(args.repeats):
            start = time.perf_counter()
            result = sim.run(policy)
            total += time.perf_counter() - start
    finally:
        for module, name, fn in saved:
            setattr(module, name, fn)

    covered = sum(phases.values())
    phases["other"] = max(0.0, total - covered)
    canonical = json.dumps(result.to_dict(), sort_keys=True, separators=(",", ":"))
    return {
        "policy": policy.name,
        "scenario": config.scenario,
        "workers": args.workers,
        "batch_size": args.batch,
        "iterations": args.iterations,
        "epochs": args.epochs,
        "seed": args.seed,
        "repeats": args.repeats,
        "rng_mode": "fresh" if args.fresh_rng else "vectorized",
        "total_s": total,
        "phases_s": dict(phases),
        "shares": {
            name: (seconds / total if total > 0 else 0.0)
            for name, seconds in phases.items()
        },
        "result_sha256": hashlib.sha256(canonical.encode("utf-8")).hexdigest(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workers", type=int, default=64, help="N (default 64)")
    parser.add_argument("--batch", type=int, default=16, help="B (default 16)")
    parser.add_argument(
        "--iterations", type=int, default=16, help="T per epoch (default 16)"
    )
    parser.add_argument("--epochs", type=int, default=3, help="E (default 3)")
    parser.add_argument("--seed", type=int, default=5, help="scenario seed")
    parser.add_argument(
        "--policy", default="staging_buffer",
        help="policy spec (repro list policies; default staging_buffer)",
    )
    parser.add_argument(
        "--repeats", type=int, default=5,
        help="runs to accumulate over (default 5)",
    )
    parser.add_argument(
        "--fresh-rng", action="store_true",
        help="seed each worker's noise stream and rewritten stream with a "
        "fresh generator() instead of vectorized generator_states() families",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit the breakdown as JSON"
    )
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    report = profile_cell(args)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0
    print(
        f"{report['policy']} @ {report['scenario']} "
        f"(x{report['repeats']}, rng={report['rng_mode']})"
    )
    print(f"  total        {report['total_s'] * 1e3:9.2f} ms")
    for name in (*PHASES, "other"):
        seconds = report["phases_s"][name]
        share = report["shares"][name]
        print(f"  {name:<12} {seconds * 1e3:9.2f} ms  {share:6.1%}")
    print(f"  result       sha256 {report['result_sha256']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
