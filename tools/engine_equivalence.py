#!/usr/bin/env python
"""CI smoke: the epoch-matrix engine's sweep cache ≡ the seed engine's.

Builds two sweep caches over the same cells — one filled by the frozen
scalar reference engine (``tests/sim/reference_engine.py``, the seed
per-worker loop), one by the production vectorized engine — writing
both through :class:`repro.sweep.cache.ResultCache`. Because entries
are content-addressed by ``(config, policy, code)`` and serialized
canonically, a plain ``diff -r`` between the two directories proves the
engines produce byte-identical ``SimulationResult`` JSON (and therefore
identical cache entries) for every cell, the same way the PR 4 smoke
proves executor equivalence.

Cells: the standard demo grid plus the full Fig 8 nine-policy lineup on
a scaled-down MNIST scenario, so every registered policy — including
the unsupported/PolicyError path — flows through both engines.

``--share-seeds`` routes every cell through ``Simulator.run_seed``
from a base simulator on a *different* seed (the reseeded sibling
simulator the sweep executors' seed replicas run on),
and ``--run-many`` evaluates each scenario's cells together through
the epoch-major multi-policy path (``Simulator.run_many_outcomes`` /
``run_many_seed``) — both execution knobs with a bitwise-identity
contract, so the byte-diff must stay empty for every combination,
including ``--run-many --share-seeds``. ``--tile-rows N`` runs the
production engine in row bands of ``N`` workers, so every band's row
offsets (local-tier lookups, noise streams, per-source totals) are
exercised; the reference engine has no tiles. Every cell runs on two
workers, so ``--run-many --tile-rows 1`` walks each scenario's lineup
over two bands, each band's gather, noise streams and draws shared by
the lineup. ``--helper`` builds the production simulators with a
helper thread: with ``--run-many --tile-rows 1 --helper`` every
multi-policy lineup epoch is priced on two threads, its band loop
staging each item while the helper finishes the earlier ones.

Usage::

    python tools/engine_equivalence.py REFERENCE_DIR ENGINE_DIR
    python tools/engine_equivalence.py REFERENCE_DIR ENGINE_DIR --share-seeds
    python tools/engine_equivalence.py REFERENCE_DIR ENGINE_DIR --run-many
    python tools/engine_equivalence.py REFERENCE_DIR ENGINE_DIR --run-many --share-seeds
    python tools/engine_equivalence.py REFERENCE_DIR ENGINE_DIR --tile-rows 1
    python tools/engine_equivalence.py REFERENCE_DIR ENGINE_DIR --run-many --tile-rows 1
    python tools/engine_equivalence.py REFERENCE_DIR ENGINE_DIR --run-many --tile-rows 1 --helper
    diff -r REFERENCE_DIR ENGINE_DIR
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
for entry in (str(_ROOT), str(_ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from repro.api import fig8_lineup  # noqa: E402
from repro.datasets import mnist  # noqa: E402
from repro.errors import PolicyError  # noqa: E402
from repro.perfmodel import sec6_cluster  # noqa: E402
from repro.sim import SimulationConfig, Simulator  # noqa: E402
from repro.sweep.cache import CachedOutcome, ResultCache, cell_key  # noqa: E402
from repro.sweep.cli import demo_grid  # noqa: E402
from repro.sweep.grid import ScenarioGrid  # noqa: E402
from tests.sim.reference_engine import ReferenceSimulator  # noqa: E402


def _cells():
    cells = demo_grid().cells()
    lineup_grid = ScenarioGrid(
        datasets=[mnist(1).scaled(0.2)],
        systems=[sec6_cluster(num_workers=2)],
        policies=fig8_lineup(),
        batch_sizes=[16],
        epoch_counts=[2],
    )
    cells.extend(lineup_grid.cells())
    return cells


def _outcome(run) -> CachedOutcome:
    try:
        return CachedOutcome(result=run(), error=None)
    except PolicyError as exc:
        return CachedOutcome(result=None, error=str(exc))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("reference_dir", help="cache filled by the frozen seed engine")
    parser.add_argument("engine_dir", help="cache filled by the production engine")
    parser.add_argument(
        "--share-seeds", action="store_true",
        help="route every cell through Simulator.run_seed from a base "
        "simulator on a different seed (the reseeded sibling path)",
    )
    parser.add_argument(
        "--run-many", action="store_true",
        help="evaluate each scenario's cells together through the "
        "epoch-major multi-policy path (run_many_outcomes, or "
        "run_many_seed with --share-seeds)",
    )
    parser.add_argument(
        "--tile-rows", type=int, default=None, metavar="N",
        help="execute the production engine in row bands of N workers",
    )
    parser.add_argument(
        "--helper", action="store_true",
        help="finish the production simulators' multi-policy lineup "
        "epochs on a helper thread",
    )
    args = parser.parse_args(argv)
    reference_cache = ResultCache(args.reference_dir)
    engine_cache = ResultCache(args.engine_dir)

    simulators: dict[str, tuple[ReferenceSimulator, Simulator]] = {}
    #: scenario JSON -> {id(policy): outcome} under --run-many.
    many_outcomes: dict[str, dict[int, CachedOutcome]] = {}
    mismatches = 0
    cells = _cells()
    for cell in cells:
        config: SimulationConfig = cell.config
        key = cell_key(config, cell.policy)
        scenario = json.dumps(config.to_dict(), sort_keys=True)
        if scenario not in simulators:
            engine_config = config
            if args.share_seeds:
                # The engine simulator lives on a *different* seed; every
                # run below reaches the cell's true seed via run_seed.
                engine_config = dataclasses.replace(config, seed=config.seed + 1)
            simulators[scenario] = (
                ReferenceSimulator(config),
                Simulator(engine_config, tile_rows=args.tile_rows, helper=args.helper),
            )
        reference_sim, engine_sim = simulators[scenario]

        ref = _outcome(lambda: reference_sim.run(cell.policy))
        if args.run_many:
            batch = many_outcomes.get(scenario)
            if batch is None:
                peers = [
                    c
                    for c in cells
                    if json.dumps(c.config.to_dict(), sort_keys=True) == scenario
                ]
                policies = [c.policy for c in peers]
                if args.share_seeds:
                    raw = engine_sim.run_many_seed(policies, config.seed)
                else:
                    raw = engine_sim.run_many_outcomes(policies)
                batch = many_outcomes[scenario] = {
                    id(policy): (
                        CachedOutcome(result=None, error=str(outcome))
                        if isinstance(outcome, PolicyError)
                        else CachedOutcome(result=outcome, error=None)
                    )
                    for policy, outcome in zip(policies, raw)
                }
            new = batch[id(cell.policy)]
        elif args.share_seeds:
            new = _outcome(lambda: engine_sim.run_seed(cell.policy, config.seed))
        else:
            new = _outcome(lambda: engine_sim.run(cell.policy))
        reference_cache.put(key, ref)
        engine_cache.put(key, new)

        ref_desc = ref.error if ref.result is None else ref.result.to_dict()
        new_desc = new.error if new.result is None else new.result.to_dict()
        status = "ok" if ref_desc == new_desc else "MISMATCH"
        mismatches += status != "ok"
        print(f"[{status}] {cell.policy.name} @ {config.scenario} B={config.batch_size}")

    print(f"{len(cells)} cells, {mismatches} mismatches")
    return 1 if mismatches else 0


if __name__ == "__main__":
    raise SystemExit(main())
