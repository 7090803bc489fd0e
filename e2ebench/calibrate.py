"""Measure the run-to-run spread the end-to-end bounds must cover.

Runs ``run.py`` once per (workload, seed) — seeds ``1..--runs`` — and
prints, per workload and end-to-end metric, the median, the
interquartile range as a share of the median (``statistics.quantiles``
with ``n=4``), the largest relative difference between any two runs,
and each run's wall time. ``wall_job_s`` is the job time as measured,
before the rescaling to nominal host speed, so the two spreads show
what the rescaling removes. Run from the repository root::

    python3 e2ebench/calibrate.py --runs 10 [--workload W ...]
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import run


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def main(argv: list[str] | None = None) -> int:
    spec = json.loads(run.SPEC.read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--json", type=Path, default=None, help="write every measured value here")
    args = parser.parse_args(argv)
    raw: dict[str, dict[str, list[float]]] = {}
    report = run.OUTPUT / "calibrate-run.json"
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
        # The job time as measured, before rescaling to nominal host speed.
        values["wall_job_s"] = []
        walls = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            start = time.monotonic()
            done = subprocess.run(
                [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--json", str(report)],
                cwd=run.ROOT, capture_output=True, text=True, check=True,
            )
            walls.append(time.monotonic() - start)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed} failed its checks")
            for name, metric in result["metrics"].items():
                values[name].append(metric["value"])
            values["wall_job_s"].append(json.loads(report.read_text())[0]["wall_job_s"])
        for name, series in values.items():
            worst = max(series) / min(series) - 1
            print(f"{workload:12} {name:12} median {statistics.median(series):10.5g} "
                  f"iqr/median {spread(series):.4f} max-pair {worst:.4f}")
        print(f"{workload:12} wall per run: median {statistics.median(walls):.1f}s "
              f"max {max(walls):.1f}s", flush=True)
        raw[workload] = {**values, "wall_s": walls}
        if args.json is not None:
            args.json.write_text(json.dumps(raw, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
