"""End-to-end benchmark of the NoPFS reproduction: whole jobs, layer split.

Run from the repository root::

    python3 e2ebench/run.py                          # every workload
    python3 e2ebench/run.py --workload search-bb --seed 3 --seconds 10
    python3 e2ebench/run.py --workload lassen-1024 --trace 1

Each workload runs in fresh child processes, one at a time (closed
loop, one client, reps back to back): a timed child measures the job
with tracing off; with ``--trace 1`` a second child runs one traced rep
and writes ``e2ebench/output/e2e-trace-<workload>.json``. Extra probe
children only import and build inputs, so set-up time is a median of
at least three samples. Times are reported at a nominal host speed:
each child also times a fixed reference loop, and every time is scaled
by how fast that loop ran beside it (see :func:`summarize`); the
human-readable lines show the times as measured too. The last stdout
line is one JSON object
(``correct``, ``attempted``, ``failed``, ``metrics``); the exit code is
non-zero when a check fails or the source tree is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUTPUT = HERE / "output"
SPEC = ROOT / "BENCHMARK.json"
#: Every run must end within this many seconds of starting.
DEADLINE_S = 170.0
#: Set-up time is the median of at least this many child start-ups.
SETUP_SAMPLES = 3
#: Nominal time of one pass of the reference loop (``child.reference_s``):
#: its median on a quiet 2-vCPU x86-64 VM (Python 3.11, numpy 2.4).
#: Times are reported at this host speed; never change it, or every
#: time metric rescales.
REF_S = 0.021


class HarnessError(RuntimeError):
    """A child crashed or overran: no result can be reported."""


def tail(samples: list[float]) -> tuple[int, float] | None:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(percentile, value)``; ``None`` below eleven samples.
    """
    ordered = sorted(samples)
    rank = len(ordered) - 10
    if rank < 1:
        return None
    return 100 * rank // len(ordered), ordered[rank - 1]


class Run:
    """One workload's children, spawned one at a time under a deadline."""

    def __init__(self, workload: str, seed: int, deadline: float, corrupt: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.corrupt = corrupt
        self.scratch = OUTPUT / f"scratch-{workload}-{os.getpid()}"
        self.setups: list[float] = []
        self.refs: list[float] = []

    def child(self, mode: str, *extra: str) -> dict[str, Any]:
        """Spawn ``child.py`` in ``mode`` and return its JSON report."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
        )
        # One hash seed for every child: set and dict layouts stay the
        # same from run to run instead of adding their own variance.
        env["PYTHONHASHSEED"] = "0"
        cmd = [
            sys.executable, str(HERE / "child.py"), "--workload", self.workload,
            "--mode", mode, "--seed", str(self.seed), "--scratch", str(self.scratch),
            "--output", str(OUTPUT), *extra,
        ]
        spawned = time.monotonic()
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True
        )
        try:
            stdout, _ = proc.communicate(timeout=max(1.0, self.deadline - spawned))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise HarnessError(f"{self.workload} {mode} child overran the deadline") from None
        if proc.returncode != 0:
            raise HarnessError(f"{self.workload} {mode} child exited {proc.returncode}")
        report = json.loads(stdout.strip().splitlines()[-1])
        self.setups.append(report["t_ready"] - spawned)
        self.refs += report["refs"]
        return report

    def execute(self, seconds: float, trace: bool) -> dict[str, Any]:
        """Every child of the run; returns the merged report."""
        self.scratch.mkdir(parents=True, exist_ok=True)
        try:
            extra: list[str] = []
            fill = None
            if self.workload == "paper-warm":
                extra = ["--cache-dir", str(self.scratch / "warm-cache")]
                fill = self.child("fill", *extra)
            flags = ["--corrupt"] if self.corrupt else []
            timed = self.child("timed", "--seconds", str(seconds), *flags, *extra)
            traced = self.child("traced", *extra) if trace else None
            while len(self.setups) < SETUP_SAMPLES:
                self.child("probe")
        finally:
            shutil.rmtree(self.scratch, ignore_errors=True)
        return summarize(self.workload, self.setups, self.refs, timed, traced, fill)


def at_nominal_speed(seconds: float, ref_s: float) -> float:
    """``seconds`` measured while the reference loop took ``ref_s``,
    rescaled to a host on which it takes :data:`REF_S`."""
    return seconds * REF_S / ref_s


def summarize(
    workload: str,
    setups: list[float],
    refs: list[float],
    timed: dict[str, Any],
    traced: dict[str, Any] | None,
    fill: dict[str, Any] | None,
) -> dict[str, Any]:
    """Metrics, counts and cross-child checks of one workload run.

    Times are reported at nominal host speed: each timed rep is rescaled
    by the reference pass just before it, the traced rep by the median
    of its child's passes, and set-up times by the median of every pass
    in the run (``refs``). The shared host's speed drifts by 10-60%
    over minutes, and the reference loop drifts with it.

    Every failure — a cell breaking an invariant, or a failed digest or
    cross-path check — counts as one failed operation.
    """
    failures = list(timed["failures"])
    digest = timed["digests"][0]
    if fill is not None:
        if fill["digests"][0] != digest:
            failures.append("warm results differ from the run that filled the cache")
        if fill["render"] != timed["render"]:
            failures.append("warm rendered output differs from the filling run's")
    reps = [at_nominal_speed(rep, ref) for rep, ref in zip(timed["reps"], timed["refs"])]
    job_s = statistics.median(reps)
    host_ref_s = statistics.median(refs)
    end_to_end = {
        "job_s": job_s,
        "cells_per_s": timed["answered"] / job_s,
        "setup_s": at_nominal_speed(statistics.median(setups), host_ref_s),
        "peak_rss_mb": timed["peak_rss_mb"],
    }
    attempted = timed["answered"] * len(reps)
    layers = None
    if traced is not None:
        failures += traced["failures"]
        if traced["digests"][0] != digest:
            failures.append("traced rep's results differ from the untraced reps'")
        layers = dict(traced["layers"])
        traced_s = at_nominal_speed(traced["reps"][0], statistics.median(traced["refs"]))
        layers["trace.overhead_ratio"] = traced_s / job_s - 1
        if layers["trace.root_coverage"] < 0.95:
            failures.append(f"root span covers {layers['trace.root_coverage']:.1%} of the job")
        attempted += traced["answered"]
    return {
        "workload": workload,
        "digest": digest,
        "reps": reps,
        "wall_job_s": statistics.median(timed["reps"]),
        "host_ref_s": host_ref_s,
        "setups": setups,
        "end_to_end": end_to_end,
        "layers": layers,
        "tail": tail(reps),
        "attempted": attempted,
        "failures": failures,
    }


def print_report(report: dict[str, Any], spec: dict[str, Any]) -> None:
    """Human-readable lines: every metric with its unit and sample count."""
    name, n = report["workload"], len(report["reps"])
    samples = {"setup_s": len(report["setups"]), "peak_rss_mb": 1}
    for metric in spec["end_to_end"]:
        value = report["end_to_end"][metric["name"]]
        count = samples.get(metric["name"], n)
        print(f"{name:12} {metric['name']:36} {value:14.6g} {metric['unit']:8} n={count}")
    if report["tail"] is not None:
        pct, value = report["tail"]
        print(f"{name:12} {'job_tail_s (p' + str(pct) + ')':36} {value:14.6g} {'s':8} n={n}")
    print(f"{name:12} {'job_s as measured (host speed)':36} {report['wall_job_s']:14.6g} {'s':8} n={n}")
    refs = f"reference pass (nominal {REF_S:g} s)"
    print(f"{name:12} {refs:36} {report['host_ref_s']:14.6g} {'s':8}")
    if report["layers"] is not None:
        for metric in spec["per_layer"]:
            value = report["layers"][metric["name"]]
            print(f"{name:12} {metric['name']:36} {value:14.6g} {metric['unit']:8} n=1")
    failed = len(report["failures"])
    print(f"{name:12} digest {report['digest']}  failed {failed}/{report['attempted']}")
    for failure in report["failures"]:
        print(f"{name:12} CHECK FAILED: {failure}")


def main(argv: list[str] | None = None) -> int:
    if not SPEC.is_file() or not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no BENCHMARK.json or src/repro under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=names,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="measured job time per timed child")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="also run one traced rep and report per-layer metrics")
    parser.add_argument("--json", type=Path, default=None, help="write the full reports here")
    parser.add_argument("--corrupt", action="store_true",
                        help="poison one result before the checks (they must fail)")
    args = parser.parse_args(argv)

    OUTPUT.mkdir(exist_ok=True)
    workloads = args.workload or names
    deadline = time.monotonic() + DEADLINE_S * len(workloads)
    reports = []
    try:
        for workload in workloads:
            run = Run(workload, args.seed, deadline, args.corrupt)
            reports.append(run.execute(args.seconds, bool(args.trace)))
            print_report(reports[-1], spec)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.json is not None:
        args.json.write_text(json.dumps(reports, indent=1))

    section, units = ("per_layer", "layers") if args.trace else ("end_to_end", "end_to_end")
    metrics = {}
    for report in reports:
        prefix = "" if len(reports) == 1 else f"{report['workload']}."
        for metric in spec[section]:
            metrics[prefix + metric["name"]] = {
                "value": report[units][metric["name"]], "unit": metric["unit"]
            }
    failed = sum(len(r["failures"]) for r in reports)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in reports),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
