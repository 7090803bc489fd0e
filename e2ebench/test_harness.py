"""Self-tests of the end-to-end benchmark harness.

Run from the repository root: ``python -m pytest e2ebench -q``.
"""

from __future__ import annotations

import copy
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import checks
import child
import pytest
import run
import tracing

from repro.api import Scenario, Session

SPEC = json.loads(run.SPEC.read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
WORKLOADS = {w["name"] for w in SPEC["workloads"]}


# -- BENCHMARK.json ---------------------------------------------------------


def test_spec_names_and_sizes():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128


def test_spec_bounds_and_setup_metric():
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert bounds["setup_s"] == max(bounds.values())


def test_every_layer_metric_names_an_end_to_end_metric_and_workload():
    assert set(tracing.LAYER_MAP) == {m["name"] for m in SPEC["per_layer"]}
    for metric, (moves, workloads) in tracing.LAYER_MAP.items():
        assert moves in END_TO_END, metric
        assert workloads and set(workloads) <= WORKLOADS, metric


def test_spec_workloads_are_the_harness_workloads():
    assert set(child.WORKLOADS) == WORKLOADS


# -- statistics and spans ---------------------------------------------------


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    assert run.tail([1.0] * 10) is None
    samples = [float(i) for i in range(30, 0, -1)]
    assert run.tail(samples) == (66, 20.0)  # 10 samples (21..30) lie beyond it
    assert run.tail(samples[:11]) == (9, 20.0)


def test_times_are_rescaled_to_nominal_host_speed():
    slow = 2 * run.REF_S
    timed = {"failures": [], "digests": ["d"], "reps": [4.0, 2.0, 3.0],
             "refs": [slow, run.REF_S, slow], "answered": 6, "peak_rss_mb": 100.0}
    report = run.summarize("w", [2.0, 3.0, 4.0], [slow] * 3, timed, None, None)
    assert report["reps"] == [2.0, 2.0, 1.5]
    assert report["end_to_end"]["job_s"] == 2.0 and report["wall_job_s"] == 3.0
    assert report["end_to_end"]["cells_per_s"] == 3.0
    assert report["end_to_end"]["setup_s"] == 1.5


def span(id_, name, parent, start, end, **attrs):
    return {"id": id_, "name": name, "parent": parent, "start": start, "end": end,
            "active": end - start, **attrs}


def test_self_time_subtracts_children_and_partitions_the_root():
    spans = [
        span(0, "api", None, 0.0, 10.0),
        span(1, "sweep.runner", 0, 1.0, 5.0),
        span(2, "sweep.cache.get", 1, 2.0, 3.0, hit=True),
        span(3, "sim", 0, 6.0, 9.0, cells=2),
    ]
    own = tracing.self_times(spans)
    assert own == {0: 3.0, 1: 3.0, 2: 1.0, 3: 3.0}
    assert sum(own.values()) == spans[0]["active"]
    metrics = tracing.layer_metrics(spans, {}, wall_s=10.0, jobs=1)
    assert metrics["api.self_s"] == 3.0 and metrics["sim.prepare_s"] == 3.0
    assert metrics["sweep.cache.hits"] == 1 and metrics["sweep.cache.hit_ratio"] == 1.0
    assert metrics["sim.cells"] == 2 and metrics["trace.root_coverage"] == 1.0


def test_generator_span_is_billed_only_while_it_runs():
    ticks = iter([0.0, 1.0, 2.0, 2.0, 3.0, 3.0, 5.0, 10.0])
    tracer = tracing.Tracer("w", clock=lambda: next(ticks))
    root = tracer.open("sweep.runner")          # 0
    executor = tracer.open("sweep.executors")   # 1
    tracer.pause(executor)                      # 2: the generator yielded
    put = tracer.open("sweep.cache.put")        # 2
    tracer.pause(put)                           # 3
    tracer.resume(executor)                     # 3
    tracer.pause(executor)                      # 5
    tracer.pause(root)                          # 10
    spans = tracer.export()
    own = tracing.self_times(spans)
    assert (executor["active"], put["active"]) == (3.0, 1.0)
    assert own[root["id"]] == 6.0 and put["parent"] == root["id"]
    metrics = tracing.layer_metrics(spans, {"worker_busy_s": 2.0}, wall_s=10.0, jobs=1)
    assert metrics["sweep.executors.wall_s"] == 4.0  # lifetime: 1 -> 5
    assert metrics["sweep.executors.busy_ratio"] == 0.5


def test_tracer_restores_every_patched_callable():
    from repro.sweep.runner import SweepRunner

    original = SweepRunner.__dict__["run"]
    tracer = tracing.Tracer("w")
    tracer.install()
    assert SweepRunner.__dict__["run"] is not original
    tracer.uninstall()
    assert SweepRunner.__dict__["run"] is original


# -- output checks ----------------------------------------------------------


@pytest.fixture(scope="module")
def results():
    scenarios = [
        Scenario(dataset="mnist", system="sec6_cluster:4", policy=policy,
                 batch_size=16, num_epochs=3)
        for policy in ("nopfs", "naive", "perfect")
    ]
    outcome = Session(jobs=1).sweep(scenarios)
    return {r.policy: r.to_dict() for r in outcome.results.values()}


def test_sound_results_pass(results):
    assert all(checks.result_problems(r) == [] for r in results.values())


@pytest.mark.parametrize("corrupt", [
    lambda r: r["epochs"].reverse(),
    lambda r: r["epochs"][1].update(time_s=math.nan),
    lambda r: r["epochs"][0].update(stall_max_s=-1.0),
    lambda r: r["epochs"][2]["fetch_counts"].__setitem__(0, r["epochs"][2]["fetch_counts"][0] + 1),
    lambda r: [e.update(fetch_counts=[0, 0, 0, 0]) for e in r["epochs"]],
])
def test_invariant_checker_rejects_a_corrupted_result(results, corrupt):
    bad = copy.deepcopy(results["nopfs"])
    corrupt(bad)
    assert checks.result_problems(bad)


def test_ideal_policy_may_fetch_nothing(results):
    assert all(sum(e["fetch_counts"]) == 0 for e in results["perfect"]["epochs"])


def test_digest_ignores_order_but_not_content(results):
    outcomes = [(r, None) for r in results.values()] + [(None, "unsupported")]
    assert checks.digest(outcomes) == checks.digest(outcomes[::-1])
    changed = copy.deepcopy(outcomes)
    changed[0][0]["prestage_time_s"] += 1e-12
    assert checks.digest(changed) != checks.digest(outcomes)


# -- the command ------------------------------------------------------------


def bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", "search-bb",
         "--seed", "2", "--seconds", "0", *args],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170,
    )


def test_search_bb_smoke_run_passes_and_traces():
    done = bench("--trace", "1")
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    trace = json.loads((run.OUTPUT / "e2e-trace-search-bb.json").read_text())
    assert {s["name"] for s in trace["spans"]} >= {"search", "search.bound", "api", "sim"}


def test_corrupted_result_fails_the_command():
    done = bench("--corrupt")
    assert done.returncode != 0
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert not result["correct"] and result["failed"] >= 1


def test_missing_source_tree_exits_without_a_result(tmp_path: Path):
    (tmp_path / "e2ebench").mkdir()
    for path in run.HERE.glob("*.py"):
        (tmp_path / "e2ebench" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text(run.SPEC.read_text())
    done = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", "search-bb"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0 and done.stdout == ""
