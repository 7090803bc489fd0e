"""Executor protocol: serial/process/batched equivalence, events, failures."""

import dataclasses
import os
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.datasets import DatasetModel, imagenet22k, mnist
from repro.errors import ConfigurationError
from repro.experiments.common import policy_cells, scaled_scenario
from repro.perfmodel import sec6_cluster
from repro.sim import (
    LBANNPolicy,
    NaivePolicy,
    NoPFSPolicy,
    SimulationConfig,
    StagingBufferPolicy,
)
from repro.sweep import (
    BatchedExecutor,
    CellCached,
    CellFinished,
    CellStarted,
    CellUnsupported,
    InMemoryBackend,
    SweepCell,
    SweepFinished,
    SweepRunner,
    SweepStarted,
    executors,
    resolve_executor,
)
from repro.sweep.executors import CellTask, SerialExecutor


class ExplodingPolicy(NaivePolicy):
    """Simulates an unexpected (non-PolicyError) worker crash."""

    name = "exploding"

    def prepare(self, ctx):
        raise RuntimeError("boom")


POLICIES = [NaivePolicy(), StagingBufferPolicy(), NoPFSPolicy()]


@pytest.fixture(scope="module")
def config():
    return scaled_scenario(
        mnist(0).scaled(0.2), sec6_cluster(num_workers=2), batch_size=16, num_epochs=2
    )


@pytest.fixture(scope="module")
def multi_scenario_cells(config):
    """Two scenarios x three policies: exercises batching across configs."""
    other = dataclasses.replace(config, batch_size=32)
    return policy_cells(config, POLICIES) + policy_cells(
        other, POLICIES, tag_fn=lambda p: f"b32/{p.name}"
    )


@pytest.fixture(scope="module")
def seed_replica_cells(config):
    """Three seeds x three policies of one scenario, seed-major."""
    cells = []
    for seed in (1, 2, 3):
        seeded = dataclasses.replace(config, seed=seed)
        cells += policy_cells(seeded, POLICIES, tag_fn=lambda p, s=seed: f"s{s}/{p.name}")
    return cells


def _tasks(cells):
    return [
        CellTask(index=i, cell=cell, config_dict=cell.config.to_dict())
        for i, cell in enumerate(cells)
    ]


class TestResolution:
    def test_default_serial_for_one_job(self):
        assert SweepRunner(n_jobs=1).executor.name == "serial"

    def test_default_batched_for_many_jobs(self):
        assert SweepRunner(n_jobs=2).executor.name == "batched"

    def test_explicit_name_wins_over_default(self):
        assert SweepRunner(n_jobs=4, executor="serial").executor.name == "serial"
        assert SweepRunner(n_jobs=1, executor="process").executor.name == "process"

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown executor"):
            SweepRunner(n_jobs=2, executor="threads")

    def test_instance_passes_through(self):
        executor = BatchedExecutor(3)
        assert resolve_executor(executor, 8) is executor

    def test_custom_protocol_implementation_accepted(self):
        class EchoExecutor:
            name = "echo"
            in_process = True

            def execute(self, tasks, emit):
                return iter(())

        assert resolve_executor(EchoExecutor(), 1).name == "echo"

    def test_stats_report_executor_name(self, multi_scenario_cells):
        outcome = SweepRunner(n_jobs=2, executor="process").run(multi_scenario_cells[:1])
        assert outcome.stats.executor == "process"
        assert "executor=process" in outcome.stats.render()


class TestEquivalence:
    """ISSUE 4 acceptance: bitwise-identical results across executors."""

    def test_all_executors_bitwise_identical(self, multi_scenario_cells):
        serial = SweepRunner(n_jobs=1, executor="serial").run(multi_scenario_cells)
        process = SweepRunner(n_jobs=2, executor="process").run(multi_scenario_cells)
        batched = SweepRunner(n_jobs=2, executor="batched").run(multi_scenario_cells)
        assert serial.results.keys() == process.results.keys() == batched.results.keys()
        for tag in serial.results:
            assert serial[tag].to_json() == process[tag].to_json(), tag
            assert serial[tag].to_json() == batched[tag].to_json(), tag

    def test_executors_populate_interchangeable_caches(self, multi_scenario_cells):
        """Any executor's cache serves any other executor warm."""
        backend = InMemoryBackend()
        SweepRunner(n_jobs=2, executor="batched", cache=backend).run(multi_scenario_cells)
        warm = SweepRunner(n_jobs=1, executor="serial", cache=backend).run(
            multi_scenario_cells
        )
        assert warm.stats.misses == 0
        assert warm.stats.hits == len(multi_scenario_cells)

    def test_unsupported_cells_agree_across_executors(self):
        config = scaled_scenario(
            imagenet22k(0), sec6_cluster(), batch_size=32, num_epochs=2, scale=0.01
        )
        cells = [SweepCell(tag="lbann", config=config, policy=LBANNPolicy("dynamic"))]
        for executor in ("serial", "process", "batched"):
            outcome = SweepRunner(n_jobs=2, executor=executor).run(cells)
            assert outcome.unsupported == ("lbann",), executor
            assert outcome.errors["lbann"], executor


class TestBatching:
    def test_groups_by_scenario(self, multi_scenario_cells):
        batches = BatchedExecutor.group(_tasks(multi_scenario_cells))
        assert [len(b) for b in batches] == [3, 3]  # one batch per scenario
        for batch in batches:
            configs = {id(t.cell.config) for t in batch}
            assert len(configs) == 1

    def test_equal_configs_share_a_batch_even_as_distinct_objects(self, config):
        clone = dataclasses.replace(config)  # equal content, different object
        cells = policy_cells(config, [NaivePolicy()]) + policy_cells(
            clone, [NoPFSPolicy()], tag_fn=lambda p: f"clone/{p.name}"
        )
        tasks = [
            CellTask(index=i, cell=cell, config_dict=cell.config.to_dict())
            for i, cell in enumerate(cells)
        ]
        assert [len(b) for b in BatchedExecutor.group(tasks)] == [2]

    def test_seed_replicas_fold_into_one_batch(self, seed_replica_cells):
        """Cells differing only in SimulationConfig.seed share a batch."""
        tasks = _tasks(seed_replica_cells)
        assert [len(b) for b in BatchedExecutor.group(tasks)] == [9]

    def test_oversized_batch_cut_into_contiguous_chunks(self, seed_replica_cells):
        """A batch longer than ceil(cells / parts) is cut in order."""
        tasks = _tasks(seed_replica_cells)
        chunks = BatchedExecutor.group(tasks, 2)
        assert [len(c) for c in chunks] == [5, 4]
        assert [t for c in chunks for t in c] == BatchedExecutor.group(tasks, 1)[0]
        for parts in (9, 20):
            assert [len(c) for c in BatchedExecutor.group(tasks, parts)] == [1] * 9

    def test_chunks_never_mix_scenarios(self, multi_scenario_cells):
        chunks = BatchedExecutor.group(_tasks(multi_scenario_cells), 4)
        assert [len(c) for c in chunks] == [2, 1, 2, 1]
        for chunk in chunks:
            assert len({id(t.cell.config) for t in chunk}) == 1
            assert len({t.tile_rows for t in chunk}) == 1

    @pytest.mark.parametrize("n_jobs", [2, 3])
    def test_seed_folded_batch_bitwise_identical_to_serial(
        self, seed_replica_cells, n_jobs
    ):
        """At 2 jobs the 5+4 cut falls inside a seed run; at 3 on seed edges."""
        serial = SweepRunner(n_jobs=1, executor="serial").run(seed_replica_cells)
        batched = SweepRunner(n_jobs=n_jobs, executor="batched").run(seed_replica_cells)
        assert serial.results.keys() == batched.results.keys()
        for tag in serial.results:
            assert serial[tag].to_json() == batched[tag].to_json(), tag

    def test_dispatch_submits_one_pool_task_per_chunk(self, seed_replica_cells, monkeypatch):
        """The worker count sets the chunk count (spied like the e2e tracer)."""
        group = vars(BatchedExecutor)["group"].__func__
        batches, submitted = [], []

        def counting_group(*args):
            result = group(*args)
            batches.append(len(result))
            return result

        submit = ProcessPoolExecutor.submit

        def counting_submit(pool, fn, *args):
            submitted.append(fn.__name__)
            return submit(pool, fn, *args)

        monkeypatch.setattr(BatchedExecutor, "group", staticmethod(counting_group))
        monkeypatch.setattr(ProcessPoolExecutor, "submit", counting_submit)
        SweepRunner(n_jobs=2, executor="batched").run(seed_replica_cells)
        assert batches == [2]
        assert submitted == ["_simulate_batch"] * 2

    def test_non_seed_differences_stay_separate(self, config):
        """Only the seed is stripped from the fingerprint."""
        other = dataclasses.replace(config, batch_size=32, seed=99)
        cells = policy_cells(config, [NaivePolicy()]) + policy_cells(
            other, [NaivePolicy()], tag_fn=lambda p: f"b32/{p.name}"
        )
        tasks = [
            CellTask(index=i, cell=cell, config_dict=cell.config.to_dict())
            for i, cell in enumerate(cells)
        ]
        assert [len(b) for b in BatchedExecutor.group(tasks)] == [1, 1]

    def test_execution_knobs_split_batches(self, config):
        """tile_rows must be uniform within a batch."""
        cells = policy_cells(config, POLICIES)
        tasks = [
            CellTask(
                index=i,
                cell=cell,
                config_dict=cell.config.to_dict(),
                tile_rows=None if i == 0 else 8,
            )
            for i, cell in enumerate(cells)
        ]
        assert [len(b) for b in BatchedExecutor.group(tasks)] == [1, 2]

    def test_crash_keeps_finished_cells_of_same_batch(self, config):
        """A mid-batch crash memoizes the batch's earlier cells."""
        backend = InMemoryBackend()
        good = policy_cells(config, POLICIES)
        bad = SweepCell(tag="boom", config=config, policy=ExplodingPolicy())
        with pytest.raises(RuntimeError, match="boom"):
            SweepRunner(n_jobs=2, executor="batched", cache=backend).run(good + [bad])
        warm = SweepRunner(n_jobs=2, executor="batched", cache=backend).run(good)
        assert warm.stats.misses == 0


class TestHelper:
    """The executor that builds a simulator decides its helper thread."""

    @pytest.fixture
    def helpers(self, monkeypatch):
        built = []

        class Recording(executors.Simulator):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self.helper)

        monkeypatch.setattr(executors, "Simulator", Recording)
        return built

    @pytest.mark.parametrize(
        ("cpus", "min_row", "min_reads", "expected"),
        [(2, 1, 1, True), (1, 1, 1, False), (2, None, None, False)],
        ids=["pays", "one-cpu", "too-small"],
    )
    def test_serial_asks_the_rule(
        self, monkeypatch, multi_scenario_cells, helpers, cpus, min_row, min_reads, expected
    ):
        monkeypatch.setattr(executors, "_cpu_budget", lambda: cpus)
        if min_row is not None:
            monkeypatch.setattr(executors, "_HELPER_MIN_ROW", min_row)
            monkeypatch.setattr(executors, "_HELPER_MIN_READS", min_reads)
        list(SerialExecutor().execute(_tasks(multi_scenario_cells), lambda event: None))
        assert helpers == [expected] * 2

    def test_pool_worker_gets_none(self, monkeypatch, config, helpers):
        monkeypatch.setattr(executors, "_cpu_budget", lambda: 2)
        monkeypatch.setattr(executors, "_HELPER_MIN_ROW", 1)
        monkeypatch.setattr(executors, "_HELPER_MIN_READS", 1)
        tasks = _tasks(policy_cells(config, POLICIES))
        items = [(t.index, t.cell.policy, t.cell.config.seed) for t in tasks]
        done, failure = executors._simulate_batch((tasks[0].config_dict, items, None))
        assert failure is None and len(done) == len(tasks)
        assert helpers == [False]

    @pytest.mark.parametrize(
        ("workers", "row", "cpus", "expected"),
        [
            (256, 1024, 2, True),  # both minimums met exactly
            (1024, 992, 2, False),  # rows too short, though 2**20 reads
            (4, 32768, 2, False),  # long rows, too few reads per epoch
            (8, 32768, 2, True),
            (256, 1024, 1, False),  # no second CPU
        ],
    )
    def test_size_rule(self, monkeypatch, workers, row, cpus, expected):
        monkeypatch.setattr(executors, "_cpu_budget", lambda: cpus)
        batch = 32
        config = SimulationConfig(
            dataset=DatasetModel("rule", workers * row, 0.15, 0.05),
            system=sec6_cluster(num_workers=workers),
            batch_size=batch,
            num_epochs=1,
        )
        assert config.stream_config.samples_per_worker_per_epoch == row
        assert executors._helper_pays(config) is expected


class TestCpuBudget:
    """The affinity mask, capped by a cgroup v2 or v1 CPU quota."""

    @pytest.fixture
    def cgroup(self, monkeypatch, tmp_path):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        monkeypatch.setattr(executors, "_CPU_MAX", tmp_path / "cpu.max")
        monkeypatch.setattr(executors, "_CFS_DIR", tmp_path / "cpu")
        return tmp_path

    @pytest.mark.parametrize(
        ("cpu_max", "expected"),
        [("max 100000\n", 4), ("150000 100000\n", 2), ("50000 100000\n", 1), ("junk", 4)],
        ids=["unlimited", "one-and-a-half", "half", "unreadable"],
    )
    def test_v2_quota(self, cgroup, cpu_max, expected):
        (cgroup / "cpu.max").write_text(cpu_max)
        assert executors._cpu_budget() == expected

    @pytest.mark.parametrize(
        ("quota", "expected"), [("-1\n", 4), ("100000\n", 1)], ids=["unlimited", "one"]
    )
    def test_v1_quota(self, cgroup, quota, expected):
        (cgroup / "cpu").mkdir()
        (cgroup / "cpu" / "cpu.cfs_quota_us").write_text(quota)
        (cgroup / "cpu" / "cpu.cfs_period_us").write_text("100000\n")
        assert executors._cpu_budget() == expected

    def test_no_cgroup_files(self, cgroup):
        assert executors._cpu_budget() == 4


class TestEvents:
    def _run_with_recorder(self, runner, cells):
        events = []
        unsubscribe = runner.bus.subscribe(events.append)
        outcome = runner.run(cells)
        unsubscribe()
        return outcome, events

    @pytest.mark.parametrize("executor", ["serial", "process", "batched"])
    def test_lifecycle_events_per_cell(self, multi_scenario_cells, executor):
        runner = SweepRunner(n_jobs=2, executor=executor)
        _, events = self._run_with_recorder(runner, multi_scenario_cells)
        n = len(multi_scenario_cells)
        assert isinstance(events[0], SweepStarted) and events[0].total == n
        assert isinstance(events[-1], SweepFinished)
        assert events[-1].stats.cells == n
        started = [e for e in events if isinstance(e, CellStarted)]
        finished = [e for e in events if isinstance(e, CellFinished)]
        assert len(started) == len(finished) == n
        tags = {cell.tag for cell in multi_scenario_cells}
        assert {e.tag for e in finished} == tags
        assert sorted(e.index for e in finished) == list(range(n))
        assert all(e.elapsed_s >= 0 for e in finished)

    def test_cache_hits_emit_cached_events(self, multi_scenario_cells):
        runner = SweepRunner(n_jobs=1, cache=InMemoryBackend())
        runner.run(multi_scenario_cells)
        _, events = self._run_with_recorder(runner, multi_scenario_cells)
        cached = [e for e in events if isinstance(e, CellCached)]
        assert len(cached) == len(multi_scenario_cells)
        assert all(e.supported for e in cached)
        assert not [e for e in events if isinstance(e, CellStarted)]

    def test_unsupported_emits_reason(self):
        config = scaled_scenario(
            imagenet22k(0), sec6_cluster(), batch_size=32, num_epochs=2, scale=0.01
        )
        cells = [SweepCell(tag="lbann", config=config, policy=LBANNPolicy("dynamic"))]
        runner = SweepRunner(n_jobs=1)
        _, events = self._run_with_recorder(runner, cells)
        unsupported = [e for e in events if isinstance(e, CellUnsupported)]
        assert len(unsupported) == 1
        assert unsupported[0].tag == "lbann" and unsupported[0].error

    def test_unsubscribe_stops_delivery(self, config):
        runner = SweepRunner(n_jobs=1)
        events = []
        unsubscribe = runner.bus.subscribe(events.append)
        unsubscribe()
        runner.run(policy_cells(config, [NaivePolicy()]))
        assert events == []


class TestPoolSemantics:
    """The historical process-pool guarantees hold for both pool executors."""

    @pytest.mark.parametrize("executor", ["process", "batched"])
    def test_worker_crash_raises_but_keeps_finished_cells(self, config, executor):
        backend = InMemoryBackend()
        good = policy_cells(config, POLICIES)
        bad = SweepCell(tag="boom", config=config, policy=ExplodingPolicy())
        with pytest.raises(RuntimeError, match="boom"):
            SweepRunner(n_jobs=2, executor=executor, cache=backend).run(good + [bad])
        warm = SweepRunner(n_jobs=2, executor=executor, cache=backend).run(good)
        assert warm.stats.misses == 0

    @pytest.mark.parametrize("executor", ["process", "batched"])
    def test_single_pending_cell_still_works(self, config, executor):
        outcome = SweepRunner(n_jobs=4, executor=executor).run(
            policy_cells(config, [NoPFSPolicy()])
        )
        assert outcome["nopfs"].policy == "nopfs"

    @pytest.mark.parametrize("executor_cls", [BatchedExecutor], ids=["batched"])
    def test_generator_close_mid_drain_is_clean(self, config, executor_cls):
        """A consumer abandoning the drain (it raised between results)
        must close the executor generator without 'generator ignored
        GeneratorExit' noise or a hang."""
        other = dataclasses.replace(config, batch_size=32)
        cells = policy_cells(config, POLICIES) + policy_cells(
            other, POLICIES, tag_fn=lambda p: f"b32/{p.name}"
        )
        tasks = [
            CellTask(index=i, cell=cell, config_dict=cell.config.to_dict())
            for i, cell in enumerate(cells)
        ]
        iterator = executor_cls(2).execute(tasks, lambda event: None)
        next(iterator)
        iterator.close()  # raises RuntimeError if GeneratorExit is swallowed
