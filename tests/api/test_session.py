"""Session facade: run/sweep semantics and cache interoperability."""

from pathlib import Path

import pytest

from repro.api import Scenario, Session
from repro.datasets import DatasetModel
from repro.errors import ConfigurationError, PolicyError
from repro.sim import Simulator
from repro.sweep import (
    CellCached,
    CellFinished,
    InMemoryBackend,
    ScenarioGrid,
    SweepFinished,
    SweepRunner,
    SweepStarted,
)
from repro.sweep.grid import SweepCell


def tiny(policy="nopfs", **overrides):
    base = dict(
        dataset="mnist",
        system="sec6_cluster:2",
        batch_size=16,
        num_epochs=2,
        scale=0.2,
    )
    return Scenario(policy=policy, **{**base, **overrides})


SCENARIOS = [tiny("naive"), tiny("staging_buffer"), tiny("nopfs")]


class TestRun:
    def test_run_matches_direct_simulation(self):
        s = tiny()
        direct = Simulator(s.build_config()).run(s.build_policy())
        assert Session().run(s).to_json() == direct.to_json()

    def test_run_accepts_dict_and_json(self):
        s = tiny()
        session = Session()
        expected = session.run(s).to_json()
        assert session.run(s.to_dict()).to_json() == expected
        assert session.run(s.to_json()).to_json() == expected

    def test_run_rejects_unsupported_loudly(self):
        # 1.5 GB of ImageNet-22k against ~0.25 GB aggregate RAM: the
        # paper's LBANN "Does not support" cell.
        s = tiny(policy="lbann:dynamic", dataset="imagenet22k", scale=0.001)
        with pytest.raises(PolicyError):
            Session().run(s)

    def test_run_is_memoized(self):
        session = Session(cache=InMemoryBackend())
        session.run(tiny())
        session.run(tiny())
        assert session.stats.hits == 1
        assert session.stats.misses == 1

    def test_bad_scenario_type(self):
        with pytest.raises(ConfigurationError):
            Session().run(42)


class TestSweep:
    def test_sweep_scenarios_tagged_by_fingerprint(self):
        outcome = Session().sweep(SCENARIOS)
        assert set(outcome.results) == {s.fingerprint() for s in SCENARIOS}

    def test_sweep_explicit_tags(self):
        outcome = Session().sweep(SCENARIOS, tags=["naive", "staging", "nopfs"])
        assert set(outcome.results) == {"naive", "staging", "nopfs"}

    def test_sweep_tag_count_mismatch(self):
        with pytest.raises(ConfigurationError):
            Session().sweep(SCENARIOS, tags=["just-one"])

    def test_sweep_tags_relabel_cells_too(self):
        cells = [s.cell(tag=f"orig{i}") for i, s in enumerate(SCENARIOS)]
        outcome = Session().sweep(cells, tags=["a", "b", "c"])
        assert set(outcome.results) == {"a", "b", "c"}

    def test_sweep_accepts_grid_and_cells(self):
        s = tiny()
        grid = ScenarioGrid(
            datasets=[s.dataset.build(default_seed=s.seed)],
            systems=[s.system.build()],
            policies=[s.build_policy()],
            batch_sizes=[16],
            epoch_counts=[2],
        )
        session = Session()
        from_grid = session.sweep(grid)
        from_cells = session.sweep([SweepCell(tag=t, config=c.config, policy=c.policy)
                                    for t, c in ((c.tag, c) for c in grid.cells())])
        assert len(from_grid) == len(from_cells) == 1

    def test_sweep_shard_union_equals_full(self):
        session = Session()
        full = session.sweep(SCENARIOS)
        shard0 = session.sweep(SCENARIOS, shard="0/2")
        shard1 = session.sweep(SCENARIOS, shard="1/2")
        union = {**shard0.results, **shard1.results}
        assert set(union) == set(full.results)
        for tag, result in full.results.items():
            assert union[tag].to_json() == result.to_json()

    def test_sweep_takes_no_per_call_configuration(self):
        # One session, one runner: another configuration is another Session.
        for override in ("jobs", "cache_dir", "executor", "cache", "tile_rows"):
            with pytest.raises(TypeError, match=override):
                Session().sweep(SCENARIOS, **{override: 2})

    def test_second_session_shares_the_cache_instance(self):
        backend = InMemoryBackend()
        Session(cache=backend).sweep(SCENARIOS)
        warm = Session(jobs=2, cache=backend).sweep(SCENARIOS)
        assert warm.stats.misses == 0
        assert warm.stats.hits == len(SCENARIOS)


#: Seven Fig 8 policies that all support ``tiny(dataset="imagenet1k")``.
SEVEN_POLICIES = (
    "naive",
    "staging_buffer",
    "deepio:ordered",
    "deepio:opportunistic",
    "parallel_staging",
    "locality_aware",
    "nopfs",
)


class TestSharedDatasets:
    """Equal datasets in one sweep call share one size table."""

    def scenarios(self):
        return [tiny(p, dataset="imagenet1k", scale=0.0005) for p in SEVEN_POLICIES]

    def test_size_table_generated_once_per_sweep(self, monkeypatch):
        calls = []
        generate = DatasetModel._generate_sizes

        def spy(self):
            calls.append(self.name)
            return generate(self)

        monkeypatch.setattr(DatasetModel, "_generate_sizes", spy)
        scenarios = self.scenarios()
        outcome = Session().sweep(scenarios)
        assert len(outcome.results) == len(SEVEN_POLICIES)
        assert set(outcome.results) == {s.fingerprint() for s in scenarios}
        assert calls == ["imagenet1k-x0.0005"]

    def test_equal_datasets_share_one_instance(self):
        cells = Session.as_cells(self.scenarios())
        assert len({id(cell.config.dataset) for cell in cells}) == 1
        other = Session.as_cells([tiny("naive"), tiny("nopfs", scale=0.1)])
        assert other[0].config.dataset is not other[1].config.dataset

    def test_sweep_cells_pass_through_untouched(self):
        cells = [s.cell(tag=f"c{i}") for i, s in enumerate(self.scenarios()[:2])]
        out = Session.as_cells([*cells, *self.scenarios()[2:4]])
        assert out[0] is cells[0] and out[1] is cells[1]
        assert out[0].config.dataset is not out[1].config.dataset
        assert out[2].config.dataset is out[3].config.dataset


class TestExecutors:
    def test_session_executor_configurable(self):
        assert Session(jobs=2).runner.executor.name == "batched"
        assert Session(jobs=2, executor="process").runner.executor.name == "process"

    def test_sweep_executor_override_bitwise_identical(self):
        serial = Session().sweep(SCENARIOS)
        batched = Session(jobs=2, executor="batched").sweep(SCENARIOS)
        for tag, result in serial.results.items():
            assert batched[tag].to_json() == result.to_json()

    def test_serial_sweep_runs_a_scenario_in_one_pass(self, tmp_path, monkeypatch):
        """Distinct Scenario objects of one scenario share one epoch-major pass."""
        passes = []
        run_many_seed = Simulator.run_many_seed

        def spy(sim, policies, seed):
            passes.append([policy.name for policy in policies])
            return run_many_seed(sim, policies, seed)

        monkeypatch.setattr(Simulator, "run_many_seed", spy)
        Session(cache_dir=tmp_path / "serial").sweep(SCENARIOS)
        assert passes == [["naive", "staging_buffer", "nopfs"]]
        monkeypatch.undo()
        Session(jobs=2, executor="batched", cache_dir=tmp_path / "batched").sweep(SCENARIOS)

        def entries(root):
            return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}

        serial, batched = entries(tmp_path / "serial"), entries(tmp_path / "batched")
        assert len(serial) >= len(SCENARIOS)
        assert serial == batched

    def test_cache_and_cache_dir_conflict(self, tmp_path):
        with pytest.raises(ConfigurationError, match="not both"):
            Session(cache_dir=tmp_path, cache=InMemoryBackend())

    def test_cache_takes_no_path(self, tmp_path, monkeypatch):
        # Directories are named by cache_dir= only.
        monkeypatch.chdir(tmp_path)
        for path in ("d", Path("d"), "mem:"):
            with pytest.raises(ConfigurationError, match="cache_dir="):
                Session(cache=path)
        assert list(tmp_path.iterdir()) == []


class TestEvents:
    def test_on_event_sees_the_whole_sweep(self):
        events = []
        Session().sweep(SCENARIOS, on_event=events.append)
        kinds = [type(e) for e in events]
        assert kinds[0] is SweepStarted and kinds[-1] is SweepFinished
        assert kinds.count(CellFinished) == len(SCENARIOS)

    def test_on_event_unsubscribes_after_the_sweep(self):
        events = []
        session = Session(cache=InMemoryBackend())
        session.sweep(SCENARIOS, on_event=events.append)
        first = len(events)
        session.sweep(SCENARIOS)  # no listener: nothing more recorded
        assert len(events) == first

    def test_on_event_fires_on_a_pool_session(self):
        events = []
        Session(jobs=2).sweep(SCENARIOS, on_event=events.append)
        assert [e for e in events if isinstance(e, CellFinished)]

    def test_session_bus_survives_across_sweeps(self):
        session = Session(cache=InMemoryBackend())
        events = []
        session.bus.subscribe(events.append)
        session.sweep(SCENARIOS)
        session.sweep(SCENARIOS)  # the warm sweep publishes on the same bus
        cached = [e for e in events if isinstance(e, CellCached)]
        assert len(cached) == len(SCENARIOS)


class TestCacheInterop:
    """ISSUE 3 acceptance: Session sweeps and the pre-refactor
    SweepRunner path address identical cache entries."""

    def test_session_warm_from_runner_cache(self, tmp_path):
        cells = [s.cell(tag=i) for i, s in enumerate(SCENARIOS)]
        runner = SweepRunner(n_jobs=1, cache_dir=tmp_path)
        runner.run(cells)
        assert runner.lifetime.misses == len(SCENARIOS)

        session = Session(cache_dir=tmp_path)
        outcome = session.sweep(SCENARIOS)
        assert outcome.stats.misses == 0
        assert outcome.stats.hits == len(SCENARIOS)

    def test_runner_warm_from_session_cache(self):
        # The key interop (not the disk round-trip) is the subject here,
        # so both sides share one in-memory backend.
        backend = InMemoryBackend()
        session = Session(cache=backend)
        session.sweep(SCENARIOS)

        runner = SweepRunner(n_jobs=1, cache=backend)
        outcome = runner.run([s.cell(tag=i) for i, s in enumerate(SCENARIOS)])
        assert outcome.stats.misses == 0
        assert outcome.stats.hits == len(SCENARIOS)
