"""The sim-vs-runtime parity harness, end to end.

The headline guarantee under test: for every Fig 8 policy, the runtime
world's modelled epochs price to *bitwise identical* results, cold
epochs stay within the declared tolerances, and the whole report is
byte-for-byte deterministic across runs.
"""

import dataclasses
import gc
import json
import weakref

import pytest

from repro.api import FIG8_POLICIES, make_policy
from repro.errors import ConfigurationError, PolicyError, RuntimeIOError
from repro.perfmodel import sec6_cluster
from repro.ports import (
    FakeDataset,
    RecordingMetricsSink,
    RuntimeWorld,
    SimWorld,
    parity_system,
)
from repro.ports.parity import (
    ParityTolerance,
    PolicyParity,
    _ordering_issues,
    compare_reports,
    default_config,
    run_parity,
)
from repro.ports.worlds import check_local_dominance
from repro.sim import Simulator


@pytest.fixture(scope="module")
def fig8_report():
    """One full Fig 8 lineup run, shared across assertions."""
    return run_parity()


class TestFig8Parity:
    def test_report_ok(self, fig8_report):
        assert fig8_report.ok, "\n".join(fig8_report.summary_lines())

    def test_every_policy_compared(self, fig8_report):
        assert len(fig8_report.policies) == len(FIG8_POLICIES)
        assert all(p.status == "ok" for p in fig8_report.policies)

    def test_modeled_epochs_bitwise_identical(self, fig8_report):
        """Shared-kernel pricing: modelled epochs agree to the last bit."""
        modeled = [
            e for p in fig8_report.policies for e in p.epochs if e.kind == "modeled"
        ]
        assert modeled
        for e in modeled:
            assert e.ok and not e.issues
            assert e.sim_counts == e.runtime_counts
            assert e.sim_time_s == e.runtime_time_s

    def test_cold_epochs_present_and_tolerated(self, fig8_report):
        """Plan-based policies warm up; those epochs compare under slack."""
        cold = [e for p in fig8_report.policies for e in p.epochs if e.kind == "cold"]
        assert cold, "expected at least one warm-up epoch in the Fig 8 lineup"
        for e in cold:
            assert e.ok
            assert sum(e.sim_counts) == sum(e.runtime_counts)
            # Empty tiers can only shift traffic *onto* the PFS.
            assert e.runtime_counts[0] >= e.sim_counts[0]
            assert e.runtime_time_s >= e.sim_time_s * (1 - 1e-9)

    def test_no_ordering_disagreements(self, fig8_report):
        assert fig8_report.ordering_issues == ()

    def test_report_round_trips_to_json(self, fig8_report):
        data = json.loads(fig8_report.to_json())
        assert data["ok"] is True
        assert [p["policy"] for p in data["policies"]]
        assert data["scenario"]["system"].startswith("parity-")


class TestDeterminism:
    def test_reports_byte_identical_across_runs(self):
        policies = ("naive", "locality_aware", "nopfs")
        first = run_parity(policies=policies).to_json()
        second = run_parity(policies=policies).to_json()
        assert first == second


class TestUnsupportedAgreement:
    def test_policy_error_in_both_worlds_is_agreement(self):
        """fake:small overflows the parity system's 4 MB aggregate RAM."""
        cfg = default_config(profile="small")
        report = run_parity(cfg, policies=("lbann:dynamic",))
        (verdict,) = report.policies
        assert verdict.status == "unsupported"
        assert verdict.ok and report.ok
        assert verdict.issues  # both PolicyError messages survive

    def test_supported_policy_unaffected(self):
        cfg = default_config(profile="small")
        report = run_parity(cfg, policies=("naive",))
        assert report.ok
        assert report.policies[0].status == "ok"


class TestCompareReports:
    @pytest.fixture()
    def sim_report(self):
        cfg = default_config(num_epochs=2)
        return SimWorld(cfg).run(make_policy("naive"))

    def test_identical_reports_ok(self, sim_report):
        assert compare_reports(sim_report, sim_report).status == "ok"

    def test_time_tamper_detected(self, sim_report):
        tampered = dataclasses.replace(
            sim_report,
            epochs=(
                dataclasses.replace(sim_report.epochs[0], time_s=sim_report.epochs[0].time_s + 1.0),
                *sim_report.epochs[1:],
            ),
        )
        verdict = compare_reports(sim_report, tampered)
        assert verdict.status == "mismatch"
        assert any("time_s" in i for i in verdict.epochs[0].issues)

    def test_count_tamper_detected(self, sim_report):
        e0 = sim_report.epochs[0]
        counts = (e0.fetch_counts[0] - 1, e0.fetch_counts[1] + 1, *e0.fetch_counts[2:])
        tampered = dataclasses.replace(
            sim_report,
            epochs=(dataclasses.replace(e0, fetch_counts=counts), *sim_report.epochs[1:]),
        )
        verdict = compare_reports(sim_report, tampered)
        assert verdict.status == "mismatch"
        assert any("fetch counts" in i for i in verdict.epochs[0].issues)

    def test_cold_epoch_disagreement_detected(self, sim_report):
        tampered = dataclasses.replace(sim_report, cold_epochs=(0,))
        verdict = compare_reports(sim_report, tampered)
        assert verdict.status == "mismatch"
        assert any("cold epochs" in i for i in verdict.issues)

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ConfigurationError):
            ParityTolerance(modeled_rel=-0.1)


class TestOrderingCheck:
    @staticmethod
    def _verdict(policy, sim_s, runtime_s):
        return PolicyParity(
            policy=policy, status="ok", sim_total_s=sim_s, runtime_total_s=runtime_s
        )

    def test_inversion_flagged(self):
        issues = _ordering_issues(
            [self._verdict("fast", 1.0, 5.0), self._verdict("slow", 2.0, 4.0)],
            margin=0.05,
        )
        assert len(issues) == 1
        assert "fast" in issues[0] and "slow" in issues[0]

    def test_within_margin_not_flagged(self):
        issues = _ordering_issues(
            [self._verdict("a", 1.00, 2.0), self._verdict("b", 1.04, 1.9)],
            margin=0.05,
        )
        assert issues == []


class TestRuntimeWorldGuards:
    def test_metrics_sink_counts_match_priced_report(self):
        cfg = default_config(num_epochs=3)
        sink = RecordingMetricsSink()
        world = RuntimeWorld(cfg, sink=sink)
        report = world.run(make_policy("nopfs"))
        for epoch in range(cfg.num_epochs):
            counts = sink.counts(epoch)
            pfs, remote, local, none = report.fetch_counts(epoch)
            assert counts.get("pfs", 0) == pfs
            assert counts.get("remote", 0) == remote
            assert counts.get("local", 0) == local
            assert none == 0

    def test_corrupt_pfs_payload_fails_the_run(self):
        cfg = default_config(num_epochs=1)

        class _LyingDataset(FakeDataset):
            def read(self, sample_id: int) -> bytes:
                data = super().read(sample_id)
                return b"\x00" * len(data) if sample_id == 0 else data

        world = RuntimeWorld(cfg, dataset=_LyingDataset.from_model(cfg.dataset))
        with pytest.raises(RuntimeIOError, match="corrupt payload"):
            world.run(make_policy("naive"))

    def test_wrong_length_dataset_rejected(self):
        cfg = default_config()
        with pytest.raises(ConfigurationError, match="samples"):
            RuntimeWorld(cfg, dataset=FakeDataset([1024] * 3))

    def test_non_matching_sizes_rejected(self):
        cfg = default_config()
        n = cfg.dataset.num_samples
        with pytest.raises(ConfigurationError, match="dyadic"):
            RuntimeWorld(cfg, dataset=FakeDataset([1000] * n))

    def test_policy_error_raised_like_the_sim(self):
        cfg = default_config(profile="small")
        with pytest.raises(PolicyError):
            RuntimeWorld(cfg).run(make_policy("lbann:dynamic"))
        with pytest.raises(PolicyError):
            SimWorld(cfg).run(make_policy("lbann:dynamic"))


class TestParitySystem:
    def test_parity_system_passes_its_own_invariant(self):
        check_local_dominance(parity_system())

    def test_sec6_cluster_violates_local_dominance(self):
        """Remote RAM beats the local SSD on the paper's cluster."""
        with pytest.raises(ConfigurationError, match="network"):
            check_local_dominance(sec6_cluster())

    def test_worlds_share_stream_cache(self):
        """Both worlds consume one Simulator's cached epoch streams."""
        cfg = default_config(num_epochs=2)
        sim = Simulator(cfg)
        sim_report = SimWorld(cfg, sim=sim).run(make_policy("naive"))
        runtime_report = RuntimeWorld(cfg, sim=sim).run(make_policy("naive"))
        assert compare_reports(sim_report, runtime_report).status == "ok"

    def test_shared_simulator_keeps_no_prepared_policy(self):
        """Both worlds on one simulator, as ``run_parity`` runs them, leave
        no prepared policy (and so no placement) alive after their runs."""
        cfg = default_config()
        sim = Simulator(cfg)
        worlds = (SimWorld(cfg, sim=sim), RuntimeWorld(cfg, sim=sim))
        refs = []

        def tracked(prepare):
            def wrapper(ctx):
                prep = prepare(ctx)
                refs.append(weakref.ref(prep))
                return prep

            return wrapper

        for spec in ("nopfs", "lbann:dynamic", "deepio:ordered"):
            for world in worlds:
                policy = make_policy(spec)
                policy.prepare = tracked(policy.prepare)
                world.run(policy)
        gc.collect()
        assert len(refs) == 6
        assert sum(ref() is not None for ref in refs) == 0
