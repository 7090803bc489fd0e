"""Experiment-harness tests: every figure/table regenerates with the
paper's qualitative shape at laptop scale."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments import (
    fig3,
    fig8,
    fig9,
    fig10,
    fig11,
    fig12,
    fig13,
    fig14,
    fig15,
    fig16,
    paper,
    table1,
)

# Tiny scales keep the whole module fast; shape assertions are
# scale-invariant (ratios to lower bounds, orderings, monotonicity).
FAST = dict(scale=0.02)


class TestTable1:
    def test_matches_paper(self):
        assert table1.run().all_match


class TestFig3:
    def test_small_scale_agreement(self):
        """Analytic expectation tracks exact-shuffle Monte-Carlo."""
        r = fig3.run(num_samples=100_000, num_epochs=30, num_workers=8)
        assert r.measured_hot == pytest.approx(r.expected_hot, rel=0.05)

    def test_histogram_sums_to_F(self):
        r = fig3.run(num_samples=50_000, num_epochs=20, num_workers=8)
        assert sum(r.histogram.counts) == 50_000

    def test_render(self):
        r = fig3.run(num_samples=20_000, num_epochs=10, num_workers=4)
        assert "Monte-Carlo" in r.render()


class TestFig8:
    @pytest.fixture(scope="class")
    def panel_b(self):
        return fig8.run("b", scale=0.02)

    def test_nopfs_among_best(self, panel_b):
        nopfs = panel_b.measured_ratio("nopfs")
        others = [
            panel_b.measured_ratio(p)
            for p in ("naive", "staging_buffer", "deepio_ordered", "lbann_dynamic")
        ]
        assert all(nopfs <= o + 0.02 for o in others)

    def test_naive_worst(self, panel_b):
        naive = panel_b.measured_ratio("naive")
        for name in panel_b.results:
            assert panel_b.measured_ratio(name) <= naive + 1e-9

    def test_everything_above_lower_bound(self, panel_b):
        for name in panel_b.results:
            assert panel_b.measured_ratio(name) >= 1.0 - 1e-9

    def test_panel_d_lbann_unsupported(self):
        p = fig8.run("d", scale=0.01)
        assert "lbann_dynamic" in p.unsupported
        assert "lbann_preloading" in p.unsupported
        assert set(p.unsupported) == set(paper.FIG8_UNSUPPORTED["d"])

    def test_panel_d_sharding_incomplete(self):
        p = fig8.run("d", scale=0.01)
        assert not p.results["parallel_staging"].accesses_full_dataset
        assert not p.results["deepio_opportunistic"].accesses_full_dataset
        assert p.results["nopfs"].accesses_full_dataset

    def test_scenario_labels(self):
        assert fig8.run("a").scenario == "S<d1"
        assert fig8.run("d", scale=0.01).scenario == "D<S<ND"

    def test_render(self, panel_b):
        out = panel_b.render()
        assert "nopfs" in out and "paper" in out

    def test_unknown_panel(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            fig8.run("z")


class TestFig9:
    @pytest.fixture(scope="class")
    def grid(self):
        return fig9.run(scale=0.005, ram_gb=(0, 64, 256), ssd_gb=(0, 256, 1024),
                        num_epochs=3)

    def test_monotone_in_ram(self, grid):
        assert grid.monotone_in_ram()

    def test_storage_helps(self, grid):
        """Max storage beats no storage (the design-space conclusion)."""
        assert grid.times_s[(256, 1024)] < grid.times_s[(0, 0)]

    def test_ssd_compensates_for_ram(self, grid):
        """Small RAM + big SSD competitive with mid RAM + no SSD."""
        assert grid.times_s[(64, 1024)] <= grid.times_s[(256, 0)] * 1.25

    def test_render_includes_paper(self, grid):
        assert "(" in grid.render()


class TestScalingFigures:
    @pytest.fixture(scope="class")
    def lassen_sweep(self):
        return fig10.run("lassen", gpu_counts=(32, 256), scale=0.25, num_epochs=3)

    def test_pytorch_loses_at_scale(self, lassen_sweep):
        assert lassen_sweep.sweep.speedup(256, "PyTorch") > 1.5

    def test_nopfs_tracks_no_io(self, lassen_sweep):
        s = lassen_sweep.sweep
        assert s.median_epoch(256, "NoPFS") <= s.median_epoch(256, "No I/O") * 1.15

    def test_speedup_grows_with_scale(self, lassen_sweep):
        s = lassen_sweep.sweep
        assert s.speedup(256, "PyTorch") > s.speedup(32, "PyTorch")

    def test_batch_tails(self, lassen_sweep):
        """PyTorch's max batch time spikes far beyond its median at
        scale; NoPFS's does not (the violin-plot story)."""
        s = lassen_sweep.sweep
        pt = s.points[(256, "PyTorch")].batch_stats
        np_ = s.points[(256, "NoPFS")].batch_stats
        assert pt.max / pt.p50 > np_.max / np_.p50

    def test_piz_daint_shape(self):
        r = fig10.run("piz_daint", gpu_counts=(32, 256), scale=0.25, num_epochs=3)
        assert r.sweep.speedup(256, "PyTorch") > 1.5

    def test_policy_spec_needs_a_policy(self):
        from repro.experiments.scaling import PolicySpec

        assert PolicySpec("NoPFS", "nopfs").build().name == "nopfs"
        with pytest.raises(ConfigurationError, match="needs a policy spec"):
            PolicySpec("NoPFS")


class TestFig11:
    def test_epoch0_similar_warm_different(self):
        r = fig11.run(gpu_counts=(64,), scale=0.1, num_epochs=3)
        e0_ratio = (
            r.epoch0[(64, "PyTorch")].p50 / r.epoch0[(64, "NoPFS")].p50
        )
        warm_ratio = r.warm[(64, "PyTorch")].p50 / r.warm[(64, "NoPFS")].p50
        # warm epochs separate the loaders far more than epoch 0 does
        assert warm_ratio > e0_ratio * 0.9
        assert "Fig 11" in r.render()


class TestFig12:
    @pytest.fixture(scope="class")
    def stats(self):
        return fig12.run(gpu_counts=(32, 256), scale=0.1, num_epochs=4)

    def test_stall_decreases_with_scale(self, stats):
        assert stats.stall_s[256] < stats.stall_s[32]

    def test_shares_sum_to_one(self, stats):
        for gpus in (32, 256):
            assert sum(stats.shares[gpus].values()) == pytest.approx(1.0)

    def test_remote_present(self, stats):
        assert stats.shares[32]["remote"] > 0

    def test_render(self, stats):
        assert "paper" in stats.render()


class TestFig13:
    def test_batch_time_grows_with_batch_size(self):
        r = fig13.run(batch_sizes=(32, 120), gpus=64, scale=0.1, num_epochs=3)
        for label in r.labels:
            assert r.stats[(120, label)].p50 > r.stats[(32, label)].p50

    def test_nopfs_faster_every_batch_size(self):
        r = fig13.run(batch_sizes=(32, 96), gpus=128, scale=0.1, num_epochs=3)
        for b in (32, 96):
            assert r.stats[(b, "NoPFS")].p50 <= r.stats[(b, "PyTorch")].p50


class TestFig14And15:
    def test_fig14_headline(self):
        r = fig14.run(gpu_counts=(256,), scale=0.02, num_epochs=3)
        assert r.headline_speedup() > 1.3

    def test_fig15_headline_and_cache_use(self):
        r = fig15.run(gpu_counts=(32, 256), scale=0.05, num_epochs=3)
        assert r.headline_speedup() > 1.2
        assert r.nopfs_uses_local_cache()


class TestFig16:
    @pytest.fixture(scope="class")
    def result(self):
        return fig16.run(gpus=128, scale=0.1, num_epochs=30)

    def test_speedup_positive(self, result):
        assert result.speedup > 1.0

    def test_same_learning_curve(self, result):
        import numpy as np

        np.testing.assert_allclose(
            result.comparison.baseline.top1_at_epoch_end,
            result.comparison.contender.top1_at_epoch_end,
        )

    def test_render(self, result):
        out = result.render()
        assert "speedup" in out and "paper" in out
