"""The experiment layer composes on the sweep engine.

Covers the acceptance criteria: figures run their grids through
``repro.sweep``, a warm cache performs zero re-simulations, and a
2-process sweep matches the serial path bitwise.
"""

import pytest

from repro.datasets import DatasetModel
from repro.experiments import fig8, fig9, paper
from repro.sweep import SweepRunner

FIG9_SMALL = dict(scale=0.005, ram_gb=(0, 256), ssd_gb=(0, 1024), num_epochs=2)


class TestFigureGrids:
    def test_fig8_declares_its_grid(self):
        cells = fig8.cells("a", scale=0.5)
        from repro.api import fig8_lineup

        assert [c.tag for c in cells] == [p.name for p in fig8_lineup()]
        assert all(c.config.dataset.name.startswith("mnist") for c in cells)

    def test_fig9_declares_its_grid(self):
        cells = fig9.cells(**FIG9_SMALL)
        assert [c.tag for c in cells] == [(0, 0), (0, 1024), (256, 0), (256, 1024)]

    def test_quick_grids_build_no_size_table(self, monkeypatch):
        """Declaring every quick-profile grid prices compute on the
        nominal mean size, so no dataset materializes its sizes."""
        built = []
        generate = DatasetModel._generate_sizes
        monkeypatch.setattr(
            DatasetModel,
            "_generate_sizes",
            lambda self: built.append(self.name) or generate(self),
        )
        specs = paper._figure_specs(SweepRunner(n_jobs=1), seed=1)
        declared = [
            cell
            for name, kwargs in paper.resolve_figure_params(specs, "quick", None, None)
            if specs[name].cells is not None
            for cell in specs[name].cells(**kwargs)
        ]
        assert declared
        assert built == []

    def test_fig8_warm_cache_skips_simulation(self, tmp_path):
        runner = SweepRunner(n_jobs=1, cache_dir=tmp_path)
        cold = fig8.run("a", scale=0.5, runner=runner)
        warm = fig8.run("a", scale=0.5, runner=runner)
        assert runner.lifetime.misses == len(fig8.cells("a"))
        assert runner.lifetime.hits == len(fig8.cells("a"))
        assert warm.results == cold.results
        assert warm.unsupported == cold.unsupported

    def test_fig9_serial_parallel_identical(self, tmp_path):
        serial = fig9.run(**FIG9_SMALL)
        parallel = fig9.run(**FIG9_SMALL, runner=SweepRunner(n_jobs=2))
        assert serial.times_s == parallel.times_s
        assert serial.lower_bound_s == parallel.lower_bound_s


class TestPaperDriver:
    FIGS = ["fig9", "fig12"]
    OVERRIDES = {
        "fig9": FIG9_SMALL,
        "fig12": dict(gpu_counts=(32,), scale=0.05, num_epochs=2),
    }

    def test_warm_cache_performs_zero_resimulations(self, tmp_path):
        cold_runner = SweepRunner(n_jobs=1, cache_dir=tmp_path)
        cold = paper.run_figures(
            runner=cold_runner, figures=self.FIGS, overrides=self.OVERRIDES
        )
        assert cold.sweep_stats.misses == cold.sweep_stats.cells > 0

        warm_runner = SweepRunner(n_jobs=2, cache_dir=tmp_path)
        warm = paper.run_figures(
            runner=warm_runner, figures=self.FIGS, overrides=self.OVERRIDES
        )
        assert warm.sweep_stats.misses == 0
        assert warm.sweep_stats.hits == cold.sweep_stats.cells

        # Cached results reproduce the cold run exactly.
        assert warm.results["fig9"].times_s == cold.results["fig9"].times_s
        assert warm.results["fig12"].stall_s == cold.results["fig12"].stall_s

    def test_render_includes_sweep_stats(self, tmp_path):
        run = paper.run_figures(
            runner=SweepRunner(n_jobs=1, cache_dir=tmp_path),
            figures=["fig12"],
            overrides=self.OVERRIDES,
        )
        out = run.render()
        assert "=== fig12 ===" in out and "=== sweep ===" in out
        assert "hit rate" in out

    def test_unknown_figure_rejected(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="unknown figures"):
            paper.run_figures(figures=["fig99"])

    def test_repeated_figure_rejected(self, tmp_path):
        from repro.errors import ConfigurationError
        from repro.experiments.artifacts import run_incremental

        with pytest.raises(ConfigurationError, match=r"repeated figures: \['fig3'\]"):
            paper.run_figures(figures=["fig3", "table1", "fig3"])
        with pytest.raises(ConfigurationError, match=r"repeated figures: \['table1'\]"):
            run_incremental(tmp_path, figures=["table1", "table1"])

    def test_misspelled_override_rejected(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="overrides for unknown"):
            paper.run_figures(figures=["fig12"], overrides={"fig_12": {"scale": 0.1}})

    def test_unknown_profile_rejected(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="profile"):
            paper.run_figures(profile="huge")
