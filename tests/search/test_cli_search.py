"""``python -m repro search`` and the searchers registry listing."""

import json

import pytest

from repro.cli import main
from repro.search import SearchManifest

SMOKE_FLAGS = [
    "search", "--dataset", "mnist", "--system", "piz_daint:4",
    "--batch-size", "16", "--epochs", "4", "--scale", "0.1",
]


class TestListSearchers:
    def test_list_searchers_section(self, capsys):
        assert main(["list", "searchers"]) == 0
        out = capsys.readouterr().out
        assert "bb" in out and "random" in out
        assert "halving" not in out
        assert "alias of bb" in out

    def test_list_everything_includes_searchers(self, capsys):
        assert main(["list"]) == 0
        assert "searchers:" in capsys.readouterr().out


class TestSearchCommand:
    def test_bb_search_prints_best_and_stats(self, capsys):
        assert main([*SMOKE_FLAGS, "--driver", "bb"]) == 0
        out = capsys.readouterr().out
        assert "driver: bb | space: 9 candidates" in out
        assert "best: mnist/piz_daint:4/" in out
        assert "pruned in" in out
        assert "cache:" in out  # session cache state is printed

    def test_manifest_written_and_byte_stable(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        assert main([*SMOKE_FLAGS, "--cache-dir", cache, "--manifest", str(first)]) == 0
        capsys.readouterr()
        assert main([*SMOKE_FLAGS, "--cache-dir", cache, "--manifest", str(second)]) == 0
        warm = capsys.readouterr().out
        assert first.read_bytes() == second.read_bytes()
        assert "/ 0 miss" in warm  # warm re-search: zero re-simulations
        manifest = SearchManifest.read(first)
        assert manifest.stats.pruned_leaves > 0

    def test_space_json_input(self, tmp_path, capsys):
        space = {
            "base": {
                "dataset": "mnist", "system": "piz_daint:4", "policy": "naive",
                "batch_size": 16, "num_epochs": 4, "scale": 0.1,
            },
            "policies": ["nopfs", "naive"],
        }
        path = tmp_path / "space.json"
        path.write_text(json.dumps(space))
        assert main(["search", "--space", str(path), "--driver", "random"]) == 0
        assert "space: 2 candidates" in capsys.readouterr().out

    def test_prints_the_speculative_count(self, tmp_path, capsys):
        """Batched leaves a later incumbent prunes are counted, not recorded
        (the space of ``test_frontier.EXAMPLES[0]``: 10 cells, 8 evaluations)."""
        space = {
            "base": {
                "dataset": "mnist", "system": "piz_daint:4", "policy": "naive",
                "batch_size": 16, "num_epochs": 4, "scale": 0.1,
            },
            "policies": [
                "lbann:preloading", "staging_buffer", "naive", "nopfs", "locality_aware",
            ],
            "knobs": [
                {"name": "batch_size", "values": [8, 32]},
                {
                    "name": "system",
                    "values": [
                        {"name": "piz_daint:4", "class_capacities_mb": [0.0]},
                        "piz_daint:4",
                    ],
                },
            ],
        }
        path = tmp_path / "space.json"
        path.write_text(json.dumps(space))
        assert main(["search", "--space", str(path), "--driver", "bb"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "8 evaluated" in "\n".join(lines)
        assert lines[-1].startswith("10 cells in ")
        assert lines[-1].endswith("| 2 speculative")

    def test_knob_flags_expand_the_space(self, capsys):
        assert main([
            *SMOKE_FLAGS, "--policies", "nopfs,naive",
            "--knob", "batch_size=16,32", "--budget", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "space: 4 candidates" in out
        assert "budget_exhausted" in out

    def test_progress_events(self, capsys):
        assert main([*SMOKE_FLAGS, "--progress"]) == 0
        out = capsys.readouterr().out
        assert "[SearchStarted]" in out
        assert "[CandidatePruned]" in out
        assert "[SearchFinished]" in out

    def test_timestamp_lands_in_manifest(self, tmp_path):
        out = tmp_path / "m.json"
        assert main([
            *SMOKE_FLAGS, "--manifest", str(out), "--timestamp", "2026-08-07T00:00:00",
        ]) == 0
        assert SearchManifest.read(out).created_at == "2026-08-07T00:00:00"


class TestSearchErrors:
    def test_unknown_driver_suggests_and_exits_2(self, capsys):
        assert main([*SMOKE_FLAGS, "--driver", "branch_nd_bound"]) == 2
        err = capsys.readouterr().err
        assert "did you mean: branch_and_bound" in err

    def test_bad_bb_relaxation_exits_2(self, capsys):
        assert main([*SMOKE_FLAGS, "--driver", "bb:abc"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "relaxation" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("timeout", ["nan", "inf"])
    def test_non_finite_timeout_exits_2(self, timeout, tmp_path, capsys):
        manifest = tmp_path / "search.json"
        rc = main([*SMOKE_FLAGS, "--timeout", timeout, "--manifest", str(manifest)])
        assert rc == 2
        assert "timeout must be a finite number" in capsys.readouterr().err
        assert not manifest.exists()

    def test_space_conflicts_with_axis_flags(self, capsys):
        assert main([
            "search", "--space", "{}", "--dataset", "mnist",
        ]) == 2
        assert "--space is a complete description" in capsys.readouterr().err

    def test_missing_axes_rejected(self, capsys):
        assert main(["search", "--dataset", "mnist"]) == 2
        assert "--system" in capsys.readouterr().err

    def test_malformed_knob_rejected(self, capsys):
        assert main([*SMOKE_FLAGS, "--knob", "batch_size"]) == 2
        assert "field=v1,v2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "knob",
        [
            "batch_size=x",
            "num_epochs=two",
            "scale=abc",
            "batch_size=1.5",
            "seed=1.5",
            "barrier=maybe",
            "network_interference=nan",
        ],
    )
    def test_malformed_knob_value_exits_2(self, knob, capsys):
        assert main([*SMOKE_FLAGS, "--knob", knob]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and knob.partition("=")[0] in err

    def test_unknown_knob_field_rejected(self, capsys):
        assert main([*SMOKE_FLAGS, "--knob", "policy=nopfs"]) == 2
        assert "not a searchable" in capsys.readouterr().err

    def test_unreadable_space_file(self, capsys):
        assert main(["search", "--space", "/nonexistent/space.json"]) == 2
        assert "cannot read --space" in capsys.readouterr().err
