"""The consolidated ``python -m repro`` CLI, driven through repro.cli.main."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.api import Scenario
from repro.cli import main


def tiny_dict(policy="nopfs"):
    return Scenario(
        dataset="mnist",
        system="sec6_cluster:2",
        policy=policy,
        batch_size=16,
        num_epochs=2,
        scale=0.2,
    ).to_dict()


RUN_FLAGS = [
    "run", "--dataset", "mnist", "--system", "sec6_cluster:2", "--policy", "nopfs",
    "--batch-size", "16", "--epochs", "2", "--scale", "0.2",
]

REPO_ROOT = Path(__file__).resolve().parents[2]


class TestList:
    def test_list_policies(self, capsys):
        assert main(["list", "policies"]) == 0
        out = capsys.readouterr().out
        assert "nopfs" in out and "deepio" in out and "alias of deepio" in out

    def test_list_everything(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for section in ("policies:", "datasets:", "systems:", "figures:"):
            assert section in out
        assert "fig12" in out


class TestRun:
    def test_run_flags_and_warm_cache(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert main([*RUN_FLAGS, "--cache-dir", cache]) == 0
        cold = capsys.readouterr().out
        assert "fingerprint:" in cold and "1 miss" in cold
        assert main([*RUN_FLAGS, "--cache-dir", cache]) == 0
        warm = capsys.readouterr().out
        assert "1 hit / 0 miss" in warm

    def test_run_json_stdout(self, capsys):
        assert main([*RUN_FLAGS, "--json", "-"]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{"):])
        assert payload["policy"] == "nopfs"

    def test_run_scenario_file(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(tiny_dict()))
        assert main(["run", "--scenario", str(path)]) == 0
        assert "mnist/sec6_cluster:2/nopfs" in capsys.readouterr().out

    def test_run_inline_scenario_json(self, capsys):
        assert main(["run", "--scenario", json.dumps(tiny_dict())]) == 0
        assert "total:" in capsys.readouterr().out

    def test_run_missing_flags_errors(self, capsys):
        assert main(["run", "--dataset", "mnist"]) == 2
        err = capsys.readouterr().err
        assert "--system" in err and "--policy" in err

    def test_run_unknown_policy_errors(self, capsys):
        rc = main(["run", "--dataset", "mnist", "--system", "sec6_cluster:2",
                   "--policy", "nopf", "--scale", "0.2"])
        assert rc == 2
        assert "did you mean" in capsys.readouterr().err

    def test_run_scenario_excludes_axis_flags(self, capsys):
        rc = main(["run", "--scenario", json.dumps(tiny_dict()), "--dataset", "mnist"])
        assert rc == 2

    def test_run_scenario_excludes_knob_flags(self, capsys):
        rc = main(["run", "--scenario", json.dumps(tiny_dict()), "--epochs", "5"])
        assert rc == 2
        assert "--epochs" in capsys.readouterr().err


class TestSweepAndCache:
    @pytest.fixture()
    def scenarios_file(self, tmp_path):
        path = tmp_path / "scenarios.json"
        path.write_text(json.dumps([tiny_dict("naive"), tiny_dict("staging_buffer"),
                                    tiny_dict("nopfs")]))
        return path

    def test_scenarios_sweep_shard_merge_warm(self, tmp_path, scenarios_file, capsys):
        for shard in ("0/2", "1/2"):
            rc = main([
                "sweep", "run", "--scenarios", str(scenarios_file),
                "--shard", shard, "--cache-dir", str(tmp_path / f"shard{shard[0]}"),
                "--manifest", str(tmp_path / f"shard{shard[0]}.json"),
            ])
            assert rc == 0
        capsys.readouterr()
        rc = main([
            "sweep", "merge", str(tmp_path / "shard0"), str(tmp_path / "shard1"),
            "--into", str(tmp_path / "merged"),
            "--manifests", str(tmp_path / "shard0.json"), str(tmp_path / "shard1.json"),
            "--manifest-out", str(tmp_path / "merged.json"),
        ])
        assert rc == 0
        capsys.readouterr()
        # the merged cache serves the whole scenario list without simulating
        rc = main(["sweep", "run", "--scenarios", str(scenarios_file),
                   "--cache-dir", str(tmp_path / "merged")])
        assert rc == 0
        assert "0 miss" in capsys.readouterr().out

    def test_sweep_requires_one_source(self, scenarios_file, capsys):
        assert main(["sweep", "run"]) == 2
        assert main(["sweep", "run", "--grid", "repro.sweep.cli:demo_grid",
                     "--scenarios", str(scenarios_file)]) == 2

    def test_sweep_scenarios_rejects_grid_kwargs(self, scenarios_file, capsys):
        rc = main(["sweep", "run", "--scenarios", str(scenarios_file),
                   "--grid-kwargs", '{"scale": 0.1}'])
        assert rc == 2
        assert "--grid-kwargs" in capsys.readouterr().err

    def test_sweep_progress_lines_on_stderr(self, scenarios_file, capsys):
        rc = main(["sweep", "run", "--scenarios", str(scenarios_file),
                   "--executor", "batched", "--jobs", "2", "--progress"])
        assert rc == 0
        captured = capsys.readouterr()
        assert "[3/3]" in captured.err  # one line per completed cell
        assert "sweep:" in captured.err  # end-of-sweep summary
        assert "executor=batched" in captured.out

    def test_lifecycle_requires_exactly_one_cache_naming(self, tmp_path, capsys):
        for command in ("gc", "stats", "verify"):
            with pytest.raises(SystemExit) as exit_info:
                main(["cache", command])
            assert exit_info.value.code == 2
            assert "--cache-dir" in capsys.readouterr().err

    def test_cache_lifecycle_subcommands(self, tmp_path, scenarios_file, capsys):
        cache = str(tmp_path / "cache")
        assert main(["sweep", "run", "--scenarios", str(scenarios_file),
                     "--cache-dir", cache]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", cache]) == 0
        assert "entries" in capsys.readouterr().out
        assert main(["cache", "verify", "--cache-dir", cache, "--strict"]) == 0
        capsys.readouterr()
        assert main(["cache", "gc", "--cache-dir", cache, "--max-bytes", "1"]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", cache]) == 0
        assert "entries: 0" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "command", [["stats"], ["verify"], ["gc", "--max-bytes", "1"]],
        ids=["stats", "verify", "gc"],
    )
    def test_lifecycle_rejects_a_missing_directory(
        self, command, tmp_path, monkeypatch, capsys
    ):
        """A mistyped path exits 2 instead of reading as an empty cache."""
        monkeypatch.chdir(tmp_path)
        assert main(["cache", command[0], "--cache-dir", "typo-dir", *command[1:]]) == 2
        assert "typo-dir is not a directory" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestRemovedSpellings:
    """``--cache SPEC`` is gone, and no flag is matched by its prefix."""

    COMMANDS = {
        "run": RUN_FLAGS,
        "search": ["search", "--dataset", "mnist", "--system", "sec6_cluster:2"],
        "sweep run": ["sweep", "run", "--grid", "repro.sweep.cli:demo_grid"],
        "experiments": ["experiments", "--figures", "table1"],
        "cache gc": ["cache", "gc", "--cache-dir", "E"],
        "cache stats": ["cache", "stats", "--cache-dir", "E"],
        "cache verify": ["cache", "verify", "--cache-dir", "E"],
    }

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_cache_flag_exits_2_and_creates_nothing(
        self, command, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            main([*self.COMMANDS[command], "--cache", "D"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --cache D" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_prefix_of_a_flag_is_rejected(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            main(["cache", "stats", "--cache-d", "D"])
        assert exit_info.value.code == 2
        assert not (tmp_path / "D").exists()


class TestNonFiniteQuantities:
    @pytest.mark.parametrize(
        "flags", [["--max-bytes", "inf"], ["--max-bytes", "nan"],
                  ["--max-age", "nan"], ["--max-age", "inf"]],
    )
    def test_gc_rejects_non_finite_bounds(self, flags, tmp_path, capsys):
        cache = tmp_path / "cache"
        assert main(["cache", "gc", "--cache-dir", str(cache), *flags]) == 2
        assert "must be finite" in capsys.readouterr().err
        assert not cache.exists()


class TestExperimentsDispatch:
    def test_experiments_table1(self, capsys):
        assert main(["experiments", "--figures", "table1"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out and "nopfs" not in out.lower().split("===")[0]

    def test_experiments_unknown_figure(self, capsys):
        assert main(["experiments", "--figures", "fig99"]) == 2
        assert "unknown figures" in capsys.readouterr().err

    def test_experiments_repeated_figure(self, capsys):
        assert main(["experiments", "--figures", "table1,table1"]) == 2
        captured = capsys.readouterr()
        assert "repeated figures: ['table1']" in captured.err and captured.out == ""

    def test_experiments_usage_names_the_command(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["experiments", "--help"])
        assert exit_info.value.code == 0
        assert capsys.readouterr().out.startswith("usage: python -m repro experiments ")
        with pytest.raises(SystemExit) as exit_info:
            main(["experiments", "--bogus"])
        assert exit_info.value.code == 2
        assert "python -m repro experiments: error: unrecognized arguments: --bogus" in (
            capsys.readouterr().err
        )


class TestEntryPoint:
    def test_new_cli_does_not_warn(self, tmp_path):
        """``python -m repro`` runs as a real process without warnings."""
        (tmp_path / "c").mkdir()
        env = dict(os.environ)
        src = str(REPO_ROOT / "src")
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "cache", "stats",
             "--cache-dir", str(tmp_path / "c")],
            cwd=REPO_ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert "DeprecationWarning" not in proc.stderr
