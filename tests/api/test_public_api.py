"""The package-level public API and the no-concrete-policy-imports rule."""

import re
from pathlib import Path

import pytest

import repro

EXPERIMENTS_DIR = Path(repro.__file__).parent / "experiments"

#: Concrete policy classes figure modules must not touch directly —
#: their grids are expressed via registry names (ISSUE 3 acceptance).
CONCRETE_POLICIES = (
    "NaivePolicy",
    "PerfectPolicy",
    "StagingBufferPolicy",
    "DoubleBufferPolicy",
    "DeepIOPolicy",
    "ParallelStagingPolicy",
    "LBANNPolicy",
    "LocalityAwarePolicy",
    "NoPFSPolicy",
)


class TestLazyExports:
    def test_core_api_exported(self):
        assert repro.Scenario is not None
        assert repro.Session is not None
        assert repro.POLICIES.kind == "policy"
        from repro.api import Scenario

        assert repro.Scenario is Scenario

    def test_sweep_and_sim_exports(self):
        from repro.sim import SimulationResult
        from repro.sweep import SweepRunner

        assert repro.SimulationResult is SimulationResult
        assert repro.SweepRunner is SweepRunner

    def test_all_lists_every_export(self):
        for name in ("Scenario", "Session", "POLICIES", "DATASETS", "SYSTEMS",
                     "SimulationResult", "SweepRunner", "make_policy"):
            assert name in repro.__all__
        assert "__version__" in repro.__all__

    def test_dir_advertises_exports(self):
        assert "Scenario" in dir(repro)

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError):
            repro.not_a_symbol

    def test_version_unchanged(self):
        assert repro.__version__ == "1.0.0"


class TestFigureModulesUseRegistryNames:
    @pytest.mark.parametrize(
        "path", sorted(EXPERIMENTS_DIR.glob("*.py")), ids=lambda p: p.name
    )
    def test_no_concrete_policy_references(self, path):
        source = path.read_text()
        offenders = [
            name
            for name in CONCRETE_POLICIES
            if re.search(rf"\b{name}\b", source)
        ]
        assert not offenders, (
            f"{path.name} references concrete policy classes {offenders}; "
            "express grids via repro.api registry names instead"
        )
