"""Training-layer tests: compute models, accuracy curves, composition."""

import numpy as np
import pytest

from repro.datasets import imagenet1k
from repro.errors import ConfigurationError
from repro.training import (
    RESNET50_P100,
    RESNET50_V100,
    AccuracyModel,
    AccuracyStage,
    ComputeModel,
    compare_curves,
    compose_curve,
    goyal_resnet50_schedule,
)


class TestComputeModel:
    def test_mbps_conversion(self):
        """``c = samples/s × μ``, priced without building the size table."""
        ds = imagenet1k()
        model = ComputeModel("x", 100.0)
        assert model.mbps(ds) == 100 * ds.mean_size_mb
        assert "sizes" not in ds._cache

    def test_epoch_compute_scaling(self):
        ds = imagenet1k()
        t32 = RESNET50_V100.epoch_compute_seconds(ds, 32)
        t64 = RESNET50_V100.epoch_compute_seconds(ds, 64)
        assert t32 == pytest.approx(2 * t64)

    def test_v100_faster_than_p100(self):
        assert RESNET50_V100.samples_per_second > RESNET50_P100.samples_per_second

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ComputeModel("x", 0.0)
        with pytest.raises(ConfigurationError):
            RESNET50_V100.epoch_compute_seconds(imagenet1k(), 0)


class TestAccuracyModel:
    def test_goyal_final_accuracy(self):
        model = goyal_resnet50_schedule()
        assert model.top1(90) == pytest.approx(76.5, abs=0.5)

    def test_monotone_nondecreasing(self):
        model = goyal_resnet50_schedule()
        accs = model.top1(np.linspace(0, 90, 500))
        assert np.all(np.diff(accs) >= -1e-9)

    def test_lr_drops_cause_jumps(self):
        """The staircase: accuracy gains accelerate right after a drop."""
        model = goyal_resnet50_schedule()
        before = model.top1(30.0) - model.top1(28.0)
        after = model.top1(32.0) - model.top1(30.0)
        assert after > before

    def test_milestone_shape(self):
        """Roughly the published ResNet-50 curve: high 50s/low 60s by 30,
        >70 by 60, >75 by 85."""
        model = goyal_resnet50_schedule()
        assert 55 <= model.top1(30) <= 66
        assert 70 <= model.top1(60) <= 74
        assert model.top1(85) > 75

    def test_scalar_and_array(self):
        model = goyal_resnet50_schedule()
        assert isinstance(model.top1(10.0), float)
        assert model.top1(np.array([10.0])).shape == (1,)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            AccuracyStage(0, 50.0, rate=0.0)
        with pytest.raises(ConfigurationError):
            AccuracyStage(0, 120.0, rate=0.1)
        with pytest.raises(ConfigurationError):
            AccuracyModel(stages=())
        with pytest.raises(ConfigurationError):
            AccuracyModel(
                stages=(
                    AccuracyStage(30, 60, 0.1),
                    AccuracyStage(0, 70, 0.1),
                )
            )


class TestEndToEnd:
    def test_compose_curve(self):
        model = goyal_resnet50_schedule()
        curve = compose_curve("x", np.full(90, 60.0), model)
        assert curve.total_time_s == pytest.approx(90 * 60.0)
        assert curve.final_top1 == pytest.approx(76.5, abs=0.5)

    def test_speedup(self):
        model = goyal_resnet50_schedule()
        cmp = compare_curves(np.full(90, 74.0), np.full(90, 52.0), model)
        assert cmp.speedup == pytest.approx(74 / 52)
        # identical learning curve, compressed clock
        np.testing.assert_allclose(
            cmp.baseline.top1_at_epoch_end, cmp.contender.top1_at_epoch_end
        )

    def test_time_to_accuracy(self):
        model = goyal_resnet50_schedule()
        cmp = compare_curves(np.full(90, 74.0), np.full(90, 52.0), model)
        assert cmp.speedup_to_accuracy(70.0) == pytest.approx(74 / 52)
        assert cmp.baseline.time_to_accuracy_s(99.0) is None

    def test_validation(self):
        model = goyal_resnet50_schedule()
        with pytest.raises(ConfigurationError):
            compose_curve("x", np.array([]), model)
        with pytest.raises(ConfigurationError):
            compose_curve("x", np.array([1.0, -1.0]), model)
        with pytest.raises(ConfigurationError):
            compare_curves(np.ones(5), np.ones(6), model)
