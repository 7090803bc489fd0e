"""Compute-throughput models: samples/s per GPU -> the model's ``c``.

The performance model wants compute as MB of raw input per second
(Sec 4: "if it is known only in terms of samples/second, it can be
approximated by multiplying this by the average file size"). This
module does that conversion and carries the calibrated per-GPU training
rates used by the Sec 7 experiments.

The rule is ``c = samples/s × μ``, with ``μ`` the nominal mean of
Sec 6.1's Normal(μ, σ) sizes, so no size table is built. The realized
mean is not used: it would cost all ``F`` sizes (14.2M for ImageNet-22k)
to move ``c`` by ≤7e-5 relative, the residue of truncating at
``min_size_mb`` after re-centring.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import ConfigMixin
from ..datasets import DatasetModel
from ..errors import ConfigurationError

__all__ = ["ComputeModel", "RESNET50_P100", "RESNET50_V100", "RESNET50_22K_V100", "COSMOFLOW_V100"]


@dataclass(frozen=True)
class ComputeModel(ConfigMixin):
    """Per-worker training throughput in samples/second.

    Attributes
    ----------
    name:
        Model/hardware label.
    samples_per_second:
        Sustained training throughput of one worker (one GPU).
    """

    name: str
    samples_per_second: float

    def __post_init__(self) -> None:
        if self.samples_per_second <= 0:
            raise ConfigurationError("samples_per_second must be positive")

    def mbps(self, dataset: DatasetModel) -> float:
        """``c`` — MB of raw input consumed per second on ``dataset``.

        ``samples_per_second × μ``: Sec 4's "average file size" is the
        nominal mean, so no size table is built (see the module notes).
        """
        return self.samples_per_second * dataset.mean_size_mb

    def epoch_compute_seconds(
        self, dataset: DatasetModel, num_workers: int
    ) -> float:
        """Pure-compute epoch time at ``num_workers`` (the scaling floor)."""
        if num_workers <= 0:
            raise ConfigurationError("num_workers must be positive")
        return dataset.num_samples / (self.samples_per_second * num_workers)


#: ResNet-50 on a P100 (Piz Daint), calibrated vs the paper's epoch times.
RESNET50_P100 = ComputeModel("resnet50/p100", 230.0)
#: ResNet-50 on a V100 rank (Lassen, 4 ranks/node).
RESNET50_V100 = ComputeModel("resnet50/v100", 750.0)
#: ResNet-50 with the 21,841-way ImageNet-22k head (bigger classifier).
RESNET50_22K_V100 = ComputeModel("resnet50-22k/v100", 520.0)
#: CosmoFlow's 3D CNN on a V100 rank (large 16 MB samples).
COSMOFLOW_V100 = ComputeModel("cosmoflow/v100", 7.5)
