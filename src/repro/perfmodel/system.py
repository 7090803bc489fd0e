"""System models: a full compute/storage environment (Table 2 quantities).

:class:`SystemModel` bundles everything the performance model needs about
one machine: worker count ``N``, compute throughput ``c``, preprocessing
rate ``beta``, inter-worker bandwidth ``b_c``, the PFS curve ``t(gamma)``
and the per-worker storage hierarchy.

Three presets ship with the library:

* :func:`sec6_cluster` — the paper's simulation cluster (Sec 6.1), with
  every number taken verbatim from the paper ("based on benchmarks of
  the Lassen supercomputer").
* :func:`piz_daint` — Piz Daint per-rank model (Sec 7 / Fig 1): 64 GB
  RAM, no local SSD, Lustre PFS. Compute/PFS parameters are calibrated,
  not measured (we do not have the machine); see EXPERIMENTS.md.
* :func:`lassen` — Lassen per-rank model (4 ranks/node): 5 GiB staging,
  25 GiB RAM, 300 GiB SSD per rank, GPFS. Same calibration caveat.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from ..config import ConfigMixin
from ..errors import ConfigurationError
from ..units import GB
from .pfs import PFSModel
from .storage import StagingBufferModel, StorageClassModel, StorageHierarchy
from .throughput import ThroughputCurve

__all__ = ["SystemModel", "sec6_cluster", "piz_daint", "lassen"]


@dataclass(frozen=True)
class SystemModel(ConfigMixin):
    """A compute/storage environment for the performance model.

    Attributes
    ----------
    name:
        Environment label for harness output.
    num_workers:
        ``N`` — data-parallel workers (one rank per GPU in Sec 7 terms).
    compute_mbps:
        ``c`` — training compute throughput per worker, in MB of raw
        input consumed per second (Sec 4 explains the MB/s convention).
    preprocess_mbps:
        ``beta`` — preprocessing/decode rate per worker.
    network_mbps:
        ``b_c`` — inter-worker (remote fetch) bandwidth per worker.
    pfs:
        The shared-filesystem model.
    staging:
        Storage class 0 (staging buffer) of each worker.
    storage_classes:
        Cache tiers of each worker, fastest first.
    """

    name: str
    num_workers: int
    compute_mbps: float
    preprocess_mbps: float
    network_mbps: float
    pfs: PFSModel
    staging: StagingBufferModel
    storage_classes: tuple[StorageClassModel, ...] = ()

    def __post_init__(self) -> None:
        if self.num_workers <= 0:
            raise ConfigurationError("num_workers must be positive")
        for field_name in ("compute_mbps", "preprocess_mbps", "network_mbps"):
            if getattr(self, field_name) <= 0:
                raise ConfigurationError(f"{field_name} must be positive")
        # Hierarchy construction validates tier ordering.
        self.hierarchy  # noqa: B018 - validation side effect

    @property
    def hierarchy(self) -> StorageHierarchy:
        """The per-worker storage hierarchy (staging + cache tiers)."""
        return StorageHierarchy(self.staging, self.storage_classes)

    @property
    def total_cache_mb(self) -> float:
        """``D`` — one worker's total cache capacity in MB."""
        return self.hierarchy.total_cache_mb

    @property
    def aggregate_cache_mb(self) -> float:
        """``N * D`` — the cluster's total cache capacity in MB."""
        return self.total_cache_mb * self.num_workers

    def replace(self, **changes) -> "SystemModel":
        """A copy with fields replaced (workers, compute, tiers, ...)."""
        return dataclasses.replace(self, **changes)

    def with_compute_factor(self, factor: float) -> "SystemModel":
        """Compute *and* preprocessing scaled by ``factor``.

        Fig 9 assumes "5x compute and preprocessing throughput, which is
        representative of future machine learning accelerators".
        """
        if factor <= 0:
            raise ConfigurationError("factor must be positive")
        return self.replace(
            compute_mbps=self.compute_mbps * factor,
            preprocess_mbps=self.preprocess_mbps * factor,
        )

    def with_class_capacities(self, capacities_mb: list[float]) -> "SystemModel":
        """A copy with cache-tier capacities replaced (Fig 9 sweep)."""
        if len(capacities_mb) != len(self.storage_classes):
            raise ConfigurationError(
                f"expected {len(self.storage_classes)} capacities, "
                f"got {len(capacities_mb)}"
            )
        new_classes = tuple(
            c.with_capacity(cap)
            for c, cap in zip(self.storage_classes, capacities_mb)
        )
        return self.replace(storage_classes=new_classes)


def sec6_cluster(num_workers: int = 4) -> SystemModel:
    """The paper's Sec 6.1 simulation cluster, numbers verbatim.

    N=4 workers; c=64 MB/s; beta=200 MB/s; b_c=24,000 MB/s; 5 GB staging
    buffer with 8 threads and r0(8)=111 GB/s; 120 GB RAM with 4 threads
    and r1(4)=85 GB/s; 900 GB SSD with 2 threads and r2(2)=4 GB/s; PFS
    t(1)=330, t(2)=730, t(4)=1540, t(8)=2870 MB/s (Lassen benchmarks).
    """
    return SystemModel(
        name="sec6-cluster",
        num_workers=num_workers,
        compute_mbps=64.0,
        preprocess_mbps=200.0,
        network_mbps=24_000.0,
        pfs=PFSModel(
            name="lassen-pfs",
            throughput=ThroughputCurve.from_mapping(
                {1: 330.0, 2: 730.0, 4: 1540.0, 8: 2870.0}
            ),
            # The paper's own simulator (whose numbers Fig 8 reports) has
            # no per-request cost; keep the Sec 6 preset faithful to it.
            latency_s=0.0,
        ),
        staging=StagingBufferModel(
            capacity_mb=5 * GB,
            read=ThroughputCurve.from_mapping({8: 111.0 * GB}),
            threads=8,
        ),
        storage_classes=(
            StorageClassModel(
                name="ram",
                capacity_mb=120 * GB,
                read=ThroughputCurve.from_mapping({4: 85.0 * GB}),
                prefetch_threads=4,
            ),
            StorageClassModel(
                name="ssd",
                capacity_mb=900 * GB,
                read=ThroughputCurve.from_mapping({2: 4.0 * GB}),
                write=ThroughputCurve.from_mapping({2: 2.0 * GB}),
                prefetch_threads=2,
            ),
        ),
    )


def piz_daint(num_workers: int = 32, compute_mbps: float = 25.0) -> SystemModel:
    """Piz Daint per-rank model (Sec 7): 1 rank/GPU-node, no local SSD.

    NoPFS on Piz Daint "uses a 5 GiB staging buffer with four prefetching
    threads and 40 GiB of RAM with two prefetching threads". The Lustre
    ``t(gamma)`` curve and P100 ResNet-50 compute rate are calibrated to
    reproduce the paper's *shape* (contention wall past ~64 clients);
    EXPERIMENTS.md records the calibration.
    """
    return SystemModel(
        name="piz-daint",
        num_workers=num_workers,
        compute_mbps=compute_mbps,
        preprocess_mbps=2_000.0,
        network_mbps=9_000.0,
        pfs=PFSModel(
            name="lustre",
            throughput=ThroughputCurve.from_mapping(
                {
                    1: 300.0,
                    2: 600.0,
                    4: 1_100.0,
                    8: 1_800.0,
                    16: 2_400.0,
                    32: 2_800.0,
                    64: 3_000.0,
                }
            ),
            latency_s=1.0e-3,
        ),
        staging=StagingBufferModel(
            capacity_mb=5 * GB,
            read=ThroughputCurve.from_mapping({4: 40.0 * GB}),
            threads=4,
        ),
        storage_classes=(
            StorageClassModel(
                name="ram",
                capacity_mb=40 * GB,
                read=ThroughputCurve.from_mapping({2: 50.0 * GB}),
                prefetch_threads=2,
            ),
        ),
    )


def lassen(num_workers: int = 32, compute_mbps: float = 80.0) -> SystemModel:
    """Lassen per-rank model (Sec 7): 4 ranks/node, RAM + NVMe SSD tiers.

    "On Lassen, a NoPFS rank (four per node) uses a 5 GiB staging buffer
    with eight prefetching threads, 25 GiB of RAM with four prefetching
    threads, and 300 GiB of SSD with two prefetching threads." GPFS and
    V100 parameters are calibrated for shape; see EXPERIMENTS.md.
    """
    return SystemModel(
        name="lassen",
        num_workers=num_workers,
        compute_mbps=compute_mbps,
        preprocess_mbps=4_000.0,
        network_mbps=6_000.0,
        pfs=PFSModel(
            name="gpfs",
            throughput=ThroughputCurve.from_mapping(
                {
                    1: 350.0,
                    4: 1_400.0,
                    16: 5_000.0,
                    64: 10_000.0,
                    256: 14_000.0,
                    512: 15_000.0,
                }
            ),
            latency_s=0.2e-3,
        ),
        staging=StagingBufferModel(
            capacity_mb=5 * GB,
            read=ThroughputCurve.from_mapping({8: 60.0 * GB}),
            threads=8,
        ),
        storage_classes=(
            StorageClassModel(
                name="ram",
                capacity_mb=25 * GB,
                read=ThroughputCurve.from_mapping({4: 100.0 * GB}),
                prefetch_threads=4,
            ),
            StorageClassModel(
                name="ssd",
                capacity_mb=300 * GB,
                read=ThroughputCurve.from_mapping({2: 2.0 * GB}),
                write=ThroughputCurve.from_mapping({2: 1.0 * GB}),
                prefetch_threads=2,
            ),
        ),
    )
