"""System presets must match the paper's published parameters."""

import pytest

from repro.errors import ConfigurationError
from repro.perfmodel import lassen, piz_daint, sec6_cluster
from repro.units import GB


class TestSec6Cluster:
    """Every number here is stated verbatim in Sec 6.1."""

    def test_workers_and_rates(self):
        sys = sec6_cluster()
        assert sys.num_workers == 4
        assert sys.compute_mbps == 64.0
        assert sys.preprocess_mbps == 200.0
        assert sys.network_mbps == 24_000.0

    def test_pfs_curve(self):
        sys = sec6_cluster()
        assert sys.pfs.aggregate_mbps(1) == pytest.approx(330)
        assert sys.pfs.aggregate_mbps(2) == pytest.approx(730)
        assert sys.pfs.aggregate_mbps(4) == pytest.approx(1540)
        assert sys.pfs.aggregate_mbps(8) == pytest.approx(2870)

    def test_staging(self):
        sys = sec6_cluster()
        assert sys.staging.capacity_mb == 5 * GB
        assert sys.staging.threads == 8
        assert sys.staging.read.aggregate(8) == pytest.approx(111 * GB)

    def test_tiers(self):
        sys = sec6_cluster()
        ram, ssd = sys.storage_classes
        assert ram.capacity_mb == 120 * GB and ram.prefetch_threads == 4
        assert ram.read.aggregate(4) == pytest.approx(85 * GB)
        assert ssd.capacity_mb == 900 * GB and ssd.prefetch_threads == 2
        assert ssd.read.aggregate(2) == pytest.approx(4 * GB)

    def test_total_cache(self):
        assert sec6_cluster().total_cache_mb == pytest.approx(1020 * GB)
        assert sec6_cluster().aggregate_cache_mb == pytest.approx(4080 * GB)


class TestSec7Presets:
    def test_piz_daint_structure(self):
        sys = piz_daint(num_workers=64)
        assert sys.num_workers == 64
        # Sec 7: 5 GiB staging/4 threads, 40 GiB RAM/2 threads, no SSD.
        assert sys.staging.capacity_mb == 5 * GB and sys.staging.threads == 4
        (ram,) = sys.storage_classes
        assert ram.capacity_mb == 40 * GB and ram.prefetch_threads == 2

    def test_lassen_structure(self):
        sys = lassen(num_workers=128)
        # Sec 7: 5 GiB staging/8, 25 GiB RAM/4, 300 GiB SSD/2 per rank.
        assert sys.staging.capacity_mb == 5 * GB and sys.staging.threads == 8
        ram, ssd = sys.storage_classes
        assert ram.capacity_mb == 25 * GB and ram.prefetch_threads == 4
        assert ssd.capacity_mb == 300 * GB and ssd.prefetch_threads == 2

    def test_pfs_saturates(self):
        """Both machines' PFS curves must saturate (the contention wall)."""
        for preset in (piz_daint, lassen):
            sys = preset()
            assert sys.pfs.aggregate_mbps(4096) == pytest.approx(
                sys.pfs.throughput.saturation_mbps
            )


class TestModifiers:
    def test_with_compute_factor(self):
        sys = sec6_cluster().with_compute_factor(5.0)
        assert sys.compute_mbps == 320.0
        assert sys.preprocess_mbps == 1000.0
        with pytest.raises(ConfigurationError):
            sec6_cluster().with_compute_factor(0)

    def test_with_class_capacities(self):
        sys = sec6_cluster().with_class_capacities([64 * GB, 128 * GB])
        assert [c.capacity_mb for c in sys.storage_classes] == [64 * GB, 128 * GB]
        with pytest.raises(ConfigurationError):
            sec6_cluster().with_class_capacities([1.0])

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            sec6_cluster().replace(num_workers=0)
        with pytest.raises(ConfigurationError):
            sec6_cluster().replace(compute_mbps=0.0)

    def test_effective_gamma(self):
        sys = sec6_cluster()
        assert sys.pfs.effective_gamma(4, 1.0) == 4.0
        assert sys.pfs.effective_gamma(4, 0.0) == 0.0
        assert sys.pfs.effective_gamma(4, 0.1) == 1.0  # clamped to >= 1
        with pytest.raises(ConfigurationError):
            sys.pfs.effective_gamma(4, 1.5)
