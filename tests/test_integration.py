"""Cross-layer integration tests: runtime, loaders, simulator, training.

These exercise several subsystems together on realistic (small) setups —
the scenarios a downstream user actually runs.
"""

import threading
import time

import numpy as np

from repro.core import AccessStream, StreamConfig
from repro.loader import (
    BinaryFolderDataset,
    NaiveLoader,
    NoPFSDataLoader,
    SyntheticFileDataset,
)
from repro.runtime import (
    DistributedJobGroup,
    FilesystemBackend,
    MemoryBackend,
)
from repro.training import train_classifier


class TestImageFolderPipeline:
    """The paper's ImageNet layout through the full functional stack."""

    def test_binary_folder_through_nopfs(self, tmp_path):
        ds = BinaryFolderDataset.generate(
            tmp_path / "imgs", num_classes=3, samples_per_class=20, sample_bytes=64
        )
        grp = DistributedJobGroup(
            ds, num_workers=2, batch_size=4, num_epochs=2, seed=3,
            staging_bytes=2048,
        )
        labels_seen = set()
        with grp:
            loaders = [NoPFSDataLoader(j) for j in grp.jobs]
            outs = [[], []]

            def consume(ld, out):
                for batch in ld:
                    out.extend(zip(batch.ids.tolist(), batch.labels.tolist()))

            ts = [
                threading.Thread(target=consume, args=(ld, out))
                for ld, out in zip(loaders, outs)
            ]
            for t in ts:
                t.start()
            for t in ts:
                t.join(60)
        for out in outs:
            for sid, label in out:
                assert label == ds.label(sid)
                labels_seen.add(label)
        assert labels_seen == {0, 1, 2}


class TestTieredCaches:
    """RAM + filesystem tiers together, like the paper's RAM+SSD ranks."""

    def test_two_tier_job(self, tmp_path):
        ds = SyntheticFileDataset.generate(
            tmp_path / "data", num_samples=150, mean_bytes=128, seed=5
        )
        grp = DistributedJobGroup(
            ds,
            num_workers=2,
            batch_size=5,
            num_epochs=3,
            seed=9,
            tier_factories=[
                lambda r: MemoryBackend(128 * 20),  # tiny RAM: 20 samples
                lambda r, p=tmp_path: FilesystemBackend(
                    128 * 200, p / f"ssd_{r}"
                ),
            ],
            staging_bytes=4096,
        )
        with grp:
            stats = grp.run_consumers()
        # Both tiers were used: more cached samples than RAM alone holds.
        for job in grp.jobs:
            assert len(job.tiers[1]) > 0, "filesystem tier never used"
            assert len(job.tiers[0]) > 0, "memory tier never used"
        for job, s in zip(grp.jobs, stats):
            assert s["local_hits"] + s["remote_hits"] + s["dataset_reads"] == (
                job.total_samples
            )

    def test_tier_capacity_respected_end_to_end(self, tmp_path):
        ds = SyntheticFileDataset.generate(
            tmp_path / "d", num_samples=100, mean_bytes=100, seed=6
        )
        cap = 100 * 10
        grp = DistributedJobGroup(
            ds, num_workers=1, batch_size=5, num_epochs=2, seed=2,
            tier_factories=[lambda r: MemoryBackend(cap)],
            staging_bytes=2048,
        )
        with grp:
            grp.run_consumers()
        assert grp.jobs[0].tiers[0].used_bytes <= cap


class TestStreamConsistencyAcrossLayers:
    """The same seed must mean the same accesses in every subsystem."""

    def test_job_loader_sampler_agree(self, tmp_path):
        ds = SyntheticFileDataset.generate(
            tmp_path / "d", num_samples=120, mean_bytes=32, seed=8
        )
        cfg = StreamConfig(77, 120, 2, 6, 2)
        sampler_ids = np.concatenate(
            [
                AccessStream(cfg).worker_epoch_stream(0, e)
                for e in range(2)
            ]
        )
        grp = DistributedJobGroup(
            ds, num_workers=2, batch_size=6, num_epochs=2, seed=77,
            staging_bytes=2048,
        )
        np.testing.assert_array_equal(grp.jobs[0].stream_ids, sampler_ids)
        grp.start()
        grp.stop()

    def test_training_invariant_to_cache_configuration(self, tmp_path):
        """Cache sizes change *where* bytes come from, never *what* the
        model sees: training is bit-identical across configurations."""
        ds = SyntheticFileDataset.generate(
            tmp_path / "d",
            num_samples=90,
            mean_bytes=64,
            num_classes=3,
            seed=4,
            learnable=True,
        )
        results = []
        for cache_bytes in (64 * 5, 64 * 1000):
            grp = DistributedJobGroup(
                ds, num_workers=1, batch_size=6, num_epochs=2, seed=12,
                tier_factories=[lambda r, c=cache_bytes: MemoryBackend(c)],
                staging_bytes=2048,
            )
            with grp:
                results.append(
                    train_classifier(
                        NoPFSDataLoader(grp.jobs[0]), 16, 3, seed=5
                    )
                )
        np.testing.assert_allclose(results[0].losses, results[1].losses)

    def test_naive_loader_same_bytes(self, tmp_path):
        ds = SyntheticFileDataset.generate(
            tmp_path / "d", num_samples=60, mean_bytes=48, seed=10
        )
        cfg = StreamConfig(5, 60, 1, 6, 1)
        naive_batches = list(NaiveLoader(ds, cfg, 0))
        grp = DistributedJobGroup(
            ds, num_workers=1, batch_size=6, num_epochs=1, seed=5,
            staging_bytes=2048,
        )
        with grp:
            nopfs_batches = list(NoPFSDataLoader(grp.jobs[0]))
        assert len(naive_batches) == len(nopfs_batches)
        for a, b in zip(naive_batches, nopfs_batches):
            np.testing.assert_array_equal(a.ids, b.ids)
            np.testing.assert_array_equal(a.data, b.data)


class TestSimulatorRuntimeAgreement:
    """Qualitative agreement between the two artifacts: what the
    simulator predicts (cache hits dominate after epoch 0) is what the
    functional runtime actually does."""

    def test_warm_epoch_locality(self, tmp_path):
        ds = SyntheticFileDataset.generate(
            tmp_path / "d", num_samples=100, mean_bytes=64, seed=3
        )
        grp = DistributedJobGroup(
            ds, num_workers=2, batch_size=5, num_epochs=4, seed=21,
            tier_factories=[lambda r: MemoryBackend(1 << 20)],  # plenty
            staging_bytes=4096,
        )
        with grp:
            # Consume only once every rank's tier prefetch has attempted
            # its whole list: the warm epochs then find their samples
            # cached whatever the thread timing, and only the staging
            # buffer's head start (about 4096 bytes of samples) can
            # have come from the dataset.
            planned = [
                sum(len(ids) for ids in job.plan.tier_prefetch_lists(job.rank))
                for job in grp.jobs
            ]
            deadline = time.monotonic() + 60.0
            while any(
                job.metadata.progress < n for job, n in zip(grp.jobs, planned)
            ):
                assert not grp.errors(), grp.errors()
                assert time.monotonic() < deadline, "tier prefetch stalled"
                time.sleep(0.005)
            stats = grp.run_consumers()
        for job, s in zip(grp.jobs, stats):
            # With full-coverage caches, dataset reads are bounded by
            # roughly one cold pass (tier prefetch) worth of staging
            # misses, far below one per consumed sample.
            assert s["local_hits"] > s["dataset_reads"]
            assert s["local_hits"] + s["remote_hits"] >= job.total_samples // 2
