"""Noise model tests: determinism, mean preservation, tails."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.perfmodel import Source
from repro.rng import generator, generator_states
from repro.sim import NoiseConfig, SourceBand, apply_noise, apply_noise_matrix
from repro.sim import noise as noise_mod


def sources(n, kind):
    return np.full(n, int(kind), dtype=np.int8)


def noise_band(n, offset=0):
    """A fresh band over ``generator(0, "noise", 1, w)``'s initial states."""
    return SourceBand(generator_states(0, "noise", 1, range(offset, offset + n)))


class TestConfig:
    def test_defaults_enabled(self):
        assert NoiseConfig().enabled

    def test_disabled_factory(self):
        assert not NoiseConfig.disabled().enabled

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            NoiseConfig(pfs_sigma=-0.1)
        with pytest.raises(ConfigurationError):
            NoiseConfig(pfs_tail_prob=1.5)
        with pytest.raises(ConfigurationError):
            NoiseConfig(pfs_tail_scale=0.5)

    def test_serialization(self):
        cfg = NoiseConfig(pfs_sigma=0.3)
        assert NoiseConfig.from_dict(cfg.to_dict()) == cfg


class TestApply:
    def test_disabled_passthrough(self):
        times = np.ones(100)
        out = apply_noise(times, sources(100, Source.PFS), NoiseConfig.disabled(), generator(0, "n"))
        np.testing.assert_array_equal(out, times)
        assert out is not times  # copy, caller may mutate

    def test_deterministic(self):
        times = np.ones(1000)
        src = sources(1000, Source.PFS)
        a = apply_noise(times, src, NoiseConfig(), generator(1, "n"))
        b = apply_noise(times, src, NoiseConfig(), generator(1, "n"))
        np.testing.assert_array_equal(a, b)

    def test_seed_sensitivity(self):
        times = np.ones(1000)
        src = sources(1000, Source.PFS)
        a = apply_noise(times, src, NoiseConfig(), generator(1, "n"))
        b = apply_noise(times, src, NoiseConfig(), generator(2, "n"))
        assert not np.array_equal(a, b)

    def test_mean_preserving_pfs(self):
        times = np.ones(200_000)
        src = sources(200_000, Source.PFS)
        cfg = NoiseConfig(pfs_tail_prob=0.0)  # isolate the lognormal part
        out = apply_noise(times, src, cfg, generator(3, "n"))
        assert out.mean() == pytest.approx(1.0, rel=0.02)

    def test_tails_present(self):
        times = np.ones(100_000)
        src = sources(100_000, Source.PFS)
        cfg = NoiseConfig(pfs_tail_prob=0.01, pfs_tail_scale=20.0)
        out = apply_noise(times, src, cfg, generator(4, "n"))
        # Order-of-magnitude events must exist (paper Sec 7.1).
        assert (out > 10.0).sum() > 100

    def test_local_noise_light(self):
        times = np.ones(50_000)
        out_local = apply_noise(times, sources(50_000, Source.LOCAL), NoiseConfig(), generator(5, "n"))
        out_pfs = apply_noise(times, sources(50_000, Source.PFS), NoiseConfig(), generator(5, "n"))
        assert out_local.std() < out_pfs.std()

    def test_none_untouched(self):
        times = np.full(10, 7.0)
        out = apply_noise(times, sources(10, Source.NONE), NoiseConfig(), generator(6, "n"))
        np.testing.assert_array_equal(out, times)

    def test_mixed_sources(self):
        times = np.ones(6)
        src = np.array([0, 1, 2, 0, 1, 2], dtype=np.int8)
        out = apply_noise(times, src, NoiseConfig(), generator(7, "n"))
        assert out.shape == times.shape
        assert (out > 0).all()

    def test_empty(self):
        out = apply_noise(np.empty(0), np.empty(0, dtype=np.int8), NoiseConfig(), generator(8, "n"))
        assert out.size == 0

    def test_zero_sigma_identity(self):
        cfg = NoiseConfig(pfs_sigma=0.0, pfs_tail_prob=0.0, remote_sigma=0.0, local_sigma=0.0)
        times = np.linspace(0.1, 1.0, 50)
        out = apply_noise(times, sources(50, Source.PFS), cfg, generator(9, "n"))
        np.testing.assert_allclose(out, times)


class TestApplyNoiseMatrix:
    """The whole-epoch form must replay the per-worker RNG streams."""

    def _assert_rows_replay(self, out, times, src, cfg, offset=0, label=""):
        for w in range(times.shape[0]):
            row_rng = generator(0, "noise", 1, offset + w)
            np.testing.assert_array_equal(
                out[w],
                apply_noise(times[w], src[w], cfg, row_rng),
                err_msg=f"{label} worker {offset + w}",
            )

    def _matrices(self, n=4, length=96, seed=13):
        rng = np.random.default_rng(seed)
        times = rng.random((n, length)) + 1e-3
        src = rng.integers(0, 4, size=(n, length)).astype(np.int8)
        return times, src

    def test_bitwise_matches_per_worker_apply_noise(self):
        times, src = self._matrices()
        cfg = NoiseConfig()
        out = apply_noise_matrix(times, src, cfg, noise_band(times.shape[0]))
        self._assert_rows_replay(out, times, src, cfg)

    def test_band_at_worker_offset_mixes_every_source(self):
        """A band starting at worker 37: all three sources, tail events
        and a zero-sigma source in one call replay the absolute streams."""
        cfg = NoiseConfig(pfs_tail_prob=0.2, remote_sigma=0.0)
        times, src = self._matrices(n=6, length=128, seed=5)
        for code in (Source.PFS, Source.REMOTE, Source.LOCAL):
            assert (src == int(code)).any(axis=1).all()
        offset = 37
        out = apply_noise_matrix(times, src, cfg, noise_band(6, offset))
        self._assert_rows_replay(out, times, src, cfg, offset=offset)
        pfs = src == int(Source.PFS)
        assert (out[pfs] / times[pfs] > 5.0).any()  # tail events fired
        remote = src == int(Source.REMOTE)
        np.testing.assert_array_equal(out[remote], times[remote])

    def test_disabled_noise_is_a_copy(self):
        times, src = self._matrices()
        out = apply_noise_matrix(times, src, NoiseConfig.disabled(), SourceBand())
        assert out is not times
        np.testing.assert_array_equal(out, times)

    def test_generator_count_must_match_workers(self):
        times, src = self._matrices(n=3)
        with pytest.raises(ConfigurationError):
            apply_noise_matrix(times, src, NoiseConfig(), noise_band(1))

    #: Configs steering every short-circuit in the kernel: the default
    #: (tail uniforms between PFS and remote/local), no tails,
    #: sigma-zero sources that must consume nothing, tails with
    #: jitterless PFS, and everything off.
    CONFIGS = {
        "default": NoiseConfig(),
        "no-tails": NoiseConfig(pfs_tail_prob=0.0),
        "pfs-sigma-zero": NoiseConfig(pfs_sigma=0.0),
        "pfs-sigma-zero-no-tails": NoiseConfig(pfs_sigma=0.0, pfs_tail_prob=0.0),
        "remote-sigma-zero": NoiseConfig(remote_sigma=0.0),
        "local-sigma-zero": NoiseConfig(local_sigma=0.0),
        "all-sigma-zero": NoiseConfig(
            pfs_sigma=0.0, remote_sigma=0.0, local_sigma=0.0
        ),
        "all-zero": NoiseConfig(
            pfs_sigma=0.0, remote_sigma=0.0, local_sigma=0.0, pfs_tail_prob=0.0
        ),
        "heavy-tails": NoiseConfig(pfs_tail_prob=0.4, pfs_tail_scale=30.0),
    }

    #: Source-class layouts hitting the lazy-mask fast path: rows where
    #: whole classes are absent must never build those masks, and the
    #: result must still replay the per-worker streams exactly.
    def _source_layouts(self, n=4, length=96):
        full = np.random.default_rng(21).integers(0, 4, (n, length))
        return {
            "mixed": full.astype(np.int8),
            "pfs-only": np.full((n, length), int(Source.PFS), dtype=np.int8),
            "remote-only": np.full((n, length), int(Source.REMOTE), dtype=np.int8),
            "local-only": np.full((n, length), int(Source.LOCAL), dtype=np.int8),
            "none-only": np.full((n, length), int(Source.NONE), dtype=np.int8),
            "pfs-and-none": np.where(
                full < 2, int(Source.PFS), int(Source.NONE)
            ).astype(np.int8),
            "remote-and-local": np.where(
                full < 2, int(Source.REMOTE), int(Source.LOCAL)
            ).astype(np.int8),
        }

    @pytest.mark.parametrize("cfg_name", sorted(CONFIGS))
    def test_fast_paths_bitwise_match_per_worker(self, cfg_name):
        """Every short-circuit combination replays the scalar streams."""
        cfg = self.CONFIGS[cfg_name]
        times, _ = self._matrices()
        for layout, src in self._source_layouts().items():
            out = apply_noise_matrix(times, src, cfg, noise_band(times.shape[0]))
            self._assert_rows_replay(
                out, times, src, cfg, label=f"{cfg_name} / {layout} /"
            )

    def test_absent_classes_skip_mask_construction(self):
        """The micro-fix: all-PFS rows never scan for remote/local."""
        times, _ = self._matrices()
        src = np.full(times.shape, int(Source.PFS), dtype=np.int8)

        class _NoCompare(np.ndarray):
            def __eq__(self, other):
                if other in (int(Source.REMOTE), int(Source.LOCAL)):
                    raise AssertionError(f"built mask for absent class {other}")
                return np.ndarray.__eq__(self, other)

        guarded = src.view(_NoCompare)
        with pytest.raises(AssertionError):
            guarded == int(Source.REMOTE)  # the guard itself is live
        out = apply_noise_matrix(
            times, guarded, NoiseConfig(), noise_band(times.shape[0])
        )
        assert out.shape == times.shape

    def test_stream_not_consumed_for_sigma_zero(self):
        """sigma==0 sources draw nothing, keeping streams aligned: with
        jitterless PFS and remote ahead of local in the stream, the
        local draws replay :func:`apply_noise` only if nothing before
        them consumed the stream."""
        times, src = self._matrices()
        cfg = NoiseConfig(
            pfs_sigma=0.0, remote_sigma=0.0, local_sigma=0.0, pfs_tail_prob=0.0
        )
        out = apply_noise_matrix(times, src, cfg, noise_band(times.shape[0]))
        np.testing.assert_array_equal(out, times)
        cfg = NoiseConfig(pfs_sigma=0.0, remote_sigma=0.0, pfs_tail_prob=0.0)
        out = apply_noise_matrix(times, src, cfg, noise_band(times.shape[0]))
        self._assert_rows_replay(out, times, src, cfg)
        local = src == int(Source.LOCAL)
        assert not np.array_equal(out[local], times[local])
        first_local = int(np.argmax(local[0]))
        assert out[0, first_local] / times[0, first_local] == (
            generator(0, "noise", 1, 0).lognormal(-0.5 * 0.03**2, 0.03)
        )


class TestNoiseBandMemo:
    """A band draws each distinct source matrix once."""

    def _draws(self, monkeypatch):
        calls = []
        draw = noise_mod.noise_multipliers

        def counting(*args, **kwargs):
            calls.append(args[0].copy())
            return draw(*args, **kwargs)

        monkeypatch.setattr(noise_mod, "noise_multipliers", counting)
        return calls

    def _matrices(self, seed=3):
        rng = np.random.default_rng(seed)
        times = rng.random((4, 64)) + 1e-3
        src = rng.integers(0, 3, size=(4, 64)).astype(np.int8)
        return times, src

    def test_equal_sources_reuse_the_draw(self, monkeypatch):
        draws = self._draws(monkeypatch)
        times, src = self._matrices()
        band = noise_band(4)
        first = apply_noise_matrix(times, src, NoiseConfig(), band)
        other_times = times * 3.0
        second = apply_noise_matrix(other_times, src.copy(), NoiseConfig(), band)
        assert len(draws) == 1
        for out, base in ((first, times), (second, other_times)):
            fresh = apply_noise_matrix(base, src, NoiseConfig(), noise_band(4))
            assert out.tobytes() == fresh.tobytes()

    def test_one_changed_source_draws_again(self, monkeypatch):
        draws = self._draws(monkeypatch)
        times, src = self._matrices()
        band = noise_band(4)
        apply_noise_matrix(times, src, NoiseConfig(), band)
        changed = src.copy()
        changed[2, 5] = (changed[2, 5] + 1) % 3
        out = apply_noise_matrix(times, changed, NoiseConfig(), band)
        assert len(draws) == 2
        fresh = apply_noise_matrix(times, changed, NoiseConfig(), noise_band(4))
        assert out.tobytes() == fresh.tobytes()

    def test_another_config_draws_again(self, monkeypatch):
        draws = self._draws(monkeypatch)
        times, src = self._matrices()
        band = noise_band(4)
        apply_noise_matrix(times, src, NoiseConfig(), band)
        apply_noise_matrix(times, src, NoiseConfig(pfs_tail_prob=0.0), band)
        assert len(draws) == 2

    def test_memo_survives_caller_mutation(self):
        """The band keeps its own copy of each drawn source matrix."""
        times, src = self._matrices()
        band = noise_band(4)
        apply_noise_matrix(times, src, NoiseConfig(), band)
        src[0, 0] = (src[0, 0] + 1) % 3
        out = apply_noise_matrix(times, src, NoiseConfig(), band)
        fresh = apply_noise_matrix(times, src, NoiseConfig(), noise_band(4))
        assert out.tobytes() == fresh.tobytes()
