"""`SearchManifest`: byte-reproducibility, warmth, resume (satellites 3/6)."""

import pytest

from repro.api import Session
from repro.search import Evaluator, SearchManifest, run_search
from repro.sweep import InMemoryBackend


def canonical(manifest: SearchManifest) -> str:
    return manifest.to_json(sort_keys=True)


class TestRoundTrip:
    def test_json_and_file_round_trip(self, smoke_space, mem_session, tmp_path):
        manifest = run_search(
            smoke_space, driver="bb", session=mem_session, timestamp="2026-08-07"
        )
        clone = SearchManifest.from_json(manifest.to_json())
        assert clone == manifest
        path = manifest.write(tmp_path / "manifest.json")
        assert SearchManifest.read(path) == manifest
        assert manifest.created_at == "2026-08-07"

    def test_records_everything_that_was_decided(self, smoke_space, mem_session):
        manifest = run_search(
            smoke_space, driver="bb", session=mem_session, seed=5, budget=100
        )
        assert manifest.driver == "bb"
        assert manifest.seed == 5
        assert manifest.budget == 100
        assert manifest.space == smoke_space
        assert manifest.params == {"relaxation": 1.0}
        assert manifest.version == 1
        assert len(manifest.evaluations) == manifest.stats.evaluations
        # the incumbent trajectory is monotonically improving
        objectives = [step.objective_s for step in manifest.incumbents]
        assert objectives == sorted(objectives, reverse=True)
        assert manifest.best.fingerprint == manifest.incumbents[-1].fingerprint


class TestByteReproducibility:
    @pytest.mark.parametrize("driver", ["bb", "random"])
    def test_identical_across_runs_and_cache_states(
        self, smoke_space, mem_session, driver
    ):
        """Same seed + space => byte-identical manifest, cold or warm."""
        cold = run_search(smoke_space, driver=driver, session=mem_session, seed=9)
        warm = run_search(smoke_space, driver=driver, session=mem_session, seed=9)
        assert canonical(cold) == canonical(warm)

    @pytest.mark.parametrize("executor", ["serial", "process", "batched"])
    def test_identical_across_executors(self, smoke_space, executor):
        serial = run_search(smoke_space, driver="bb", session=Session(jobs=1))
        other = run_search(
            smoke_space,
            driver="bb",
            session=Session(jobs=2, executor=executor),
        )
        assert canonical(serial) == canonical(other)


class TestWarmth:
    def test_warm_research_performs_zero_resimulations(
        self, smoke_space, mem_session
    ):
        run_search(smoke_space, driver="bb", session=mem_session)
        cold_stats = mem_session.stats
        assert cold_stats.misses > 0
        before = (cold_stats.hits, cold_stats.misses)
        evaluator = Evaluator(mem_session)
        # drive the warm search through a fresh evaluator so its own
        # counters isolate the second run
        from repro.search.drivers import SEARCHERS

        SEARCHERS.create("bb").search(smoke_space, evaluator, seed=12)
        assert evaluator.misses == 0
        assert evaluator.hits > 0
        assert mem_session.stats.misses == before[1]  # no new simulations


class TestResume:
    def test_resume_mid_search_is_exact(self, smoke_space, mem_session):
        """An interrupted search resumes by replay: the truncated run's
        evaluations are a prefix of the full run's, the replay costs
        zero re-simulations up to the frontier, and the resumed manifest
        is byte-identical to an uninterrupted one."""
        uninterrupted = run_search(
            smoke_space, driver="random", session=Session(cache=InMemoryBackend()), seed=4
        )
        interrupted = run_search(
            smoke_space, driver="random", session=mem_session, seed=4, budget=3
        )
        assert interrupted.stats.status == "budget_exhausted"
        prefix = [e.fingerprint for e in interrupted.evaluations]
        assert prefix == [e.fingerprint for e in uninterrupted.evaluations][:3]

        # resume: same seed + space against the warm session
        evaluator = Evaluator(mem_session)
        from repro.search.drivers import SEARCHERS

        result = SEARCHERS.create("random").search(
            smoke_space, evaluator, seed=4
        )
        assert evaluator.hits >= len(prefix)  # the replayed prefix was free
        resumed = run_search(
            smoke_space, driver="random", session=mem_session, seed=4
        )
        assert canonical(resumed) == canonical(uninterrupted)
        assert [e.fingerprint for e in result.evaluations] == [
            e.fingerprint for e in uninterrupted.evaluations
        ]
