"""Search-layer benchmark: branch-and-bound vs the exhaustive sweep.

The point of :mod:`repro.search` is evaluating strictly fewer cells
than the sweep it replaces while returning the same optimum. This
benchmark runs both on the Fig 8 policy lineup (ImageNet-1k on the
Sec 6 cluster, the same shape ``bench_sweep`` times) and asserts the
contract: identical incumbent, fewer evaluations, a non-zero pruned
count, and B&B wall-clock under the exhaustive sweep's (best of
alternating rounds per side).
"""

from repro.api import Scenario, Session
from repro.search import Evaluator, SearchSpace, run_search

#: Alternating rounds per side behind the B&B-beats-exhaustive assert.
SEARCH_ROUNDS = 3


def _space() -> SearchSpace:
    # Piz Daint at paper-scale worker counts: the contended-PFS share
    # per worker is where the PFS floor separates cacheless policies
    # from caching ones — the regime the bound is built to prune (4 of
    # the 9 lineup policies go unevaluated here).
    base = Scenario(
        dataset="imagenet1k",
        system="piz_daint:256",
        policy="naive",
        batch_size=32,
        num_epochs=3,
        scale=0.1,
        seed=1,
    )
    return SearchSpace(base=base)


def test_search_bb_vs_exhaustive(benchmark, report, ab_timer):
    """B&B prunes cells the exhaustive Fig 8 sweep pays for."""
    space = _space()
    candidates = list(space.candidates())
    objectives = []

    def exhaustive():
        objectives[:] = Evaluator(Session(jobs=1)).evaluate_many(candidates)

    def bb():
        run_search(space, driver="bb", session=Session(jobs=1))

    exhaustive_s, bb_s = ab_timer(exhaustive, bb, rounds=SEARCH_ROUNDS)
    best_objective, best_fp = min(
        (objective, candidate.fingerprint())
        for objective, candidate in zip(objectives, candidates)
        if objective is not None
    )

    manifest = benchmark.pedantic(
        run_search,
        args=(space,),
        kwargs={"driver": "bb", "session": Session(jobs=1)},
        rounds=1,
        iterations=1,
    )

    lines = [
        f"space:      {space.size()} candidates (Fig 8 lineup)",
        f"exhaustive: {space.size()} evaluated in {exhaustive_s:.2f}s",
        f"bb:         {manifest.stats.evaluations} evaluated in {bb_s:.2f}s | "
        f"{manifest.stats.render()}",
        f"speedup:    {exhaustive_s / bb_s:.2f}x",
    ]
    report("search_bb", "\n".join(lines))

    assert manifest.best is not None
    assert manifest.best.objective_s == best_objective
    assert manifest.best.fingerprint == best_fp
    assert manifest.stats.evaluations < space.size(), "B&B must evaluate fewer cells"
    assert manifest.stats.pruned_leaves > 0, "B&B must prune"
    assert bb_s < exhaustive_s, (
        f"B&B ({bb_s:.2f}s) should beat the exhaustive sweep ({exhaustive_s:.2f}s)"
    )
