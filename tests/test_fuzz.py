"""How far the invariant fuzzers reach: the queries each transcript runs."""

from noisysearch import fuzz, linear_search
from noisysearch.mathcore import worst_case_budget_linear


def test_binary_fuzz_runs_each_budget_up_to_160_queries(monkeypatch):
    # a transcript's first epoch is handed the transcript's whole budget:
    # the worst-case budget at delta = 0.2, cut at 160 queries
    budgets = []
    run_epoch = linear_search.run_epoch

    def watch(state, epoch, noise, oracle, max_queries=None):
        if epoch.epoch_index == 1:
            budgets.append(max_queries)
            assert max_queries == min(worst_case_budget_linear(state.n, noise, 0.2).q, 160)
        return run_epoch(state, epoch, noise, oracle, max_queries)

    monkeypatch.setattr(linear_search, "run_epoch", watch)
    r = fuzz.fuzz_binary_invariants(transcripts=40, seed=2027)
    assert len(budgets) == 40
    assert budgets.count(160) >= 1 and min(budgets) < 160
    assert r["coupled_violations"] == 0
