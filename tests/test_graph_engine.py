"""The batched graph engine against the per-trial reference drive loop.

The reference below lives here only. It is the one-trial-at-a-time loop the
engine replaced: weighted_median, is_heavy, the noisy oracle, heavy_filter
and bayesian_update, one WeightState per step. Its oracle is a copy of the
per-trial graph_answer as it stood before the engine, so the engine must
reproduce its rng draw order too. Every comparison is exact: the engine does
the same arithmetic in the same order, row by row.
"""

import math

import numpy as np
import pytest

from noisysearch import graph_search
from noisysearch.graph import (
    all_pairs_distances,
    consistent_set,
    cycle_graph,
    generate_graph,
    grid_graph,
    path_graph,
    random_tree,
    star_graph,
    weighted_median,
)
from noisysearch.graph_search import (
    QueryRecord,
    adversarial_plan,
    lv_adversarial_plan,
    lv_distributional_plan,
    search,
)
from noisysearch.mathcore import Distribution, DomainError, NoiseParams
from noisysearch.oracle import Answer, GraphOracle, NoisePolicy, heavy_filter
from noisysearch.weights import WeightState, bayesian_update, is_heavy, log2_rest

# ---------------------------------------------------------------------------
# per-trial reference
# ---------------------------------------------------------------------------


def ref_graph_answer(q, target, g, d, policy, rng, weights):
    if q == target:
        truthful = Answer(kind="yes", vertex=None, is_lie=False)
    else:
        to_target = d.row(target)
        dq = int(to_target[q])
        closer = [u for u in g.adjacency[q] if int(to_target[u]) == dq - 1]
        if policy.truthful_tiebreak == "random" and len(closer) > 1:
            u = closer[int(rng.integers(len(closer)))]
        else:
            u = closer[0]
        truthful = Answer(kind="neighbor", vertex=u, is_lie=False)
    if rng.random() >= policy.p:
        return truthful
    wrong = []
    if truthful.kind != "yes":
        wrong.append(Answer(kind="yes", vertex=None, is_lie=True))
    for u in g.adjacency[q]:
        if truthful.kind == "neighbor" and truthful.vertex == u:
            continue
        wrong.append(Answer(kind="neighbor", vertex=u, is_lie=True))
    if not wrong:
        return truthful
    if policy.lie_choice == "uniform-wrong":
        return wrong[int(rng.integers(len(wrong)))]
    rel = weights.relative
    best, best_mass = wrong[0], -1.0
    for cand in wrong:
        if cand.kind == "yes":
            mass = float(rel[q])
        else:
            mass = float(rel[consistent_set(g, d, q, cand).mask].sum())
        if mass > best_mass:
            best, best_mass = cand, mass
    return best


def ref_drive(g, noise, plan, target, policy, rng, record_queries=True, track_weights=True):
    """One trial, one WeightState per step; returns the transcript fields
    and the final state."""
    d = all_pairs_distances(g)
    state = WeightState(relative=plan.prior.copy(), log2_total=0.0, step=0)
    stop = plan.stop_threshold
    records = [] if record_queries else None

    def snapshot(st):
        rel = st.relative
        return log2_rest(rel, st.log2_total), math.log2(rel[target]) + st.log2_total

    wlog = [snapshot(state)] if track_weights else None
    steps = 0
    stopped = False
    while steps < plan.max_steps:
        if stop is not None and float(state.relative.max()) >= stop:
            stopped = True
            break
        q = weighted_median(g, d, state)
        was_heavy = is_heavy(state, q, 0.5)
        answer = ref_graph_answer(q, target, g, d, policy, rng, state)
        compatible = heavy_filter(answer, q, was_heavy, g, d)
        state = bayesian_update(state, compatible, noise)
        steps += 1
        if records is not None:
            records.append(QueryRecord(steps, q, answer, compatible.size))
        if wlog is not None:
            wlog.append(snapshot(state))
    if stop is not None and not stopped:
        stopped = float(state.relative.max()) >= stop
    declared = int(np.argmax(state.relative))
    fields = dict(
        declared=declared,
        query_count=steps,
        target_hit=declared == target,
        queries=records,
        flagged=stop is not None and not stopped,
        weight_log=wlog,
        final_target_log2=math.log2(float(state.relative[target])) + state.log2_total,
    )
    return fields, state


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


@pytest.fixture
def finals(monkeypatch):
    """Record the final weight row and log2 total each transcript is built
    from, in the order the engine finishes its rows."""
    seen = []
    build = graph_search._transcript

    def capture(relative, log2_total, target, *args, **kwargs):
        t = build(relative, log2_total, target, *args, **kwargs)
        seen.append((t, relative.copy(), log2_total))
        return t

    monkeypatch.setattr(graph_search, "_transcript", capture)
    return seen


def final_of(finals, t):
    (match,) = [(rel, log2) for seen, rel, log2 in finals if seen is t]
    return match


def trial_starts(n, seed, k, prior=None):
    """(target, rng) of k trials, drawn the way the harness draws them."""
    starts = []
    for i in range(k):
        rng = np.random.default_rng([seed, i])
        target = int(rng.integers(n)) if prior is None else int(rng.choice(n, p=prior))
        starts.append((target, rng))
    return starts


def make_oracles(g, policy, seed, k, prior=None):
    d = all_pairs_distances(g)
    return [GraphOracle(g, d, t, policy, rng) for t, rng in trial_starts(g.n, seed, k, prior)]


def transcript_fields(t):
    return dict(
        declared=t.declared,
        query_count=t.query_count,
        target_hit=t.target_hit,
        queries=t.queries,
        flagged=t.flagged,
        weight_log=t.weight_log,
        final_target_log2=t.final_target_log2,
    )


GRAPHS = {
    "grid": lambda: grid_graph(6, 7),
    "path": lambda: path_graph(40),
    "random-tree": lambda: random_tree(45, np.random.default_rng(3)),
    "cycle": lambda: cycle_graph(24),
    "star": lambda: star_graph(20),
}


def plans(g, noise):
    skewed = np.arange(1, g.n + 1, dtype=np.float64) ** 2
    mu = Distribution(skewed / skewed.sum())
    return {
        "fixed": (adversarial_plan(g.n, noise, 0.2), None),
        "stop-prior": (lv_distributional_plan(mu, noise, 0.2, cap_multiplier=3.0), mu.masses),
        "stop-uniform": (lv_adversarial_plan(g.n, noise, 0.2), None),
    }


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("lie_choice", ["uniform-wrong", "adversarial-heaviest"])
@pytest.mark.parametrize("tiebreak", ["smallest-id", "random"])
@pytest.mark.parametrize("graph", sorted(GRAPHS))
def test_engine_matches_per_trial_reference(graph, tiebreak, lie_choice, finals):
    g = GRAPHS[graph]()
    noise = NoiseParams.from_p(0.3)
    policy = NoisePolicy(p=0.3, truthful_tiebreak=tiebreak, lie_choice=lie_choice)
    for seed, (name, (plan, prior)) in enumerate(plans(g, noise).items()):
        oracles = make_oracles(g, policy, seed, 6, prior)
        refs = [
            ref_drive(g, noise, plan, target, policy, rng)
            for target, rng in trial_starts(g.n, seed, 6, prior)
        ]
        got = search(g, noise, plan, oracles, [True] * len(oracles), track_weights=True)
        for t, o, (fields, state) in zip(got, oracles, refs):
            assert transcript_fields(t) == fields, name
            rel, log2 = final_of(finals, t)
            assert np.array_equal(rel, state.relative), name
            assert log2 == state.log2_total, name
            assert o.queries_answered == t.query_count


@pytest.mark.parametrize(
    "graph", [grid_graph(32, 32), generate_graph("random-tree", 300, np.random.default_rng(5))]
)
def test_every_row_of_a_chunk_equals_a_batch_of_one(graph, finals):
    g = graph
    noise = NoiseParams.from_p(0.3)
    policy = NoisePolicy(p=0.3)
    for plan in (adversarial_plan(g.n, noise, 0.1), lv_adversarial_plan(g.n, noise, 0.2)):
        chunk = search(g, noise, plan, make_oracles(g, policy, 11, 9), [True] * 9, True)
        for i, t in enumerate(chunk):
            (alone,) = search(g, noise, plan, make_oracles(g, policy, 11, 9)[i : i + 1], [True], True)
            assert transcript_fields(t) == transcript_fields(alone)
            rel, log2 = final_of(finals, t)
            rel1, log21 = final_of(finals, alone)
            assert np.array_equal(rel, rel1) and log2 == log21


def test_stopping_rows_drop_out_at_their_own_step():
    g = grid_graph(5, 5)
    noise = NoiseParams.from_p(0.25)
    plan = lv_adversarial_plan(g.n, noise, 0.2)
    got = search(g, noise, plan, make_oracles(g, NoisePolicy(p=0.25), 2, 12))
    counts = [t.query_count for t in got]
    assert len(set(counts)) > 1 and not any(t.flagged for t in got)
    assert all(t.queries is None and t.weight_log is None for t in got)


def test_cap_hits_come_back_flagged():
    g = path_graph(30)
    noise = NoiseParams.from_p(0.3)
    plan = graph_search.SearchPlan(np.full(g.n, 1.0 / g.n), 3, 0.99)
    got = search(g, noise, plan, make_oracles(g, NoisePolicy(p=0.3), 4, 5), [False, True] * 2 + [False])
    assert [t.query_count for t in got] == [3] * 5
    assert all(t.flagged for t in got)
    assert [t.queries is not None for t in got] == [False, True, False, True, False]


def test_empty_chunk_and_single_vertex():
    g = path_graph(1)
    noise = NoiseParams.from_p(0.25)
    assert search(g, noise, adversarial_plan(1, noise, 0.2), []) == []
    (t,) = search(g, noise, adversarial_plan(1, noise, 0.2), make_oracles(g, NoisePolicy(p=0.25), 0, 1))
    assert t.declared == 0 and t.target_hit


def test_plans_validate_delta():
    noise = NoiseParams.from_p(0.3)
    for bad in (0.0, 0.5, 0.7):
        with pytest.raises(DomainError):
            adversarial_plan(8, noise, bad)
        with pytest.raises(DomainError):
            lv_adversarial_plan(8, noise, bad)
        with pytest.raises(DomainError):
            lv_distributional_plan(Distribution.uniform(8), noise, bad)


def test_chunk_rows_follow_the_byte_budget():
    assert graph_search.chunk_rows(1024) == graph_search.CHUNK_BYTES // 8192
    assert graph_search.chunk_rows(10**7) == 1


def test_a_query_at_exactly_half_the_weight_is_heavy(finals):
    # the middle of a 3-path holds exactly 1/2: a no there keeps both ends
    g = path_graph(3)
    noise = NoiseParams.from_p(0.25)
    mu = Distribution(np.array([0.25, 0.5, 0.25]))
    plan = lv_distributional_plan(mu, noise, 0.1)
    policy = NoisePolicy(p=0.0)
    (t,) = search(g, noise, plan, [GraphOracle(g, all_pairs_distances(g), 2, policy, np.random.default_rng(0))], [True])
    fields, state = ref_drive(g, noise, plan, 2, policy, np.random.default_rng(0), track_weights=False)
    assert t.queries[0].query == 1 and t.queries[0].compatible_size == 2
    assert transcript_fields(t) == {**fields, "weight_log": None}
    assert np.array_equal(final_of(finals, t)[0], state.relative)
