"""The batched graph engine against the per-trial reference drive loop.

The reference below lives here only. It is the one-trial-at-a-time loop the
engine replaced: weighted_median, is_heavy, the noisy oracle, heavy_filter
and bayesian_update, one WeightState per step, while no vertex holds more
than HEAVY_SHARE of the weight. While one does, it keeps that vertex h, the
share outside it and the row frozen when h turned heavy, and scales the two
shares by the scalar law. Its oracle takes its uniforms from rng.random(64)
blocks in the order tiebreak, noise coin, lie, and reads a choice among k
from one uniform u as int(u * k), so the engine must reproduce that draw
order too. On a tree (paths included) it keeps its row in the tree's DFS
preorder, as the engine's step functions order their segments, and reads
medians, replies, reply sets and weight_log snapshots off the row in
vertex order, as the engine's stores give their rows. On a graph with
neither layout, and on a grid under a non-uniform prior, every comparison
is exact: the engine holds a dense matrix and does the same arithmetic in
the same order, row by row. On a tree the engine holds a light row as the
prior times a step function over preorder positions (tree_rows.TreeRows),
and on a grid under a uniform prior as two lines and a few points
(grid_rows.GridRows); both round apart from the dense row in the last
bits. A tree trial must still ask, hear and declare what the reference
does, so its non-float fields are compared exactly and its floats within
tolerances (assert_fields_close); such a grid trial's recorded replies are
replayed into the reference loop and compared within tolerances
(ref_replay).
"""

import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisysearch import graph_search
from noisysearch.graph import (
    all_pairs_distances,
    consistent_set,
    cycle_graph,
    generate_graph,
    grid_graph,
    median_costs,
    path_graph,
    random_tree,
    star_graph,
    weighted_median,
)
from noisysearch.graph_search import (
    HEAVY_SHARE,
    QueryRecord,
    adversarial_plan,
    lv_adversarial_plan,
    lv_distributional_plan,
    search,
)
from noisysearch.grid_rows import POINT_SLOTS
from noisysearch.mathcore import Distribution, DomainError, NoiseParams
from noisysearch.oracle import Answer, GraphOracle, NoisePolicy, heavy_filter
from noisysearch.weights import CompatibleSet, WeightState, bayesian_update, is_heavy, log2_rest

# ---------------------------------------------------------------------------
# per-trial reference
# ---------------------------------------------------------------------------


class RefCoins:
    """One trial's uniforms, read in order from rng.random(64) blocks."""

    def __init__(self, rng):
        self.rng, self.block = rng, []

    def __call__(self):
        if not self.block:
            self.block = list(self.rng.random(64))[::-1]
        return float(self.block.pop())


def ref_graph_answer(q, target, g, d, policy, coin, relative):
    if q == target:
        truthful = Answer(kind="yes", vertex=None, is_lie=False)
    else:
        to_target = d.row(target)
        dq = int(to_target[q])
        closer = [u for u in g.adjacency[q] if int(to_target[u]) == dq - 1]
        if policy.truthful_tiebreak == "random" and len(closer) > 1:
            u = closer[int(coin() * len(closer))]
        else:
            u = closer[0]
        truthful = Answer(kind="neighbor", vertex=u, is_lie=False)
    if coin() >= policy.p:
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
        return wrong[int(coin() * len(wrong))]
    best, best_mass = wrong[0], -1.0
    for cand in wrong:
        if cand.kind == "yes":
            mass = float(relative[q])
        else:
            mass = float(relative[consistent_set(g, d, q, cand).mask].sum())
        if mass > best_mass:
            best, best_mass = cand, mass
    return best


class RefHeavy:
    """A trial whose top share is above HEAVY_SHARE: the column h of its top
    vertex, the share rest outside it, and its row frozen (0 at h) with the
    sum rest0 then."""

    def __init__(self, relative):
        self.h = int(np.argmax(relative))
        self.frozen = relative.copy()
        self.frozen[self.h] = 0.0
        self.rest = self.rest0 = float(self.frozen.sum())

    def relative(self):
        row = self.frozen * (self.rest / self.rest0 if self.rest0 > 0.0 else 0.0)
        row[self.h] = 1.0 - self.rest
        return row


def ref_freeze(relative):
    return RefHeavy(relative) if relative.max() > HEAVY_SHARE else None


def ref_drive(g, noise, plan, target, policy, rng, record_queries=True, track_weights=True):
    """One trial, one WeightState per light step and the scalar law per
    heavy step; returns the transcript fields and the final state, in
    vertex order. relative holds the weights in columns: column i weighs
    vertex order[i], the tree's preorder on a tree and the identity
    elsewhere."""
    d = all_pairs_distances(g)
    order = np.arange(g.n) if d.tree is None else d.tree.order
    coin = RefCoins(rng)
    p = noise.p
    relative, log2_total = plan.prior[order], 0.0
    heavy = ref_freeze(relative)
    stop = plan.stop_threshold
    records = [] if record_queries else None

    def in_vertex_order(cols):
        row = np.empty_like(cols)
        row[order] = cols
        return row

    def snapshot():
        # over vertex ids, as the engine sums its snapshots
        row = in_vertex_order(relative if heavy is None else heavy.relative())
        top = int(np.argmax(row))
        top_vertex = top if row[top] >= 0.5 else None
        target_log2 = math.log2(row[target]) + log2_total
        return log2_rest(row, log2_total), target_log2, log2_total, top_vertex

    def stops():
        return stop is not None and heavy is not None and 1.0 - heavy.rest >= stop

    wlog = [snapshot()] if track_weights else None
    steps = 0
    stopped = False
    while steps < plan.max_steps:
        if stops():
            stopped = True
            break
        steps += 1
        if heavy is None:
            vertex_state = WeightState(
                relative=in_vertex_order(relative), log2_total=log2_total, step=steps - 1
            )
            q = weighted_median(g, d, vertex_state)
            was_heavy = is_heavy(vertex_state, q, 0.5)
            answer = ref_graph_answer(q, target, g, d, policy, coin, vertex_state.relative)
            compatible = heavy_filter(answer, q, was_heavy, g, d)
            state = WeightState(relative=relative, log2_total=log2_total, step=steps - 1)
            state = bayesian_update(state, CompatibleSet(compatible.mask[order]), noise)
            relative, log2_total = state.relative.copy(), state.log2_total
            heavy = ref_freeze(relative)
        else:
            q = int(order[heavy.h])
            answer = ref_graph_answer(
                q, target, g, d, policy, coin, in_vertex_order(heavy.relative())
            )
            a, f = (1.0 - p, p) if answer.kind == "yes" else (p, 1.0 - p)
            total = (1.0 - heavy.rest) * a + heavy.rest * f
            heavy.rest = heavy.rest * f / total
            log2_total += math.log2(total)
            if 1.0 - heavy.rest <= HEAVY_SHARE:
                relative, heavy = heavy.relative(), None
        if records is not None:
            records.append(QueryRecord(steps, q, answer))
        if wlog is not None:
            wlog.append(snapshot())
    if not stopped:
        stopped = stops()
    if heavy is not None:
        relative = heavy.relative()
    relative = in_vertex_order(relative)
    declared = int(np.argmax(relative))
    fields = dict(
        declared=declared,
        query_count=steps,
        target_hit=declared == target,
        queries=records,
        flagged=stop is not None and not stopped,
        weight_log=wlog,
        final_target_log2=math.log2(float(relative[target])) + log2_total,
    )
    return fields, WeightState(relative=relative, log2_total=log2_total, step=steps)


def ref_replay(g, noise, plan, t):
    """The reference loop driven by the replies a recorded engine trial t
    heard, one WeightState per light step and the scalar law per heavy
    step, on a grid (columns are vertex ids). Checks each light query's
    reference cost against the reference's least cost, within 1e-9
    relative, and a heavy step's query against the reference's heavy
    vertex; returns the weight_log snapshots and the final row and log2
    total."""
    d = all_pairs_distances(g)
    p = noise.p
    relative, log2_total = plan.prior.copy(), 0.0
    heavy = ref_freeze(relative)
    snapshots = [(relative if heavy is None else heavy.relative(), 0.0)]
    for record in t.queries:
        q = record.query
        if heavy is None:
            cost = median_costs(g, d, relative)
            assert cost[q] <= cost.min() * (1.0 + 1e-9)
            state = WeightState(relative=relative, log2_total=log2_total, step=record.step - 1)
            compatible = heavy_filter(record.answer, q, is_heavy(state, q, 0.5), g, d)
            state = bayesian_update(state, compatible, noise)
            relative, log2_total = state.relative.copy(), state.log2_total
            heavy = ref_freeze(relative)
        else:
            assert q == heavy.h
            a, f = (1.0 - p, p) if record.answer.kind == "yes" else (p, 1.0 - p)
            total = (1.0 - heavy.rest) * a + heavy.rest * f
            heavy.rest = heavy.rest * f / total
            log2_total += math.log2(total)
            if 1.0 - heavy.rest <= HEAVY_SHARE:
                relative, heavy = heavy.relative(), None
        snapshots.append((relative if heavy is None else heavy.relative(), log2_total))
    if heavy is not None:
        relative = heavy.relative()
    return snapshots, relative, log2_total


def close(a, b):
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)


def assert_fields_close(t, fields, final, log2, state):
    """A tree trial against the reference's transcript fields and final
    state: every field but the floats equal, the floats within the grid
    tolerances (rows 1e-12 relative, log2 figures 1e-9)."""
    got = transcript_fields(t)
    floats = ("weight_log", "final_target_log2")
    assert {k: v for k, v in got.items() if k not in floats} == {
        k: v for k, v in fields.items() if k not in floats
    }
    assert close(got["final_target_log2"], fields["final_target_log2"])
    if fields["weight_log"] is None:
        assert got["weight_log"] is None
    else:
        assert len(got["weight_log"]) == len(fields["weight_log"])
        for (rest, at, total, top), (ref_rest, ref_at, ref_total, ref_top) in zip(
            got["weight_log"], fields["weight_log"]
        ):
            assert rest == ref_rest or close(rest, ref_rest)
            assert close(at, ref_at) and close(total, ref_total) and top == ref_top
    np.testing.assert_allclose(final, state.relative, rtol=1e-12, atol=0.0)
    assert close(log2, state.log2_total)


def assert_matches_replay(g, noise, plan, t, target, final, log2):
    """A grid trial of the factored engine against its replay (ref_replay):
    rows within 1e-12 relative, log2 totals within 1e-9, the declared and
    the weight_log's heavy vertices the reference's unless the reference's
    top two weights are within 1e-12."""
    snapshots, relative, ref_log2 = ref_replay(g, noise, plan, t)
    np.testing.assert_allclose(final, relative, rtol=1e-12, atol=0.0)
    assert math.isclose(log2, ref_log2, rel_tol=1e-9, abs_tol=1e-9)
    first, second = np.sort(relative)[::-1][:2] if g.n > 1 else (1.0, 0.0)
    if first - second > 1e-12:
        assert t.declared == int(np.argmax(relative))
    assert t.target_hit == (t.declared == target)
    assert t.query_count == len(t.queries)
    if plan.stop_threshold is not None:
        share = relative.max()
        if t.flagged:
            assert t.query_count == plan.max_steps and share < plan.stop_threshold + 1e-12
        else:
            assert share >= plan.stop_threshold - 1e-12
    if t.weight_log is not None:
        assert len(t.weight_log) == len(snapshots) == t.query_count + 1
        for (rest, at_target, total, top), (row, ref_total) in zip(t.weight_log, snapshots):
            assert math.isclose(total, ref_total, rel_tol=1e-9, abs_tol=1e-9)
            ref_rest = log2_rest(row, ref_total)
            assert ref_rest == rest or math.isclose(rest, ref_rest, rel_tol=1e-9, abs_tol=1e-9)
            ref_target = math.log2(row[target]) + ref_total
            assert math.isclose(at_target, ref_target, rel_tol=1e-9, abs_tol=1e-9)
            share = row.max()
            if abs(share - 0.5) > 1e-12:
                assert top == (int(np.argmax(row)) if share >= 0.5 else None)


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
    stop_prior = lv_distributional_plan(mu, noise, 0.2)
    # the stopping plan capped at 3 times its worst-target length, not CAP_MULTIPLIER
    worst_bits = -math.log2(float(stop_prior.prior.min()))
    cap = int(math.ceil(3.0 * (worst_bits + math.log2(1.0 / 0.2) + 1.0) / noise.info_rate))
    return {
        "fixed": (adversarial_plan(g.n, noise, 0.2), None),
        "stop-prior": (dataclasses.replace(stop_prior, max_steps=cap), mu.masses),
        "stop-uniform": (lv_adversarial_plan(g.n, noise, 0.2), None),
    }


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("lie_choice", ["uniform-wrong", "adversarial-heaviest"])
@pytest.mark.parametrize("tiebreak", ["smallest-id", "random"])
@pytest.mark.parametrize("graph", sorted(GRAPHS))
def test_engine_matches_per_trial_reference(graph, tiebreak, lie_choice, finals):
    # On a grid under a uniform prior the engine holds light rows as two
    # lines and a few points, whose products round apart from the dense
    # rows' in the last bits, so such a grid trial is checked against the
    # reference loop replaying the replies it heard (assert_matches_replay).
    # On a tree it holds them as step functions, which also round apart,
    # but a tree trial must ask, hear and declare what the reference does
    # (assert_fields_close). On a cycle, and on a grid under the skewed
    # prior, the engine holds a dense matrix and does the reference's
    # arithmetic, and every field must be equal.
    g = GRAPHS[graph]()
    noise = NoiseParams.from_p(0.3)
    policy = NoisePolicy(p=0.3, truthful_tiebreak=tiebreak, lie_choice=lie_choice)
    for seed, (name, (plan, prior)) in enumerate(plans(g, noise).items()):
        exact = graph == "cycle" or (graph == "grid" and name == "stop-prior")
        if graph == "grid" and not exact:
            oracles = make_oracles(g, policy, seed, 6, prior)
            got = search(g, noise, plan, oracles, [True] * len(oracles), track_weights=True)
            for t, o in zip(got, oracles):
                rel, log2 = final_of(finals, t)
                assert_matches_replay(g, noise, plan, t, o.target, rel, log2)
                assert o.queries_answered == t.query_count
            continue
        oracles = make_oracles(g, policy, seed, 6, prior)
        refs = [
            ref_drive(g, noise, plan, target, policy, rng)
            for target, rng in trial_starts(g.n, seed, 6, prior)
        ]
        got = search(g, noise, plan, oracles, [True] * len(oracles), track_weights=True)
        for t, o, (fields, state) in zip(got, oracles, refs):
            rel, log2 = final_of(finals, t)
            if exact:
                assert transcript_fields(t) == fields, name
                assert np.array_equal(rel, state.relative), name
                assert log2 == state.log2_total, name
            else:
                assert_fields_close(t, fields, rel, log2, state)
            assert o.queries_answered == t.query_count
        # without records a heavy row leaves replies unnamed where it can;
        # it must draw the same coins and reach the same rows
        bare = search(g, noise, plan, make_oracles(g, policy, seed, 6, prior))
        for t, (fields, state) in zip(bare, refs):
            bare_fields = {**fields, "queries": None, "weight_log": None}
            rel, log2 = final_of(finals, t)
            if exact:
                assert transcript_fields(t) == bare_fields, name
                assert np.array_equal(rel, state.relative) and log2 == state.log2_total, name
            else:
                assert_fields_close(t, bare_fields, rel, log2, state)


class ScriptedOracle(GraphOracle):
    """A GraphOracle whose uniforms come from a given list, in order."""

    def __init__(self, g, d, target, policy, coins):
        super().__init__(g, d, target, policy, np.random.default_rng(0))
        self.script = list(reversed(coins))

    def coin(self):
        return self.script.pop()


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(2, 40),
    seed=st.integers(0, 2**32 - 1),
    share=st.floats(HEAVY_SHARE + 1e-6, 1.0 - 1e-12),
    p=st.floats(0.05, 0.45),
    replies=st.lists(st.booleans(), min_size=1, max_size=80),
)
def test_heavy_law_matches_the_dense_update(n, seed, share, p, replies):
    # a row with one vertex h above HEAVY_SHARE, run ahead by the engine as
    # two numbers, against heavy_filter + bayesian_update on the dense row,
    # while the dense row still has h above HEAVY_SHARE. The oracle's target
    # is h, so a uniform at or above p is a yes and one below p a lie, a
    # neighbour, whose index takes one more uniform.
    rng = np.random.default_rng(seed)
    h = int(rng.integers(n))
    relative = rng.random(n) + 1e-3
    relative[h] = 0.0
    relative *= (1.0 - share) / relative.sum()
    relative[h] = share
    g = path_graph(n)
    d = all_pairs_distances(g)
    noise = NoiseParams.from_p(p)
    no = Answer(kind="neighbor", vertex=h + 1 if h + 1 < n else h - 1)
    states, coins = [WeightState(relative=relative, log2_total=0.0, step=0)], []
    for yes in replies:
        if states[-1].relative[h] <= HEAVY_SHARE:
            break
        answer = Answer(kind="yes") if yes else no
        states.append(bayesian_update(states[-1], heavy_filter(answer, h, True, g, d), noise))
        coins += [0.99] if yes else [0.0, 0.0]
    plan = graph_search.SearchPlan(relative, len(states) - 1, None)
    oracle = ScriptedOracle(g, d, h, NoisePolicy(p=p), coins)
    seen = []

    def snapshot(row, log2_total, target):
        seen.append((row.copy(), log2_total))
        return 0.0, 0.0

    with mock.patch.object(graph_search, "_snapshot", snapshot):
        (t,) = search(g, noise, plan, [oracle], track_weights=True)
    assert t.query_count == len(states) - 1 and not oracle.script
    assert len(seen) == len(states)
    for (row, log2_total), state in zip(seen, states):
        np.testing.assert_allclose(row, state.relative, rtol=1e-12, atol=0.0)
        assert math.isclose(log2_total, state.log2_total, rel_tol=1e-12)


def test_a_choice_among_k_stays_below_k():
    # int(u * k) for the largest uniform below 1 must name the last item
    u = np.nextafter(1.0, 0.0)
    for k in range(1, 9):
        assert int(u * k) == k - 1


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


@pytest.mark.parametrize("lie_choice", ["uniform-wrong", "adversarial-heaviest"])
@pytest.mark.parametrize("tiebreak", ["smallest-id", "random"])
@pytest.mark.parametrize("graph", ["grid", "random-tree"])
def test_bare_heavy_runs_spend_the_coins_of_recorded_ones(graph, tiebreak, lie_choice, monkeypatch):
    # A bare (unrecorded) trial leaves a heavy lie at a yes truth unnamed
    # and spends the uniforms heavy_lie would have. Run each trial bare and
    # recorded: both must end alike, bit for bit, with their oracles at the
    # same next uniform, and the bare run must call heavy_lie only where
    # the truth at the heavy vertex is not yes.
    g = grid_graph(32, 32) if graph == "grid" else random_tree(300, np.random.default_rng(5))
    noise = NoiseParams.from_p(0.3)
    policy = NoisePolicy(p=0.3, truthful_tiebreak=tiebreak, lie_choice=lie_choice)
    calls = []
    real_lie = graph_search.heavy_lie

    def counted(h, truthful, *args):
        calls.append(truthful == h)
        return real_lie(h, truthful, *args)

    monkeypatch.setattr(graph_search, "heavy_lie", counted)
    k = 8
    for plan in (adversarial_plan(g.n, noise, 0.1), lv_adversarial_plan(g.n, noise, 0.2)):
        runs = []
        for record in (None, [True] * k):
            calls.clear()
            oracles = make_oracles(g, policy, 31, k)
            runs.append((search(g, noise, plan, oracles, record), oracles, list(calls)))
        (bare, bare_oracles, bare_calls), (recorded, recorded_oracles, recorded_calls) = runs
        for t, o, t1, o1 in zip(bare, bare_oracles, recorded, recorded_oracles):
            assert (t.declared, t.query_count) == (t1.declared, t1.query_count)
            assert t.final_target_log2.hex() == t1.final_target_log2.hex()
            assert o.coin() == o1.coin()
        assert not any(bare_calls)
        # the recorded run names lies at a yes truth, which the bare run skipped
        assert any(recorded_calls)


@pytest.mark.parametrize("lie_choice", ["uniform-wrong", "adversarial-heaviest"])
def test_a_grid_chunk_of_recorded_and_bare_trials_with_thaws_equals_lone_runs(
    lie_choice, finals, monkeypatch
):
    # Heavy trials run ahead of the chunk and rejoin it when they thaw, at
    # their own step counts. Each trial, recorded or bare, must still equal
    # its lone run. The chunk's oracles log each uniform they hand out as
    # drawn in a light step (l, inside graph_reply) or a heavy one (H), so
    # a heavy step followed by a light one shows that the chunk thawed.
    g = grid_graph(32, 32)
    noise = NoiseParams.from_p(0.3)
    policy = NoisePolicy(p=0.3, lie_choice=lie_choice)
    in_light = [False]
    real_reply = graph_search.graph_reply

    def light_reply(*args):
        in_light[0] = True
        try:
            return real_reply(*args)
        finally:
            in_light[0] = False

    monkeypatch.setattr(graph_search, "graph_reply", light_reply)

    def watch(o):
        o.drawn, draw = "", o.coin

        def coin():
            o.drawn += "l" if in_light[0] else "H"
            return draw()

        o.coin = coin

    k = 10
    record = [i % 3 == 0 for i in range(k)]
    for plan in (adversarial_plan(g.n, noise, 0.1), lv_adversarial_plan(g.n, noise, 0.2)):
        oracles = make_oracles(g, policy, 23, k)
        for o in oracles:
            watch(o)
        chunk = search(g, noise, plan, oracles, record)
        assert any("Hl" in o.drawn for o in oracles)
        for i, t in enumerate(chunk):
            alone = make_oracles(g, policy, 23, k)[i : i + 1]
            (lone,) = search(g, noise, plan, alone, record[i : i + 1])
            assert (t.queries is not None) == record[i]
            assert transcript_fields(t) == transcript_fields(lone)
            assert oracles[i].queries_answered == t.query_count
            rel, log2 = final_of(finals, t)
            rel1, log21 = final_of(finals, lone)
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


def test_plans_stop_only_above_the_heavy_share():
    # search checks the stop rule on heavy rows only
    prior = np.full(4, 0.25)
    for bad in (0.5, HEAVY_SHARE):
        with pytest.raises(DomainError):
            graph_search.SearchPlan(prior, 3, bad)
    assert graph_search.SearchPlan(prior, 3, 2 / 3).stop_threshold == 2 / 3
    # a delta just below 1/2 puts 1 - delta at or below HEAVY_SHARE: the
    # stopping plan rejects the delta, and the fixed-budget plan takes it
    noise = NoiseParams.from_p(0.3)
    with pytest.raises(DomainError, match="delta = "):
        lv_distributional_plan(Distribution.uniform(8), noise, 0.5 - 1e-10)
    assert adversarial_plan(8, noise, 0.5 - 1e-10).stop_threshold is None


def test_chunk_rows_follow_the_byte_budget():
    dense = graph_search.row_store(False, None, True)
    tree = graph_search.row_store(True, None, False)
    grid = graph_search.row_store(False, (32, 32), True)
    # a dense or tree row counts n words: 128 trials at n = 1024
    for store in (dense, tree, graph_search.row_store(False, (32, 32), False)):
        assert graph_search.chunk_rows(store, 1024) == graph_search.CHUNK_BYTES // 8192
        assert graph_search.chunk_rows(store, 10**7) == 1
    # a grid row is two lines, a scalar and a few points: all 400 trials
    # of a 32x32 benchmark run fit one chunk, and a 1024x1024 grid takes
    # more than one trial a chunk
    words = 32 + 32 + 1 + 2 * POINT_SLOTS
    assert graph_search.chunk_rows(grid, 1024, (32, 32)) == graph_search.CHUNK_BYTES // (8 * words)
    assert graph_search.chunk_rows(grid, 1024, (32, 32)) >= 400
    assert graph_search.chunk_rows(grid, 1 << 20, (1024, 1024)) > 1


def test_a_query_at_exactly_half_the_weight_is_heavy(finals):
    # the middle of a 3-path holds exactly 1/2: a no there keeps both ends
    g = path_graph(3)
    noise = NoiseParams.from_p(0.25)
    mu = Distribution(np.array([0.25, 0.5, 0.25]))
    plan = lv_distributional_plan(mu, noise, 0.1)
    policy = NoisePolicy(p=0.0)
    (t,) = search(g, noise, plan, [GraphOracle(g, all_pairs_distances(g), 2, policy, np.random.default_rng(0))], [True])
    fields, state = ref_drive(g, noise, plan, 2, policy, np.random.default_rng(0), track_weights=False)
    assert t.queries[0].query == 1
    assert_fields_close(t, {**fields, "weight_log": None}, *final_of(finals, t), state)
