"""Answer channel statistics and reply-model semantics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisysearch import harness
from noisysearch import oracle as oracle_module
from noisysearch.graph import (
    Graph,
    all_pairs_distances,
    generate_graph,
    path_graph,
    star_graph,
)
from noisysearch.mathcore import DomainError, NoiseParams
from noisysearch.oracle import (
    Answer,
    GraphOracle,
    LinearOracle,
    NoisePolicy,
    heavy_filter,
    linear_answer,
    load_distribution,
    row_masses,
)
from noisysearch.tree_rows import TreeRows
from noisysearch.weights import bayesian_update, init_uniform
from noisysearch.mathcore import Distribution


class TestGraphAnswer:
    def test_truthful_yes_at_target(self):
        g = path_graph(4)
        d = all_pairs_distances(g)
        ans = GraphOracle(g, d, 2, NoisePolicy(p=0.0), np.random.default_rng(0)).answer(2)
        assert ans.kind == "yes" and not ans.is_lie

    def test_truthful_unique_shortest_path(self):
        g = path_graph(3)
        d = all_pairs_distances(g)
        ans = GraphOracle(g, d, 2, NoisePolicy(p=0.0), np.random.default_rng(0)).answer(0)
        assert ans.kind == "neighbor" and ans.vertex == 1

    def test_neighbor_answers_are_neighbors(self):
        rng = np.random.default_rng(1)
        g = star_graph(6)
        d = all_pairs_distances(g)
        policy = NoisePolicy(p=0.4)
        for _ in range(500):
            q = int(rng.integers(6))
            t = int(rng.integers(6))
            ans = GraphOracle(g, d, t, policy, rng).answer(q)
            if ans.kind == "neighbor":
                assert ans.vertex in g.adjacency[q]

    def test_lies_at_target_uniform_over_leaves(self):
        # query = target = star center: every lie is some leaf; the
        # uniform-wrong policy must spread lies evenly (chi-square check)
        g = star_graph(7)
        d = all_pairs_distances(g)
        policy = NoisePolicy(p=0.5 - 1e-9)  # force (almost) every answer to lie
        oracle = GraphOracle(g, d, 0, policy, np.random.default_rng(2))
        counts = np.zeros(7)
        draws = 20000
        lies = 0
        for _ in range(draws):
            ans = oracle.answer(0)
            if ans.is_lie:
                lies += 1
                counts[ans.vertex] += 1
        assert counts[0] == 0
        expected = lies / 6.0
        chi2 = float(((counts[1:] - expected) ** 2 / expected).sum())
        # df = 5; 22.1 is the 0.9995 quantile
        assert chi2 < 22.1

    def test_adversarial_lie_targets_heaviest_region(self):
        g = path_graph(5)
        d = all_pairs_distances(g)
        policy = NoisePolicy(p=0.5 - 1e-9, lie_choice="adversarial-heaviest")
        rng = np.random.default_rng(3)
        st = init_uniform(5)
        # target 0, query 2: truthful reply is neighbor 1; the wrong
        # replies are yes, neighbor 3; side {3,4} outweighs {2}, so the
        # adversarial lie is neighbor 3
        ans = GraphOracle(g, d, 0, policy, rng).answer(2, st)
        assert ans.is_lie and ans.kind == "neighbor" and ans.vertex == 3

    def test_adversarial_lie_requires_weights(self):
        g = path_graph(3)
        d = all_pairs_distances(g)
        policy = NoisePolicy(p=0.5 - 1e-9, lie_choice="adversarial-heaviest")
        oracle = GraphOracle(g, d, 2, policy, np.random.default_rng(4))
        with pytest.raises(DomainError):
            for _ in range(64):  # the lie coin comes up within a few draws
                oracle.answer(0)

    def test_random_tiebreak_covers_all_shortest_neighbors(self):
        # 4-cycle: two shortest paths from 0 to 2
        from noisysearch.graph import cycle_graph

        g = cycle_graph(4)
        d = all_pairs_distances(g)
        policy = NoisePolicy(p=0.0, truthful_tiebreak="random")
        oracle = GraphOracle(g, d, 2, policy, np.random.default_rng(5))
        seen = {oracle.answer(0).vertex for _ in range(200)}
        assert seen == {1, 3}

    def test_smallest_id_tiebreak_deterministic(self):
        from noisysearch.graph import cycle_graph

        g = cycle_graph(4)
        d = all_pairs_distances(g)
        policy = NoisePolicy(p=0.0)
        oracle = GraphOracle(g, d, 2, policy, np.random.default_rng(6))
        seen = {oracle.answer(0).vertex for _ in range(50)}
        assert seen == {1}

    @pytest.mark.parametrize("lie_choice", ["uniform-wrong", "adversarial-heaviest"])
    def test_weights_are_built_only_for_an_adversarial_lie(self, lie_choice):
        # the mass function is read once per adversarial lie, never otherwise
        g = generate_graph("random-tree", 40, np.random.default_rng(7))
        d = all_pairs_distances(g)
        policy = NoisePolicy(p=0.3, lie_choice=lie_choice)
        coin = np.random.default_rng(8).random
        read = []
        uniform = row_masses(g, d, np.full(g.n, 1.0 / g.n))

        def masses(q, replies):
            read.append(None)
            return uniform(q, replies)

        lies = 0
        for q in range(g.n):
            reply, truth = oracle_module.graph_reply(q, 5, g, d, policy, coin, masses)
            lies += reply != truth
        assert lies > 0
        assert len(read) == (lies if lie_choice == "adversarial-heaviest" else 0)


class TestAdversarialLieOnTrees:
    """The engine's light rows on a tree give their reply masses as sums
    over their segments (tree_rows.TreeRows.reply_masses) and must tell
    the lies that the masked sums over their dense rows tell
    (oracle.row_masses), on every tie included."""

    @pytest.mark.parametrize("name, n, trials", [("star", 2048, 2), ("random-tree", 300, 16)])
    def test_transcripts_match_masked_reference(self, monkeypatch, name, n, trials):
        config = harness.ExperimentConfig(
            scenario="graph-lv-adv", n=n, p=0.3, delta=0.1, trials=trials, seed=7,
            gen=name, lie_choice="adversarial-heaviest",
        )
        monkeypatch.setattr(harness, "_keeps_transcript", lambda config, index: True)
        ctx = harness._build_context(config)

        def dense_masses(rows, i, q, replies):
            return row_masses(ctx.graph, ctx.dist, rows.row(i))(q, replies)

        runs = []
        for masses in (TreeRows.reply_masses, dense_masses):
            monkeypatch.setattr(TreeRows, "reply_masses", masses)
            runs.append(harness._run_graph_chunk(ctx, range(trials)))
        assert runs[0] == runs[1]
        assert all(t.transcript.queries for t in runs[0])
        assert any(q.answer.is_lie for t in runs[0] for q in t.transcript.queries)


@st.composite
def _lie_cases(draw):
    """A connected graph (a random tree plus extra edges), a query q, a
    truthful reply at q (q itself or a neighbour) and a uniform u."""
    n = draw(st.integers(1, 12))
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    if n > 1:
        pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        edges += [(a, b) for a, b in draw(st.lists(pairs, max_size=2 * n)) if a != b]
    g = Graph.from_edges(n, edges)
    q = draw(st.integers(0, n - 1))
    truthful = draw(st.sampled_from((q, *g.adjacency[q])))
    u = draw(st.floats(0.0, 1.0, exclude_max=True))
    return g, q, truthful, u


@settings(max_examples=300, deadline=None)
@given(case=_lie_cases())
def test_uniform_lie_index_pick_matches_the_wrong_list(case):
    # _corrupt_reply reads the lie off the adjacency by index; it must name
    # wrong[int(u * len(wrong))] of the list of every legal reply but the
    # truth, and spend exactly one uniform (none when there is no lie)
    g, q, truthful, u = case
    wrong = [v for v in (q, *g.adjacency[q]) if v != truthful]
    drawn = []

    def coin():
        drawn.append(u)
        return u

    got = oracle_module._corrupt_reply(q, truthful, g, NoisePolicy(p=0.3), coin, None)
    assert got == (wrong[int(u * len(wrong))] if wrong else truthful)
    assert len(drawn) == (1 if wrong else 0)


class TestLinearAnswer:
    def test_truthful_sides(self):
        rng = np.random.default_rng(7)
        assert linear_answer(5, 2, NoisePolicy(p=0.0), rng).kind == "less"
        assert linear_answer(1, 2, NoisePolicy(p=0.0), rng).kind == "greater"

    def test_lie_flips(self):
        rng = np.random.default_rng(8)
        ans = linear_answer(5, 2, NoisePolicy(p=0.5 - 1e-9), rng)
        assert ans.kind == "greater" and ans.is_lie

    @pytest.mark.parametrize("p", [0.1, 0.3, 0.45])
    def test_oracle_coin_blocks_replay_the_per_call_stream(self, p):
        # LinearOracle takes its coins from rng.random(64) blocks; on a twin
        # rng it must hear what linear_answer hears one coin at a time, also
        # after a target draw and across block refills (400 coins here)
        policy = NoisePolicy(p=p)
        n = 32
        rng, twin = np.random.default_rng([17, 3]), np.random.default_rng([17, 3])
        target = int(rng.integers(n))
        assert int(twin.integers(n)) == target
        oracle = LinearOracle(n, target, policy, rng)
        pivots = [max(target - 3, 0), target, min(target + 5, n - 1)] * 100
        for q in pivots:
            assert oracle.answer(q) == linear_answer(q, target, policy, twin)
        assert oracle.queries_answered == len(pivots)

    def test_pivot_coin_is_fair_regardless_of_noise(self):
        # p/2 + (1-p)/2 = 1/2 exactly, so the observed frequency of
        # "less" at the pivot is 1/2 for any p
        for p in (0.0, 0.25, 0.45):
            rng = np.random.default_rng(9)
            draws = 20000
            less = sum(
                linear_answer(3, 3, NoisePolicy(p=p), rng).kind == "less"
                for _ in range(draws)
            )
            freq = less / draws
            sigma = math.sqrt(0.25 / draws)
            assert abs(freq - 0.5) <= 4.0 * sigma


class TestNoiseChannelStatistics:
    def test_lie_rate_and_independence(self):
        # 1e5 queries at p=0.3: frequency within 0.01 of p, and the lie
        # indicator sequence passes a two-sided runs test at alpha=0.01
        n_draws = 100_000
        p = 0.3
        rng = np.random.default_rng(10)
        flags = np.empty(n_draws, dtype=bool)
        policy = NoisePolicy(p=p)
        for i in range(n_draws):
            flags[i] = linear_answer(1, 0, policy, rng).is_lie
        freq = flags.mean()
        assert abs(freq - p) <= 0.01

        ones = int(flags.sum())
        zeros = n_draws - ones
        runs = 1 + int((flags[1:] != flags[:-1]).sum())
        expected = 1.0 + 2.0 * ones * zeros / n_draws
        variance = (expected - 1.0) * (expected - 2.0) / (n_draws - 1.0)
        z = (runs - expected) / math.sqrt(variance)
        assert abs(z) < 2.5758  # two-sided 0.01 critical value


class TestHeavyFilter:
    def test_heavy_no_answer_discards_direction(self):
        g = path_graph(4)
        d = all_pairs_distances(g)
        cs = heavy_filter(Answer(kind="neighbor", vertex=2), 1, True, g, d)
        assert cs.members == {0, 2, 3}

    def test_non_heavy_keeps_consistent_set(self):
        g = path_graph(4)
        d = all_pairs_distances(g)
        cs = heavy_filter(Answer(kind="neighbor", vertex=2), 1, False, g, d)
        assert cs.members == {2, 3}

    def test_yes_always_singleton(self):
        g = path_graph(4)
        d = all_pairs_distances(g)
        for heavy in (True, False):
            cs = heavy_filter(Answer(kind="yes"), 2, heavy, g, d)
            assert cs.members == {2}

    def test_update_recursion_after_heavy_no_answer(self):
        # q scales by p and the rest by (1-p) before renormalization:
        # the new absolute total is p*w(q) + (1-p)*w(V minus q)
        g = star_graph(5)
        d = all_pairs_distances(g)
        noise = NoiseParams.from_p(0.3)
        masses = np.array([0.6, 0.1, 0.1, 0.1, 0.1])
        from noisysearch.weights import init_from_distribution

        st = init_from_distribution(Distribution(masses))
        cs = heavy_filter(Answer(kind="neighbor", vertex=1), 0, True, g, d)
        new = bayesian_update(st, cs, noise)
        expected_total = noise.p * 0.6 + (1 - noise.p) * 0.4
        assert new.log2_total == pytest.approx(math.log2(expected_total), abs=1e-12)
        assert new.relative[0] == pytest.approx(noise.p * 0.6 / expected_total, abs=1e-12)
        assert new.relative[0] < st.relative[0]


class TestTargetModel:
    def test_sampled_respects_distribution(self):
        mu = Distribution(np.array([0.8, 0.2]))
        ctx = harness._build_context(
            harness.ExperimentConfig(
                scenario="bin-lv-distr", n=2, p=0.1, delta=0.2, trials=1, seed=11, mu=mu
            )
        )
        draws = [harness._trial_start(ctx, index)[0] for index in range(5000)]
        freq = np.mean([x == 0 for x in draws])
        assert abs(freq - 0.8) < 0.02


class TestOracleObjects:
    def test_counts_queries(self):
        oracle = LinearOracle(8, 5, NoisePolicy(p=0.2), np.random.default_rng(12))
        for _ in range(7):
            oracle.answer(3)
        assert oracle.queries_answered == 7

    def test_graph_oracle_range_check(self):
        g = path_graph(3)
        d = all_pairs_distances(g)
        with pytest.raises(DomainError):
            GraphOracle(g, d, 5, NoisePolicy(p=0.1), np.random.default_rng(0))


class TestDistributionLoader:
    def test_normalizes_and_reports_sum(self, tmp_path):
        path = tmp_path / "mu.txt"
        path.write_text("# id mass\n0 3\n2 1\n")
        mu, raw = load_distribution(path, 3)
        assert raw == pytest.approx(4.0)
        assert mu.masses == pytest.approx([0.75, 0.0, 0.25])

    def test_rejects_out_of_range_id(self, tmp_path):
        path = tmp_path / "mu.txt"
        path.write_text("0 1\n9 1\n")
        with pytest.raises(DomainError, match=":2"):
            load_distribution(path, 3)

    def test_rejects_empty(self, tmp_path):
        path = tmp_path / "mu.txt"
        path.write_text("\n")
        with pytest.raises(DomainError):
            load_distribution(path, 3)

    def test_masses_summing_past_the_largest_float_name_the_file(self, tmp_path):
        path = tmp_path / "mu.txt"
        path.write_text("0 1e308\n1 1e308\n")
        with pytest.raises(DomainError, match="largest float") as exc:
            load_distribution(path, 3)
        assert str(exc.value).startswith(f"{path}:2:")

    def test_bytes_that_are_not_utf8_name_their_line(self, tmp_path):
        path = tmp_path / "mu.txt"
        path.write_bytes(b"0 1\n1 0.5\xff\n")
        with pytest.raises(DomainError, match="non-numeric") as exc:
            load_distribution(path, 3)
        assert str(exc.value).startswith(f"{path}:2:")
