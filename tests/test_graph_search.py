"""Graph strategies: traces, termination, guarantees at small scale."""

import math

import numpy as np
import pytest

from noisysearch.graph import grid_graph, path_graph, star_graph
from noisysearch.graph_search import (
    SearchPlan,
    rescaled_confidence,
    run_adversarial,
    run_lv_adversarial,
    run_lv_distributional,
    search,
)
from noisysearch.mathcore import (
    Distribution,
    DomainError,
    NoiseParams,
    worst_case_budget_graph,
)
from noisysearch.oracle import GraphOracle, NoisePolicy


def make_oracle(g, target, p, seed, **policy_kwargs):
    return GraphOracle(g, target, NoisePolicy(p=p, **policy_kwargs), np.random.default_rng(seed))


def one_step(g, masses, target, oracle_p, update_p, seed):
    """One median query from the weights masses, as search runs it: a
    one-step plan, the query recorded and the weights tracked."""
    oracle = make_oracle(g, target=target, p=oracle_p, seed=seed)
    plan = SearchPlan(np.asarray(masses, dtype=np.float64), 1, None)
    (t,) = search(g, NoiseParams.from_p(update_p), plan, [oracle], [True], True)
    (record,) = t.queries
    return t, record


class TestStepMedianUpdate:
    def test_point_mass_gets_yes(self):
        masses = np.full(6, 1e-9)
        masses[4] = 1 - 5e-9
        t, record = one_step(star_graph(6), masses, 4, 0.0, 0.25, seed=0)
        assert record.query == 4
        assert record.answer.kind == "yes"
        # vertex 4, the target, is heavy before and after and gains share
        (rest0, target0, total0, heavy0), (_, target1, total1, heavy1) = t.weight_log
        assert heavy0 == heavy1 == 4
        assert rest0 == pytest.approx(math.log2(5e-9))
        assert t.final_target_log2 == target1 == pytest.approx(math.log2(0.75 * (1 - 5e-9)))
        assert target1 - total1 > target0 - total0 - 1e-12

    def test_path_trace_by_hand(self):
        # uniform on a 3-path, truthful target at the right end: the
        # median is the middle vertex, the answer points right, and the
        # consistent set is exactly the right endpoint
        t, record = one_step(path_graph(3), np.full(3, 1 / 3), 2, 0.0, 0.25, seed=1)
        assert record.query == 1
        assert record.answer.kind == "neighbor" and record.answer.vertex == 2
        # the target keeps 3/4 of its third: 1/4 absolute; the total is
        # 5/12 and the relative weights (0.2, 0.2, 0.6)
        assert t.final_target_log2 == pytest.approx(-2.0, abs=1e-12)
        assert t.weight_log[0][:3] == pytest.approx((math.log2(2 / 3), math.log2(1 / 3), 0.0))
        assert t.weight_log[0][3] is None
        rest, target, total, heavy = t.weight_log[1]
        assert total == pytest.approx(math.log2(5 / 12))
        assert 2.0 ** (target - total) == pytest.approx(0.6)
        assert 2.0 ** (rest - total) == pytest.approx(0.4)
        assert heavy == 2

    def test_heavy_query_no_answer_decreases_weight(self):
        masses = [0.1, 0.6, 0.1, 0.1, 0.1]
        t, record = one_step(path_graph(5), masses, 4, 0.0, 0.3, seed=2)
        assert record.query == 1  # the heavy vertex is the median
        assert record.answer.kind == "neighbor"
        # vertex 1 falls from 0.6 to 0.6 * 0.3 = 0.18 of a total of 0.46
        # and is no longer heavy; the target keeps 0.7 of its 0.1
        (_, _, total0, heavy0), (rest, _, total, heavy) = t.weight_log
        assert (total0, heavy0, heavy) == (0.0, 1, None)
        assert total == pytest.approx(math.log2(0.46))
        assert 2.0**total - 2.0**rest == pytest.approx(0.18)
        assert t.final_target_log2 == pytest.approx(math.log2(0.07))


class TestRunAdversarial:
    def test_single_vertex(self):
        g = path_graph(1)
        oracle = make_oracle(g, target=0, p=0.25, seed=3)
        t = run_adversarial(g, NoiseParams.from_p(0.25), 0.2, oracle)
        assert t.declared == 0 and t.target_hit

    def test_truthful_path_all_targets(self):
        # with a truthful answer channel every target on a 15-path is found
        g = path_graph(15)
        noise = NoiseParams.from_p(0.25)
        for target in range(15):
            oracle = make_oracle(g, target=target, p=0.0, seed=4)
            t = run_adversarial(g, noise, 0.2, oracle)
            assert t.declared == target

    def test_budget_is_exact_and_recorded(self):
        g = path_graph(32)
        noise = NoiseParams.from_p(0.3)
        budget = worst_case_budget_graph(32, noise, 0.2).q
        oracle = make_oracle(g, target=7, p=0.3, seed=5)
        t = run_adversarial(g, noise, 0.2, oracle)
        assert t.query_count == budget
        assert len(t.queries) == t.query_count

    def test_rejects_bad_delta(self):
        g = path_graph(4)
        oracle = make_oracle(g, target=0, p=0.25, seed=6)
        with pytest.raises(DomainError):
            run_adversarial(g, NoiseParams.from_p(0.25), 0.6, oracle)

    def test_weight_drop_law_single_run(self):
        g = grid_graph(4, 4)
        noise = NoiseParams.from_p(0.3)
        oracle = make_oracle(g, target=9, p=0.3, seed=7)
        t = run_adversarial(g, noise, 0.1, oracle, track_weights=True)
        for tau, (log_rest, *_) in enumerate(t.weight_log):
            assert log_rest <= -tau + 1e-6

    def test_reproducible_given_seed(self):
        g = path_graph(20)
        noise = NoiseParams.from_p(0.25)
        runs = []
        for _ in range(2):
            oracle = make_oracle(g, target=13, p=0.25, seed=8)
            t = run_adversarial(g, noise, 0.2, oracle)
            runs.append([(r.query, r.answer.kind, r.answer.vertex) for r in t.queries])
        assert runs[0] == runs[1]


class TestRunLvDistributional:
    def test_point_mass_immediate(self):
        g = path_graph(6)
        mu = Distribution(np.array([0.0, 0.0, 0.0, 1.0, 0.0, 0.0]))
        oracle = make_oracle(g, target=3, p=0.0, seed=9)
        t = run_lv_distributional(g, mu, NoiseParams.from_p(0.25), 0.1, oracle)
        assert t.declared == 3
        assert t.query_count == 0  # the floored prior already clears 1-delta

    def test_moderate_prior_truthful_count(self):
        # prior (0.6, 0.4) on a 2-path, truthful target 0, delta 0.1:
        # after k yes-answers the posterior of 0 is 0.6*0.75^k over the
        # total; the first k clearing 0.9 is 2
        g = path_graph(2)
        mu = Distribution(np.array([0.6, 0.4]))
        noise = NoiseParams.from_p(0.25)
        w0, w1 = 0.6, 0.4
        k = 0
        while w0 / (w0 + w1) < 0.9:
            w0, w1 = w0 * 0.75, w1 * 0.25
            k += 1
        assert k == 2
        oracle = make_oracle(g, target=0, p=0.0, seed=10)
        t = run_lv_distributional(g, mu, noise, 0.1, oracle)
        assert t.query_count == k and t.declared == 0

    def test_star_expected_queries_bound(self):
        # mean queries over trials stays under
        # (log2 n + log2(1/delta) + 1) / info_rate within one standard error
        n, p, delta, trials = 32, 0.25, 0.1, 600
        g = star_graph(n)
        noise = NoiseParams.from_p(p)
        mu = Distribution.uniform(n)
        counts, errors = [], 0
        for i in range(trials):
            rng = np.random.default_rng([100, i])
            target = int(rng.integers(n))
            oracle = GraphOracle(g, target, NoisePolicy(p=p), rng)
            t = run_lv_distributional(g, mu, noise, delta, oracle, record_queries=False)
            counts.append(t.query_count)
            errors += not t.target_hit
        bound = (math.log2(n) + math.log2(1 / delta) + 1) / noise.info_rate
        mean = float(np.mean(counts))
        sem = float(np.std(counts, ddof=1)) / math.sqrt(trials)
        assert mean <= bound + sem
        assert errors / trials <= delta

    def test_weak_confidence_two_vertices(self):
        # delta near 1/2 stops almost immediately with error at most delta
        g = path_graph(2)
        noise = NoiseParams.from_p(0.25)
        mu = Distribution.uniform(2)
        errors, counts = 0, []
        for i in range(400):
            rng = np.random.default_rng([101, i])
            target = int(rng.integers(2))
            oracle = GraphOracle(g, target, NoisePolicy(p=0.25), rng)
            t = run_lv_distributional(g, mu, noise, 0.49, oracle, record_queries=False)
            counts.append(t.query_count)
            errors += not t.target_hit
        assert max(counts) <= 5
        assert errors / 400 <= 0.49


class TestRunLvAdversarial:
    def test_confidence_rescaling_monotone(self):
        for n in (4, 64, 1024):
            for delta in (0.05, 0.2, 0.45):
                dprime = rescaled_confidence(n, delta)
                assert 0 < dprime <= delta
                assert dprime <= 1 / 3

    def test_worst_target_sweep_small_grid(self):
        n, p, delta, per_target = 9, 0.25, 0.3, 80
        g = grid_graph(3, 3)
        noise = NoiseParams.from_p(p)
        worst_err = 0.0
        for target in range(n):
            errors = 0
            for i in range(per_target):
                rng = np.random.default_rng([102, target, i])
                oracle = GraphOracle(g, target, NoisePolicy(p=p), rng)
                t = run_lv_adversarial(g, noise, delta, oracle, record_queries=False)
                errors += not t.target_hit
            worst_err = max(worst_err, errors / per_target)
        assert worst_err <= delta


class TestTargetWeightFloor:
    def test_quantile_at_budget(self):
        # with probability at least 1-delta the target's absolute log2
        # weight at the budget stays above
        # -log2 n - sqrt(Q/2 ln(1/delta)) log2 gamma - H(p) Q
        n, p, delta, trials = 64, 0.3, 0.2, 500
        g = path_graph(n)
        noise = NoiseParams.from_p(p)
        q_budget = worst_case_budget_graph(n, noise, delta).q
        floor = (
            -math.log2(n)
            - math.sqrt(q_budget / 2 * math.log(1 / delta)) * math.log2(noise.gamma)
            - (1 - noise.info_rate) * q_budget
        )
        below = 0
        for i in range(trials):
            rng = np.random.default_rng([103, i])
            target = int(rng.integers(n))
            oracle = GraphOracle(g, target, NoisePolicy(p=p), rng)
            t = run_adversarial(g, noise, delta, oracle, record_queries=False)
            if t.final_target_log2 < floor:
                below += 1
        sigma = math.sqrt(delta * (1 - delta) / trials)
        assert below / trials <= delta + 3 * sigma
