"""Comparison search: pivots, epochs, coupled bound, candidate verification."""

import math

import numpy as np
import pytest

from noisysearch import harness
from noisysearch.linear_search import (
    CandidateSet,
    ComparisonPlan,
    EpochState,
    TreePosterior,
    central_element,
    comparison_update,
    coupled_epoch_log2,
    run_adversarial,
    run_epoch,
    run_lv_adversarial,
    run_lv_distributional,
    search,
    verify_candidates,
)
from noisysearch.mathcore import (
    Distribution,
    DomainError,
    NoiseParams,
    epoch_length,
    worst_case_budget_linear,
)
from noisysearch.oracle import Answer, LinearOracle, NoisePolicy
from noisysearch.weights import init_from_distribution, init_uniform


def state_from(masses):
    return init_from_distribution(Distribution.from_weights(np.asarray(masses, dtype=float)))


class TestCentralElement:
    def test_weighted_example(self):
        st = state_from([0.2, 0.5, 0.3])
        assert central_element(st, np.zeros(3, dtype=bool)) == 1

    def test_uniform_four(self):
        st = init_uniform(4)
        assert central_element(st, np.zeros(4, dtype=bool)) == 1

    def test_single_unmarked(self):
        st = init_uniform(3)
        marked = np.array([True, False, True])
        assert central_element(st, marked) == 1

    def test_no_unmarked_rejected(self):
        st = init_uniform(2)
        with pytest.raises(DomainError):
            central_element(st, np.ones(2, dtype=bool))

    def test_exists_and_is_smallest_fuzz(self):
        rng = np.random.default_rng(30)
        for _ in range(500):
            n = int(rng.integers(2, 40))
            st = state_from(rng.uniform(1e-6, 1.0, size=n))
            marked = rng.random(n) < rng.uniform(0.0, 0.9)
            if marked.all():
                marked[int(rng.integers(n))] = False
            q = central_element(st, marked)
            w = st.relative * ~marked
            total = float(w.sum())
            tol = 1e-9 * total

            def splits(v):
                return (
                    float(w[:v].sum()) <= total / 2 + tol
                    and float(w[v + 1 :].sum()) <= total / 2 + tol
                )

            assert not marked[q]
            assert splits(q)
            for smaller in range(q):
                if not marked[smaller]:
                    assert not splits(smaller)


class TestComparisonUpdate:
    def test_less_answer_shapes(self):
        st = init_uniform(5)
        noise = NoiseParams.from_p(0.25)
        new = comparison_update(st, 2, "less", noise)
        raw = np.array([0.75, 0.75, 0.5, 0.25, 0.25]) * 0.2
        expected = raw / raw.sum()
        assert new.relative == pytest.approx(expected, abs=1e-12)

    def test_greater_mirrors_less(self):
        st = init_uniform(5)
        noise = NoiseParams.from_p(0.25)
        a = comparison_update(st, 2, "less", noise).relative
        b = comparison_update(st, 2, "greater", noise).relative
        assert a == pytest.approx(b[::-1], abs=1e-12)

    def test_rejects_graph_kinds(self):
        from noisysearch.oracle import ProtocolError

        with pytest.raises(ProtocolError):
            comparison_update(init_uniform(3), 1, "yes", NoiseParams.from_p(0.3))


class TestRunEpoch:
    def test_single_query_epoch_hand_trace(self):
        # length-1 epoch at p=0.25: a "less" answer scales left by 0.75,
        # right by 0.25, pivot by 0.5; the coupled factor is exactly 1/2
        noise = NoiseParams.from_p(0.25)
        st = TreePosterior.uniform(4)
        epoch = EpochState.fresh()

        class FixedOracle:
            target = -1
            queries_answered = 0

            def answer(self, q, state=None):
                from noisysearch.oracle import Answer

                self.queries_answered += 1
                return Answer(kind="less")

        st, epoch, status, run = run_epoch(st, epoch, noise, FixedOracle())
        assert status == "completed" and run == 1
        assert epoch.marked == [1]
        assert epoch.coupled_log2 == pytest.approx(-1.0, abs=1e-12)
        raw = np.array([0.75, 0.5, 0.25, 0.25]) * 0.25
        assert st.relative == pytest.approx(raw / raw.sum(), abs=1e-12)

    def test_coupled_factor_matches_direct_product(self):
        noise = NoiseParams.from_p(0.3)
        p = noise.p
        for x, y in [(3, 3), (5, 0), (0, 4), (2, 7)]:
            direct = ((1 - p) ** x * p**y + (1 - p) ** y * p**x) / 2.0
            assert coupled_epoch_log2(x, y, noise) == pytest.approx(math.log2(direct), abs=1e-12)

    def test_quarter_noise_epochs_all_single(self):
        noise = NoiseParams.from_p(0.25)
        assert all(epoch_length(i, noise) == 1 for i in range(1, 200))

    def test_truncation_marks_pivot(self):
        noise = NoiseParams.from_p(0.4)  # epsilon 0.1: first epoch has length 7
        st = TreePosterior.uniform(8)
        epoch = EpochState.fresh()
        oracle = LinearOracle(8, 5, NoisePolicy(p=0.4), np.random.default_rng(31))
        st, epoch, status, run = run_epoch(st, epoch, noise, oracle, max_queries=3)
        assert status == "truncated" and run == 3
        assert len(epoch.marked) == 1


class TestVerifyCandidates:
    def test_singleton_immediate(self):
        oracle = LinearOracle(10, 4, NoisePolicy(p=0.25), np.random.default_rng(32))
        assert verify_candidates(CandidateSet((4,)), NoiseParams.from_p(0.25), 0.1, oracle) == 4
        assert oracle.queries_answered == 0

    def test_two_candidates_match_scalar_walk(self):
        # independent oracle: the restricted posterior over two candidates
        # is a log-odds random walk; simulate it scalar-side and compare
        # mean query counts
        p, delta, trials = 0.25, 0.1, 1500
        noise = NoiseParams.from_p(p)
        thr = math.log2((1 - delta) / delta)
        up_t, down_t = math.log2(2 * (1 - p)), math.log2(2 * p)

        def walk_steps(rng):
            # odds of candidate b (the target) against candidate a
            log_odds = 0.0
            steps = 0
            while abs(log_odds) < thr:
                steps += 1
                if log_odds <= 0.0:  # pivot sits on candidate a
                    log_odds += up_t if rng.random() >= p else down_t
                else:  # pivot is the target: fair coin, symmetric moves
                    log_odds += -up_t if rng.random() < 0.5 else -down_t
            return steps

        walk_counts, verify_counts, errors = [], [], 0
        for i in range(trials):
            walk_counts.append(walk_steps(np.random.default_rng([33, i])))
            oracle = LinearOracle(10, 8, NoisePolicy(p=p), np.random.default_rng([34, i]))
            got = verify_candidates(CandidateSet((2, 8)), noise, delta, oracle)
            verify_counts.append(oracle.queries_answered)
            errors += got != 8
        mean_walk = float(np.mean(walk_counts))
        mean_verify = float(np.mean(verify_counts))
        se = math.hypot(
            float(np.std(walk_counts, ddof=1)) / math.sqrt(trials),
            float(np.std(verify_counts, ddof=1)) / math.sqrt(trials),
        )
        assert abs(mean_verify - mean_walk) <= 4 * se + 0.05
        assert mean_verify <= 2.0 * math.log2(1 / delta) / noise.info_rate
        assert errors / trials <= delta

    def test_error_rate_on_larger_pools(self):
        p, delta, trials = 0.25, 0.1, 2000
        noise = NoiseParams.from_p(p)
        errors = 0
        for i in range(trials):
            rng = np.random.default_rng([35, i])
            members = tuple(sorted(rng.choice(64, size=int(rng.integers(2, 33)), replace=False)))
            target = int(members[int(rng.integers(len(members)))])
            oracle = LinearOracle(64, target, NoisePolicy(p=p), rng)
            got = verify_candidates(CandidateSet(members), noise, delta, oracle)
            errors += got != target
        assert errors / trials <= delta


class AwayOracle:
    """Answers every comparison away from its pivot, as a liar would that
    keeps the target between candidates 2 and 8: "greater" below 5, "less"
    from 5 on."""

    target = 5

    def __init__(self):
        self.queries_answered = 0

    def answer(self, q, state=None):
        self.queries_answered += 1
        return Answer(kind="greater" if q < 5 else "less")


class TestVerificationCap:
    # answered away from each pivot, the two candidates trade the lead
    # forever, so verification runs to its cap: ceil(50 (log2 m + log2(1/delta)
    # + 1) / (1 - H(p))) with m = 2, delta = 0.1
    CAPS = {0.1: 502, 0.3: 2242}

    @pytest.mark.parametrize("p", sorted(CAPS))
    def test_verification_runs_to_its_cap(self, p):
        noise = NoiseParams.from_p(p)
        cap = math.ceil(50.0 * (1.0 + math.log2(1 / 0.1) + 1.0) / noise.info_rate)
        assert cap == self.CAPS[p]
        oracle = AwayOracle()
        verify_candidates(CandidateSet((2, 8)), noise, 0.1, oracle)
        assert oracle.queries_answered == cap

    @pytest.mark.parametrize("p", sorted(CAPS))
    def test_a_verification_cap_hit_is_flagged_and_counted(self, p):
        # nearly all the prior on 2 and 8: phase one asks 2 (answered
        # "greater"), then 8, and ends at its budget with the pool (2, 8)
        noise = NoiseParams.from_p(p)
        prior = np.full(10, 0.005)
        prior[[2, 8]] = 0.5, 0.46
        budget = epoch_length(1, noise) + epoch_length(2, noise)
        t = search(ComparisonPlan(prior, budget, None, 0.1), noise, AwayOracle())
        assert t.marked == [2, 8] and t.phase_one_queries == budget
        assert t.verify_queries == self.CAPS[p]
        assert t.flagged
        config = harness.ExperimentConfig(
            scenario="bin-adversarial", n=10, p=p, delta=0.3, trials=1, seed=0
        )
        ctx = harness._build_context(config)
        stats = harness._summarize(ctx, [harness._outcome(t, False)])
        assert stats.flagged_trials == 1 and stats.extras["errors"] == 1


class TestRunAdversarial:
    def test_two_elements_tiny_noise(self):
        noise = NoiseParams.from_p(0.01)
        oracle = LinearOracle(2, 1, NoisePolicy(p=0.01), np.random.default_rng(36))
        t = run_adversarial(2, noise, 0.2, oracle)
        assert t.target_hit

    def test_phase_split_and_candidate_arithmetic(self):
        n, p, delta = 128, 0.3, 0.1
        noise = NoiseParams.from_p(p)
        budget = worst_case_budget_linear(n, noise, delta, 4.0).q
        oracle = LinearOracle(n, 77, NoisePolicy(p=p), np.random.default_rng(37))
        t = run_adversarial(n, noise, delta, oracle)
        assert t.phase_one_queries == min(budget, t.phase_one_queries)
        assert t.query_count == t.phase_one_queries + t.verify_queries
        assert len(t.marked) <= t.completed_epochs + 1
        # schedule arithmetic: epochs fitting the budget
        f, total = 0, 0
        while total + epoch_length(f + 1, noise) <= t.phase_one_queries:
            f += 1
            total += epoch_length(f, noise)
        assert t.completed_epochs == f
        eps = noise.epsilon
        assert f <= min(t.phase_one_queries, 220 * (1 + eps**6 * t.phase_one_queries**3))

    def test_exhausts_small_instance_early(self):
        # budget far exceeds the number of elements: every element is
        # marked and the epoch phase stops early
        noise = NoiseParams.from_p(0.25)
        oracle = LinearOracle(2, 0, NoisePolicy(p=0.25), np.random.default_rng(38))
        t = run_adversarial(2, noise, 0.25, oracle, c_const=1.0)
        assert t.phase_one_queries == 2  # one single-query epoch per element
        assert sorted(t.marked) == [0, 1]

    def test_coupled_bound_on_transcript(self):
        noise = NoiseParams.from_p(0.3)
        oracle = LinearOracle(256, 200, NoisePolicy(p=0.3), np.random.default_rng(39))
        t = run_adversarial(256, noise, 0.1, oracle)
        for _, coupled, actual in t.epoch_log:
            assert actual <= coupled + 1e-6


class TestRunLvDistributional:
    def test_point_mass_marks_immediately(self):
        noise = NoiseParams.from_p(0.25)
        mu = Distribution(np.array([0.0, 0.0, 0.0, 0.0, 1.0, 0.0]))
        oracle = LinearOracle(6, 4, NoisePolicy(p=0.25), np.random.default_rng(40))
        t = run_lv_distributional(6, mu, noise, 0.2, oracle)
        assert t.marked[0] == 4
        assert t.phase_one_queries == 1
        assert t.declared == 4

    def test_mean_queries_bound_uniform(self):
        n, p, delta, trials = 64, 0.25, 0.2, 500
        noise = NoiseParams.from_p(p)
        mu = Distribution.uniform(n)
        totals, errors = [], 0
        for i in range(trials):
            rng = np.random.default_rng([41, i])
            target = int(rng.choice(n, p=mu.masses))
            oracle = LinearOracle(n, target, NoisePolicy(p=p), rng)
            t = run_lv_distributional(n, mu, noise, delta, oracle)
            totals.append(t.query_count)
            errors += not t.target_hit
        # frozen allowance: 3 + log2(4) for the coupled-drop constant,
        # log2(n) + log2(2/delta) + 1 for verification
        overhead = 3 + 2 + math.log2(n) + math.log2(2 / delta) + 1
        bound = (math.log2(n) + math.log2(1 / delta) + overhead) / noise.info_rate
        mean = float(np.mean(totals))
        sem = float(np.std(totals, ddof=1)) / math.sqrt(trials)
        assert mean <= bound + sem
        assert errors / trials <= delta

    def test_close_to_half_delta_still_sound(self):
        noise = NoiseParams.from_p(0.25)
        errors = 0
        for i in range(300):
            rng = np.random.default_rng([42, i])
            target = int(rng.integers(16))
            oracle = LinearOracle(16, target, NoisePolicy(p=0.25), rng)
            t = run_lv_distributional(16, Distribution.uniform(16), noise, 0.45, oracle)
            errors += not t.target_hit
        assert errors / 300 <= 0.45


class TestRunLvAdversarial:
    def test_small_sweep_error_and_spread(self):
        n, p, delta, per_target = 16, 0.25, 0.2, 120
        noise = NoiseParams.from_p(p)
        means, worst_err = [], 0.0
        for target in range(n):
            counts, errors = [], 0
            for i in range(per_target):
                rng = np.random.default_rng([43, target, i])
                oracle = LinearOracle(n, target, NoisePolicy(p=p), rng)
                t = run_lv_adversarial(n, noise, delta, oracle)
                counts.append(t.query_count)
                errors += not t.target_hit
            means.append(float(np.mean(counts)))
            worst_err = max(worst_err, errors / per_target)
        assert worst_err <= delta
        # the strategy runs at the rescaled confidence delta / 4
        rescaled = delta / 4
        overhead = 3 + 2 + math.log2(n) + math.log2(2 / rescaled) + 1
        bound = (math.log2(n) + math.log2(1 / rescaled) + overhead) / noise.info_rate
        assert max(means) <= bound
        # per-target means differ only by lower-order amounts
        spread_budget = (math.log2(math.log2(n)) + math.log2(1 / rescaled) + overhead) / noise.info_rate
        assert max(means) - min(means) <= spread_budget


class TestEpochExpectationEmpirical:
    def test_sampled_epochs_match_closed_form(self):
        # complement to the exhaustive check: run real oracle-driven
        # epochs and compare the mean coupled factor within 3 sigma
        p, k, trials = 0.3, 5, 20000
        noise = NoiseParams.from_p(p)
        eps = noise.epsilon
        policy = NoisePolicy(p=p)
        rng = np.random.default_rng(99)
        factors = np.empty(trials)
        for i in range(trials):
            x = sum(
                LinearOracle(4, 0, policy, rng).answer(2).kind == "less" for _ in range(k)
            )
            y = k - x
            factors[i] = 2.0 ** coupled_epoch_log2(x, y, noise)
        closed = 2.0 ** (-k - 1) * ((1 - 4 * eps**2) ** k + (1 + 4 * eps**2) ** k)
        sem = float(factors.std(ddof=1)) / math.sqrt(trials)
        assert abs(float(factors.mean()) - closed) <= 3 * sem


class TestEpochProductBound:
    def test_schedule_product_stays_under_default_constant(self):
        # product over the schedule of 2^k * E[per-epoch factor] must stay
        # below the default budget constant 4 (this is what validates it)
        for eps in (0.01, 0.05, 0.1, 0.25, 0.45):
            noise = NoiseParams.from_p(0.5 - eps)
            a, b = 1 - 4 * eps**2, 1 + 4 * eps**2
            log_prod = 0.0
            for i in range(1, 10_001):
                k = epoch_length(i, noise)
                # 2^k times the expected epoch factor 2^(-k-1) (a^k + b^k)
                log_prod += math.log2((a**k + b**k) / 2.0)
            assert 0.0 <= log_prod <= math.log2(4.0)
