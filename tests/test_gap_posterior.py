"""TreePosterior against the dense reference: central_element, comparison_update.

The dense drive loop below lives here only. It is the per-query comparison
search built from central_element, comparison_update and an n-sized
verification loop; the kernel-driven strategies must reproduce its
transcripts exactly.
"""

import copy
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisysearch import harness
from noisysearch.linear_search import (
    CENTRAL_TOL,
    STOP_SLACK,
    CandidateSet,
    EpochState,
    TreePosterior,
    central_element,
    comparison_update,
    coupled_epoch_log2,
    run_adversarial,
    run_lv_distributional,
    verify_candidates,
)
from noisysearch.mathcore import (
    Distribution,
    DomainError,
    NoiseParams,
    epoch_length,
    worst_case_budget_linear,
)
from noisysearch.oracle import Answer, LinearOracle, NoisePolicy, ProtocolError
from noisysearch.weights import WeightState, init_from_distribution, init_uniform


# ---------------------------------------------------------------------------
# dense reference drive loop
# ---------------------------------------------------------------------------


def _log2_unmarked(state, marked_mask):
    rest = float(state.relative[~marked_mask].sum())
    return math.log2(rest) + state.log2_total if rest > 0.0 else float("-inf")


def dense_epoch_phase(state, noise, oracle, max_total, stop_rule=None):
    n = state.n
    epoch = EpochState.fresh()
    marked_mask = np.zeros(n, dtype=bool)
    log = [(0, 0.0, _log2_unmarked(state, marked_mask))]
    steps = completed = 0
    stopped = False
    while steps < max_total:
        if stop_rule is not None and stop_rule(state, marked_mask):
            stopped = True
            break
        if len(epoch.marked) >= n:
            break
        pivot = central_element(state, marked_mask)
        scheduled = epoch_length(epoch.epoch_index, noise)
        budget = min(scheduled, max_total - steps)
        less = greater = 0
        for _ in range(budget):
            kind = oracle.answer(pivot).kind
            state = comparison_update(state, pivot, kind, noise)
            steps += 1
            if kind == "less":
                less += 1
            else:
                greater += 1
            if stop_rule is not None and stop_rule(state, marked_mask):
                stopped = True
                break
        if stopped:
            break
        # close the epoch: fold its counts into the coupled bound, mark its pivot
        epoch.coupled_log2 += coupled_epoch_log2(less, greater, noise)
        epoch.marked.append(pivot)
        marked_mask[pivot] = True
        epoch.epoch_index += 1
        completed += budget == scheduled
        log.append((steps, epoch.coupled_log2, _log2_unmarked(state, marked_mask)))
    if stop_rule is not None and not stopped:
        stopped = stop_rule(state, marked_mask)
    return state, epoch, steps, stopped, completed, log


def dense_verify(members, noise, delta, oracle, cap_multiplier=50.0):
    if len(members) == 1:
        return members[0]
    positions = np.asarray(members, dtype=np.int64)
    m = positions.size
    w = np.full(m, 1.0 / m)
    cap = int(
        math.ceil(
            cap_multiplier * (math.log2(m) + math.log2(1.0 / delta) + 1.0) / noise.info_rate
        )
    )
    p = noise.p
    for _ in range(cap):
        if float(w.max()) >= 1.0 - delta - STOP_SLACK:
            break
        csum = np.cumsum(w)
        prefix = csum - w
        suffix = 1.0 - csum
        half = 0.5 + CENTRAL_TOL
        pivot_idx = int(np.flatnonzero((prefix <= half) & (suffix <= half))[0])
        pivot = int(positions[pivot_idx])
        if oracle.answer(pivot).kind == "less":
            mult = np.where(positions < pivot, 1.0 - p, p)
        else:
            mult = np.where(positions > pivot, 1.0 - p, p)
        mult[pivot_idx] = 0.5
        w = w * mult
        w = w / w.sum()
    return int(positions[int(np.argmax(w))])


def dense_run_adversarial(n, noise, delta, oracle):
    q = worst_case_budget_linear(n, noise, delta, 4.0).q
    _, epoch, steps, _, completed, log = dense_epoch_phase(init_uniform(n), noise, oracle, q)
    before = oracle.queries_answered
    declared = dense_verify(CandidateSet(tuple(epoch.marked)).members, noise, delta / 3.0, oracle)
    return declared, steps, oracle.queries_answered - before, list(epoch.marked), completed, log


def dense_run_lv_distributional(n, mu, noise, delta, oracle, c_const=4.0, cap_multiplier=50.0):
    state = init_from_distribution(mu)
    worst_bits = -math.log2(float(state.relative.min()))
    cap = int(
        math.ceil(
            cap_multiplier
            * (worst_bits + math.log2(1.0 / delta) + 3.0 + math.log2(c_const))
            / noise.info_rate
        )
    )
    threshold = 1.0 - delta / 2.0 - STOP_SLACK

    def stop_rule(st, marked_mask):
        return float(st.relative[marked_mask].sum()) >= threshold

    state, epoch, steps, _, completed, log = dense_epoch_phase(
        state, noise, oracle, cap, stop_rule
    )
    before = oracle.queries_answered
    if epoch.marked:
        members = CandidateSet(tuple(epoch.marked)).members
        declared = dense_verify(members, noise, delta / 2.0, oracle)
    else:
        declared = int(np.argmax(state.relative))
    return declared, steps, oracle.queries_answered - before, list(epoch.marked), completed, log


def transcript_fields(t):
    return t.declared, t.phase_one_queries, t.verify_queries, t.marked, t.completed_epochs


def assert_same_transcript(t, dense):
    assert transcript_fields(t) == dense[:5]
    assert len(t.epoch_log) == len(dense[5])
    for (s1, c1, a1), (s2, c2, a2) in zip(t.epoch_log, dense[5]):
        assert s1 == s2 and c1 == c2
        assert a1 == pytest.approx(a2, rel=1e-12, abs=1e-9)


# ---------------------------------------------------------------------------
# exhaustive node-by-node equivalence
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p", [0.1, 0.3, 0.45])
@pytest.mark.parametrize("n", [2, 3, 6, 9])
def test_every_answer_sequence_matches_dense(n, p):
    # depth-8 answer tree: even depths query the phase-one median (pivots
    # marked) while unmarked elements remain, odd depths the verification
    # median (every element counts), so pivots are both split and repeated
    noise = NoiseParams.from_p(p)
    nodes = 0

    def check(post, dense):
        np.testing.assert_allclose(post.relative, dense.relative, rtol=0, atol=1e-12)
        assert post.log2_total == pytest.approx(dense.log2_total, abs=1e-12)
        marked = np.zeros(n, dtype=bool)
        marked[post.pivots] = True
        if not marked.all():
            assert post.median(with_pivots=False) == central_element(dense, marked)
            rest = float(dense.relative[~marked].sum())
            assert post.log2_gap_mass() == pytest.approx(
                math.log2(rest) + dense.log2_total, abs=1e-12
            )
        assert post.median(with_pivots=True) == central_element(dense, np.zeros(n, dtype=bool))
        assert post.marked_share() == pytest.approx(
            float(dense.relative[marked].sum()), abs=1e-12
        )
        shares = [post.share(i) for i in range(n)]
        np.testing.assert_allclose(shares, dense.relative, rtol=0, atol=1e-12)

    def walk(post, dense, depth):
        nonlocal nodes
        nodes += 1
        check(post, dense)
        if depth == 8:
            return
        phase_one = depth % 2 == 0 and post.k < n
        pivot = post.median(with_pivots=not phase_one)
        for kind in ("less", "greater"):
            child = copy.deepcopy(post)
            child.update(pivot, kind, noise)
            walk(child, comparison_update(dense, pivot, kind, noise), depth + 1)

    walk(TreePosterior.uniform(n), init_uniform(n), 0)
    assert nodes == 2**9 - 1


def test_geometric_prior_tail_keeps_mass():
    # 0.5^i over 64 elements: the tail masses must come from slice sums;
    # differences of a prefix array would cancel their digits
    mu = harness.geometric_distribution(64)
    prior = init_from_distribution(mu)
    post = TreePosterior(prior.relative)
    dense = prior
    noise = NoiseParams.from_p(0.25)
    for pivot in (0, 1, 2, 3, 40):
        post.update(pivot, "greater", noise)
        dense = comparison_update(dense, pivot, "greater", noise)
    np.testing.assert_allclose(post.relative, dense.relative, rtol=1e-12, atol=0)
    marked = np.isin(np.arange(64), post.pivots)
    assert post.median(with_pivots=False) == central_element(dense, marked)


def test_renormalisation_keeps_long_runs_finite():
    # 3000 "less" answers at one pivot: gamma^3000 overflows float64 unless
    # the kernel renormalises
    p, n, reps = 0.05, 5, 3000
    noise = NoiseParams.from_p(p)
    post = TreePosterior.uniform(n)
    for _ in range(reps):
        post.update(2, "less", noise)
    expected = math.log2(2 / n) + reps * math.log2(1 - p)
    assert post.log2_total == pytest.approx(expected, rel=1e-12)
    np.testing.assert_allclose(post.relative, [0.5, 0.5, 0.0, 0.0, 0.0], atol=1e-300)
    assert post.median(with_pivots=False) == 0
    assert post.share(1) == pytest.approx(0.5)


def test_median_guard_steps_left_off_uncounted_leaves():
    # rounding can leave a node's stored sum above its children's; inflating
    # the root's counted mass drives the descent to the last leaf, a queried
    # pivot or padding, and the guard must return the nearest counted
    # element on its left
    noise = NoiseParams.from_p(0.3)
    for queried, expected in (([3], 2), ([2, 3], 1), ([1, 2, 3], 0)):
        post = TreePosterior.uniform(4)
        for q in queried:
            post.update(q, "less", noise)
        post._g[1] *= 10.0
        assert post.median(with_pivots=False) == expected
    post = TreePosterior.uniform(3)  # leaf 3 is padding
    post._s[1] *= 10.0
    assert post.median(with_pivots=True) == 2


def _prior(shape, n, rng):
    # masses from 1 down to about 2^-200: log-uniform, or the 0.5^i tail
    # (held at 2^-200 past i = 200)
    if shape == "log-uniform":
        w = 2.0 ** (-200.0 * rng.random(n))
    else:
        w = 0.5 ** np.minimum(np.arange(n), 200.0)
    return w / w.sum()


@settings(max_examples=24, deadline=None, derandomize=True, database=None)
@given(
    n=st.sampled_from([3, 5, 1000, 4097]),
    p=st.sampled_from([0.05, 0.25, 0.3, 0.45]),
    shape=st.sampled_from(["log-uniform", "geometric"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_long_runs_match_dense_through_renormalisations(n, p, shape, seed):
    # n off a power of two, so padding leaves exist; enough answers for at
    # least two renormalisations; pivots cycle through the phase-one
    # median, the verification median and a random element, and answers
    # come from a noisy comparison against a hidden target
    rng = np.random.default_rng(seed)
    noise = NoiseParams.from_p(p)
    prior = _prior(shape, n, rng)
    post = TreePosterior(prior)
    dense = WeightState(relative=prior, log2_total=0.0, step=0)
    renormalised = []
    renormalise = post._renormalise
    post._renormalise = lambda: (renormalised.append(1), renormalise())
    target = int(rng.integers(n))
    steps = math.ceil(2.5 * TreePosterior.RENORM_LOG2 / math.log2(noise.gamma))
    pivot = None
    for step in range(steps + 1):
        marked = np.zeros(n, dtype=bool)
        marked[post.pivots] = True
        q = None if marked.all() else post.median(with_pivots=False)
        if q is not None:
            assert 0 <= q < n and not marked[q]
            assert q == central_element(dense, marked)
        r = post.median(with_pivots=True)
        assert r == central_element(dense, np.zeros(n, dtype=bool))
        if step % 64 == 0 or step == steps:
            np.testing.assert_allclose(post.relative, dense.relative, rtol=1e-9, atol=1e-290)
            assert post.log2_total == pytest.approx(dense.log2_total, rel=1e-12, abs=1e-9)
            rest = float(dense.relative[~marked].sum())
            expected = math.log2(rest) + dense.log2_total if rest > 0.0 else float("-inf")
            assert post.log2_gap_mass() == pytest.approx(expected, rel=1e-12, abs=1e-9)
            for i in (0, n - 1, target, r):
                assert post.share(i) == pytest.approx(dense.relative[i], rel=1e-9, abs=1e-15)
            held = marked.copy()
            if pivot is not None:
                held[pivot] = False
            assert post.marked_share(pivot) == pytest.approx(
                float(dense.relative[held].sum()), abs=1e-12
            )
        if step == steps:
            break
        if step % 3 == 0 and q is not None:
            pivot = q
        elif step % 3 == 1:
            pivot = r
        else:
            pivot = int(rng.integers(n))
        less = target < pivot or (target == pivot and rng.random() < 0.5)
        kind = "less" if less != (rng.random() < p) else "greater"
        post.update(pivot, kind, noise)
        dense = comparison_update(dense, pivot, kind, noise)
    assert len(renormalised) >= 2


def test_rejects_bad_priors_replies_and_pivots():
    for prior in ([], [0.5, 0.0, 0.5], [0.5, np.nan]):
        with pytest.raises(DomainError):
            TreePosterior(np.array(prior))
    post = TreePosterior.uniform(4)
    noise = NoiseParams.from_p(0.3)
    with pytest.raises(ProtocolError):
        post.update(1, "yes", noise)
    with pytest.raises(DomainError):
        post.update(4, "less", noise)
    for q in range(4):
        post.update(q, "less", noise)
    with pytest.raises(DomainError):
        post.median(with_pivots=False)


class ScriptedOracle:
    """Replies from a fixed list of answer kinds, then "less" forever."""

    def __init__(self, kinds):
        self.kinds = list(kinds)
        self.queries_answered = 0

    def answer(self, q, state=None):
        kind = self.kinds[self.queries_answered] if self.queries_answered < len(self.kinds) else "less"
        self.queries_answered += 1
        return Answer(kind=kind)


def test_exact_tie_at_the_stop_threshold_stops_both_loops():
    # two candidates at p = 1/4: after these eight answers the leading
    # candidate holds exactly 9/10 = 1 - delta of the mass; the kernel's
    # share rounds to 0.9 and the dense loop's to 0.8999..., and the stop
    # slack makes both stop here
    p, delta = 0.25, 0.1
    kinds = ["greater", "less", "less", "greater", "greater", "greater", "greater", "greater"]
    noise = NoiseParams.from_p(p)
    w = [Fraction(1, 2)] * 2
    post, dense = TreePosterior.uniform(2), np.full(2, 0.5)
    for kind in kinds:
        k = post.median(with_pivots=True)
        post.update(k, kind, noise)
        factors = [Fraction(1, 2) if v == k else Fraction(3, 4) if (v < k) == (kind == "less")
                   else Fraction(1, 4) for v in range(2)]
        w = [a * f for a, f in zip(w, factors)]
        mult = np.array([float(f) for f in factors])
        dense = dense * mult
        dense = dense / dense.sum()
    assert max(w) / sum(w) == Fraction(9, 10)
    assert float(dense.max()) < 0.9 <= post.share(post.median(with_pivots=True))

    kernel_oracle, dense_oracle = ScriptedOracle(kinds), ScriptedOracle(kinds)
    declared = verify_candidates(CandidateSet((0, 1)), noise, delta, kernel_oracle)
    assert declared == dense_verify((0, 1), noise, delta, dense_oracle)
    assert kernel_oracle.queries_answered == dense_oracle.queries_answered == len(kinds)


# ---------------------------------------------------------------------------
# whole transcripts against the dense drive loop
# ---------------------------------------------------------------------------


def test_adversarial_transcripts_match_dense():
    n, p, delta = 4096, 0.3, 0.1
    noise = NoiseParams.from_p(p)
    for i in range(40):
        runs = []
        for _ in range(2):
            rng = np.random.default_rng([7, i])
            runs.append(LinearOracle(n, int(rng.integers(n)), NoisePolicy(p=p), rng))
        t = run_adversarial(n, noise, delta, runs[0])
        assert_same_transcript(t, dense_run_adversarial(n, noise, delta, runs[1]))
        assert runs[0].queries_answered == runs[1].queries_answered


def test_lv_distributional_transcripts_match_dense():
    n, p, delta = 1024, 0.3, 0.2
    noise = NoiseParams.from_p(p)
    mu = Distribution.uniform(n)
    for i in range(40):
        runs = []
        for _ in range(2):
            rng = np.random.default_rng([7, i])
            runs.append(LinearOracle(n, int(rng.integers(n)), NoisePolicy(p=p), rng))
        t = run_lv_distributional(n, mu, noise, delta, runs[0])
        assert_same_transcript(t, dense_run_lv_distributional(n, mu, noise, delta, runs[1]))


def test_adversarial_at_a_million_elements():
    # per-query work is O(log n) scalar steps; the dense path would need
    # seconds per trial here. The tree holds three float64 words per leaf
    # of a power-of-two padded tree (40 MiB at n = 2^20), so memory is O(n)
    n = 2**20
    tracemalloc.start()
    try:
        stats = harness.run_experiment(
            harness.ExperimentConfig(
                scenario="bin-adversarial", n=n, p=0.3, delta=0.1, trials=2, seed=7, workers=1
            )
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 96 * 2**20
    q = worst_case_budget_linear(n, NoiseParams.from_p(0.3), 0.1, 4.0).q
    assert stats.extras["min_phase_one"] == stats.extras["max_phase_one"] == q
