"""The comparison kernel's two loops against the per-call TreePosterior methods.

search runs phase one and verification as one loop each over the
TreePosterior buffers. The loop written here drives the same search through
median, update, share and marked_share one call at a time, and the two must
agree bit for bit: the pivots asked and the answers heard, the epoch_log
floats, the declared element, and the buffers each tree ends with. Phase
one without a stop rule leaves the interior of s stale, so there only the
leaves of s are compared; verification keeps no g, so there s and the tags
are.
"""

import numpy as np
import pytest

from noisysearch import linear_search
from noisysearch.linear_search import (
    STOP_SLACK,
    ComparisonPlan,
    TreePosterior,
    adversarial_plan,
    central_element,
    coupled_epoch_log2,
    lv_adversarial_plan,
    lv_distributional_plan,
    search,
)
from noisysearch.mathcore import Distribution, NoiseParams, epoch_length
from noisysearch.oracle import Answer, LinearOracle, NoisePolicy
from noisysearch.weights import WeightState


class _Recorded(TreePosterior):
    """A TreePosterior that lists itself on creation and counts its
    renormalisations."""

    made: list = []

    def __init__(self, prior):
        self.renormalised = 0
        super().__init__(prior)
        _Recorded.made.append(self)

    def _renormalise(self):
        self.renormalised += 1
        super()._renormalise()


class _Asked:
    """Wraps a LinearOracle and lists every (pivot, answer kind)."""

    def __init__(self, oracle):
        self.oracle = oracle
        self.target = oracle.target
        self.asked = []

    @property
    def queries_answered(self):
        return self.oracle.queries_answered

    def answer(self, q, state=None):
        a = self.oracle.answer(q)
        self.asked.append((q, a.kind))
        return a


class _Truthful:
    """Answers every comparison truly, and "less" at the target."""

    def __init__(self, target):
        self.target = target
        self.queries_answered = 0

    def answer(self, q, state=None):
        self.queries_answered += 1
        return Answer(kind="less" if self.target <= q else "greater", is_lie=False)


def _oracle(n, p, seed, truthful):
    rng = np.random.default_rng([seed, n])
    target = int(rng.integers(n))
    if truthful:
        return _Asked(_Truthful(target))
    return _Asked(LinearOracle(n, target, NoisePolicy(p=p), rng))


def _reference(plan, noise, oracle):
    """search() from the per-call methods: (declared, epoch_log, phase-one
    tree, verification tree or None)."""
    post = _Recorded(plan.prior)
    stop, max_steps = plan.stop_share, plan.max_steps
    marked = []
    log = [(0, 0.0, post.log2_gap_mass())]
    steps, index, bound, stopped = 0, 1, 0.0, False
    while steps < max_steps and len(marked) < post.n:
        if stop is not None and post.marked_share() >= stop:
            break
        pivot = post.median(False)
        budget = min(epoch_length(index, noise), max_steps - steps)
        less = 0
        for run in range(1, budget + 1):
            kind = oracle.answer(pivot).kind
            post.update(pivot, kind, noise)
            less += kind == "less"
            if stop is not None and post.marked_share(pivot) >= stop:
                stopped = True
                break
        if stopped:
            break
        steps += budget
        bound += coupled_epoch_log2(less, budget - less, noise)
        marked.append(pivot)
        index += 1
        log.append((steps, bound, post.log2_gap_mass()))
    members = sorted(marked)
    if len(members) == 1:
        return members[0], log, post, None
    verify = _Recorded.uniform(len(members))
    threshold = 1.0 - plan.verify_delta - STOP_SLACK
    for _ in range(linear_search._verify_cap(len(members), noise, plan.verify_delta)):
        k = verify.median(True)
        if verify.share(k) >= threshold:
            return members[k], log, post, verify
        verify.update(k, oracle.answer(members[k]).kind, noise)
    return members[int(np.argmax(verify.relative))], log, post, verify


def _hex_log(log):
    return [(step, bound.hex(), gap.hex()) for step, bound, gap in log]


def _buffers(tree, interior_s):
    size = tree._size
    s = bytes(tree._s) if interior_s else bytes(tree._s[size:])
    return s, bytes(tree._g), bytes(tree._t)


def _plans(n, noise, kind):
    if kind == "fixed":
        # long enough for several renormalisations at p = 0.1
        return adversarial_plan(n, noise, 0.1, budget=400)
    if kind == "stop":
        return lv_adversarial_plan(n, noise, 0.2)
    if kind == "stop-prior":
        w = 0.8 ** np.arange(n)
        return lv_distributional_plan(Distribution(w / w.sum()), noise, 0.2)
    if kind == "stop-never":
        # a stop rule that cannot fire: the stop climb runs the whole budget
        # through renormalisations
        plan = adversarial_plan(n, noise, 0.1, budget=400)
        return ComparisonPlan(plan.prior, plan.max_steps, 2.0, plan.verify_delta)
    # a budget too short to mark the target: with true answers the two
    # candidates around it trade the mass back and forth, and verification
    # runs to its cap
    return adversarial_plan(n, noise, 0.1, budget=4)


def _run_both(n, p, kind, seed, monkeypatch):
    noise = NoiseParams.from_p(p)
    plan = _plans(n, noise, kind)
    monkeypatch.setattr(linear_search, "TreePosterior", _Recorded)
    _Recorded.made = []
    kernel_oracle = _oracle(n, p, seed, kind == "capped")
    transcript = search(plan, noise, kernel_oracle)
    kernel_trees = _Recorded.made
    _Recorded.made = []
    ref_oracle = _oracle(n, p, seed, kind == "capped")
    declared, log, post, verify = _reference(plan, noise, ref_oracle)

    assert kernel_oracle.asked == ref_oracle.asked
    assert _hex_log(transcript.epoch_log) == _hex_log(log)
    assert transcript.declared == declared
    assert len(kernel_trees) == (1 if verify is None else 2)
    stale = plan.stop_share is None
    assert _buffers(kernel_trees[0], not stale) == _buffers(post, not stale)
    assert kernel_trees[0].log2_scale.hex() == post.log2_scale.hex()
    if verify is not None:
        # verification climbs s and the tags only
        kernel_s, _, kernel_t = _buffers(kernel_trees[1], True)
        ref_s, _, ref_t = _buffers(verify, True)
        assert (kernel_s, kernel_t) == (ref_s, ref_t)
    return transcript, kernel_trees, kernel_oracle


@pytest.mark.parametrize("n", [256, 300])
@pytest.mark.parametrize("p", [0.1, 0.25, 0.3, 0.45])
@pytest.mark.parametrize("kind", ["fixed", "stop", "stop-prior", "stop-never"])
def test_search_loops_match_the_per_call_methods(n, p, kind, monkeypatch):
    renormalised = multi_query = 0
    for seed in range(3):
        transcript, trees, oracle = _run_both(n, p, kind, seed, monkeypatch)
        renormalised += trees[0].renormalised
        pivots = [q for q, _ in oracle.asked[: transcript.phase_one_queries]]
        multi_query += any(a == b for a, b in zip(pivots, pivots[1:]))
    # the cases the loops must get right are really reached
    if p == 0.1 and kind in ("fixed", "stop-never"):
        assert renormalised > 0
    if p == 0.45:
        assert multi_query > 0


@pytest.mark.parametrize("n", [256, 300])
@pytest.mark.parametrize("p", [0.1, 0.3])
def test_a_verification_that_spends_its_cap_matches(n, p, monkeypatch):
    capped = renormalised = 0
    for seed in range(4):
        transcript, trees, _ = _run_both(n, p, "capped", seed, monkeypatch)
        cap = linear_search._verify_cap(len(transcript.marked), NoiseParams.from_p(p), 0.1 / 3)
        capped += transcript.verify_queries == cap
        renormalised += trees[-1].renormalised
    assert capped > 0 and renormalised > 0


def test_a_stale_total_is_rebuilt_before_it_is_read():
    # run_epoch leaves the interior of s stale; marked_share, share and
    # median(True) rebuild it from the leaves and tags, which they leave as
    # they were, and then agree with the dense weights
    noise = NoiseParams.from_p(0.3)
    n = 100
    post = TreePosterior.uniform(n)
    epoch = linear_search.EpochState.fresh()
    oracle = LinearOracle(n, 37, NoisePolicy(p=0.3), np.random.default_rng(5))
    for _ in range(20):
        post, epoch, _, _ = linear_search.run_epoch(post, epoch, noise, oracle)
    assert post._stale
    leaves, tags = bytes(post._s[post._size :]), bytes(post._t)
    dense = WeightState(relative=post.relative, log2_total=0.0, step=0)
    share = post.marked_share()
    assert not post._stale
    assert bytes(post._s[post._size :]) == leaves and bytes(post._t) == tags
    assert share == pytest.approx(float(dense.relative[epoch.marked].sum()), rel=1e-12)
    assert post.share(37) == pytest.approx(float(dense.relative[37]), rel=1e-12)
    assert post.median(True) == central_element(dense, np.zeros(n, dtype=bool))
