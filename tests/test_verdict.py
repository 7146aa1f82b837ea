"""The verdict a CI gate reads: harness._summarize and _theoretical_bound on
hand-built trial outcomes, with every ceiling written out from its formula."""

import math

import pytest

from noisysearch.harness import (
    ExperimentConfig,
    TrialOutcome,
    _Context,
    _summarize,
    _theoretical_bound,
    wilson_interval,
)
from noisysearch.mathcore import Distribution, NoiseParams

FIXED = ("graph-adversarial", "bin-adversarial")
STOPPING = ("graph-lv-distr", "graph-lv-adv", "bin-lv-distr", "bin-lv-adv")
# mu for the distributional scenarios: entropy 1.5 bits
MU = Distribution.from_weights([0.5, 0.25, 0.25] + [0.0] * 13)


def context(scenario, n=16, p=0.25, delta=0.125):
    config = ExperimentConfig(scenario=scenario, n=n, p=p, delta=delta, trials=1, seed=0)
    mu = MU if scenario.endswith("lv-distr") else None
    return _Context(config, NoiseParams.from_p(p), graph=None, dist=None, mu=mu)


def outcomes(queries, misses=0, flagged_hits=0, flagged_misses=0):
    """One outcome per query count, as (hit, flagged): misses first, then
    flagged hits, then flagged misses, then plain hits."""
    kinds = [(False, False)] * misses + [(True, True)] * flagged_hits
    kinds += [(False, True)] * flagged_misses
    kinds += [(True, False)] * (len(queries) - len(kinds))
    return [
        TrialOutcome(hit, q, flag, -1, -1, -1, None) for (hit, flag), q in zip(kinds, queries)
    ]


def info_rate(p):
    return 1.0 + p * math.log2(p) + (1.0 - p) * math.log2(1.0 - p)


# ---------------------------------------------------------------------------
# ceilings
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("scenario", FIXED)
def test_fixed_budget_ceiling_is_delta(scenario):
    assert _theoretical_bound(context(scenario)) == 0.125


def test_graph_lv_distr_ceiling():
    # (H(mu) + log2(1/delta) + 1) / (1 - H(p)), H(mu) = 1.5 bits (the zero
    # masses add nothing), log2(1/0.125) = 3
    assert _theoretical_bound(context("graph-lv-distr")) == pytest.approx(
        (1.5 + 3.0 + 1.0) / info_rate(0.25), rel=1e-12
    )


def test_graph_lv_adv_ceiling():
    # delta' = delta^2 / (c' (log2 n + log2(1/delta))^2) = (1/64) / (64 * 7^2)
    # and (log2 n + log2(1/delta') + 1) / (1 - H(p))
    dprime = (1 / 64) / (64 * 49)
    assert _theoretical_bound(context("graph-lv-adv")) == pytest.approx(
        (4.0 + math.log2(1.0 / dprime) + 1.0) / info_rate(0.25), rel=1e-12
    )


def test_bin_lv_distr_ceiling():
    # (H(mu) + log2(1/delta) + overhead) / (1 - H(p)), where the overhead is
    # 3 + log2(c) + log2 n + log2(2/delta) + 1 = 3 + 2 + 4 + 4 + 1
    assert _theoretical_bound(context("bin-lv-distr")) == pytest.approx(
        (1.5 + 3.0 + 14.0) / info_rate(0.25), rel=1e-12
    )


def test_bin_lv_adv_ceiling():
    # the confidence rescaled to delta / adv_margin = 1/32: (log2 n +
    # log2 32 + overhead) / (1 - H(p)), overhead 3 + 2 + 4 + log2 64 + 1
    assert _theoretical_bound(context("bin-lv-adv")) == pytest.approx(
        (4.0 + 5.0 + 16.0) / info_rate(0.25), rel=1e-12
    )


# ---------------------------------------------------------------------------
# fixed budget: the Wilson upper limit against delta
# ---------------------------------------------------------------------------


def most_errors_within(delta, trials):
    k = 0
    while wilson_interval(k + 1, trials)[1] <= delta:
        k += 1
    return k


@pytest.mark.parametrize("scenario", FIXED)
def test_fixed_budget_error_just_below_and_above_delta(scenario):
    ctx = context(scenario, delta=0.1)
    k = most_errors_within(0.1, 400)
    below = _summarize(ctx, outcomes([50] * 400, misses=k))
    assert below.bound_satisfied and below.error_ci_high <= 0.1
    above = _summarize(ctx, outcomes([50] * 400, misses=k + 1))
    assert not above.bound_satisfied and above.error_ci_high > 0.1
    assert (below.error_rate, above.error_rate) == (k / 400, (k + 1) / 400)


@pytest.mark.parametrize("scenario", FIXED)
def test_fixed_budget_flagged_hit_counts_as_an_error(scenario):
    ctx = context(scenario, delta=0.1)
    k = most_errors_within(0.1, 400)
    stats = _summarize(ctx, outcomes([50] * 400, misses=k, flagged_hits=1))
    assert stats.flagged_trials == 1 and stats.extras["errors"] == k + 1
    assert not stats.bound_satisfied


# ---------------------------------------------------------------------------
# stopping searches: error rate against delta, mean against bound + sem
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("scenario", STOPPING)
def test_stopping_error_just_below_and_above_delta(scenario):
    # 10 errors in 100 trials is exactly delta = 0.1; 11 is just above
    ctx = context(scenario, delta=0.1)
    below = _summarize(ctx, outcomes([5] * 100, misses=10))
    assert below.error_rate == 0.1 and below.bound_satisfied
    above = _summarize(ctx, outcomes([5] * 100, misses=11))
    assert above.error_rate == 0.11 and not above.bound_satisfied


@pytest.mark.parametrize("scenario", STOPPING)
def test_stopping_flagged_trials_are_counted_and_are_errors(scenario):
    ctx = context(scenario, delta=0.1)
    # 9 misses and one flagged trial that hit: 10 errors, still within
    stats = _summarize(ctx, outcomes([5] * 100, misses=9, flagged_hits=1))
    assert stats.flagged_trials == 1 and stats.error_rate == 0.1 and stats.bound_satisfied
    # every trial hit, but each ran to its cap: all of them are errors
    capped = _summarize(ctx, outcomes([5] * 100, flagged_hits=100))
    assert capped.flagged_trials == 100 and capped.error_rate == 1.0
    assert not capped.bound_satisfied
    # a flagged miss is one error, not two
    both = _summarize(ctx, outcomes([5] * 100, misses=10, flagged_misses=1))
    assert both.flagged_trials == 1 and both.error_rate == 0.11 and not both.bound_satisfied


def mean_around(ctx, side):
    """Outcomes whose mean is just inside (side 0) or just outside (side 1)
    bound + sem, and above the bound itself, with their summary."""
    bound = _theoretical_bound(ctx)
    # 50 trials at base and 50 at base + 2, a mean of floor(bound) and a
    # standard error of about 0.1; then one more query per step, trial by
    # trial, which moves the mean by 0.01 and the spread little
    queries = [math.floor(bound) - 1] * 50 + [math.floor(bound) + 1] * 50
    for step in range(300):
        queries[step % 100] += 1
        stats = _summarize(ctx, outcomes(queries))
        reach = bound + stats.extras["sem_queries"]
        if stats.mean_queries > bound and (stats.mean_queries > reach) == bool(side):
            return stats, bound, reach
    raise AssertionError("no query counts found")


@pytest.mark.parametrize("scenario", STOPPING)
def test_stopping_mean_just_inside_and_outside_bound_plus_sem(scenario):
    ctx = context(scenario, delta=0.1)
    inside, bound, reach = mean_around(ctx, 0)
    assert bound < inside.mean_queries <= reach and inside.bound_satisfied
    outside, bound, reach = mean_around(ctx, 1)
    assert outside.mean_queries > reach and not outside.bound_satisfied
