"""Graph search strategies driven by median queries and weight updates.

Three variants differ only in their SearchPlan (start weights, query cap,
stop threshold):

* a fixed-budget strategy that always spends its full budget and then
  declares the heaviest vertex (bounded error probability),
* a stopping strategy for a known prior that declares as soon as one
  vertex holds a 1-delta fraction of the weight (random length), and
* the same stopping strategy run from a uniform prior with a rescaled
  confidence threshold, which handles an adversarially placed target.

One engine, search(), drives them all. It runs a chunk of trials as the
rows of one (rows x n) weight matrix plus a per-row log2 total: per step,
one median per row (batched by prefix sums on path and grid layouts and
by preorder intervals on trees), one reply per row from that trial's own
oracle and rng in the per-trial draw order, and one multiply, row sum and
divide for the whole chunk (a neighbour reply at a light vertex first
scales its row by its reply set, graph.reply_set, which on a tree is one
preorder interval or its complement). Every row does the arithmetic a
lone trial would, in the same order, so a trial's transcript does not
depend on the chunk it ran in. The run_* functions are a chunk of one.
step_median_update is the dense single-state step built from
weighted_median, heavy_filter and bayesian_update; the invariant fuzzer
and the tests use it as the reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graph import DistanceMatrix, Graph, reply_set, weighted_median, weighted_medians
from .mathcore import Distribution, DomainError, NoiseParams, worst_case_budget_graph
from .oracle import Answer, GraphOracle, graph_reply, heavy_filter, reply_answer
from .weights import (
    WeightState,
    bayesian_update,
    init_from_distribution,
    init_uniform,
    is_heavy,
    log2_rest,
)

__all__ = [
    "QueryRecord",
    "SearchTranscript",
    "SearchPlan",
    "CHUNK_BYTES",
    "chunk_rows",
    "adversarial_plan",
    "lv_distributional_plan",
    "lv_adversarial_plan",
    "search",
    "step_median_update",
    "run_adversarial",
    "run_lv_distributional",
    "run_lv_adversarial",
    "rescaled_confidence",
]

# Bytes of one chunk's weight matrix (rows x n float64). The engine updates
# it in place, so it and the median's temporaries for the rows without a
# heavy vertex are the memory a chunk adds; 256 KiB is 32 rows at n = 1024.
CHUNK_BYTES = 256 << 10


def chunk_rows(n: int) -> int:
    """Trials per chunk on an n-vertex graph, at least one."""
    return max(1, CHUNK_BYTES // (8 * n))


@dataclass(frozen=True)
class QueryRecord:
    step: int
    query: int
    answer: Answer
    compatible_size: int


@dataclass
class SearchTranscript:
    """Full record of one run: what was asked, answered, and declared.

    weight_log, when tracking is on, holds per-step pairs of absolute log2
    weights: (mass outside the currently-heaviest element, mass of the
    realized target). Binary-search runs additionally fill the phase
    split, the marked candidate list, and per-epoch coupled-bound rows
    (step, coupled log2 bound, actual log2 unmarked mass).
    """

    declared: int
    query_count: int
    target_hit: bool
    queries: list[QueryRecord] | None = None
    flagged: bool = False
    weight_log: list[tuple[float, float]] | None = None
    final_target_log2: float | None = None
    phase_one_queries: int | None = None
    verify_queries: int | None = None
    marked: list[int] | None = None
    epoch_log: list[tuple[int, float, float]] | None = None
    completed_epochs: int | None = None


def step_median_update(
    state: WeightState,
    g: Graph,
    d: DistanceMatrix,
    oracle: GraphOracle,
    noise: NoiseParams,
) -> tuple[WeightState, int, Answer, int]:
    """Query the current weighted median, fold the answer into the weights.

    Returns (new state, queried vertex, answer, compatible-set size). The
    heavy filter is applied against the weights as they stood when the
    query was issued.
    """
    q = weighted_median(g, d, state)
    was_heavy = is_heavy(state, q, 0.5)
    answer = oracle.answer(q, state)
    compatible = heavy_filter(answer, q, was_heavy, g, d)
    new_state = bayesian_update(state, compatible, noise)
    return new_state, q, answer, compatible.size


@dataclass(frozen=True)
class SearchPlan:
    """What a graph strategy fixes before its first query.

    prior           start weights, summing to 1
    max_steps       query budget (fixed-budget) or hard cap (stopping)
    stop_threshold  declare once a vertex holds this weight share; None
                    spends the whole budget
    """

    prior: np.ndarray
    max_steps: int
    stop_threshold: float | None


def _check_delta(delta: float) -> None:
    if not 0.0 < delta < 0.5:
        raise DomainError(f"delta must satisfy 0 < delta < 1/2, got {delta}")


def adversarial_plan(
    n: int, noise: NoiseParams, delta: float, budget: int | None = None
) -> SearchPlan:
    """Uniform start, exactly Q median queries (the worst-case budget
    unless one is given), then the heaviest vertex."""
    _check_delta(delta)
    q_budget = budget if budget is not None else worst_case_budget_graph(n, noise, delta).q
    return SearchPlan(init_uniform(n).relative, q_budget, None)


def lv_distributional_plan(
    mu: Distribution, noise: NoiseParams, delta: float, cap_multiplier: float = 50.0
) -> SearchPlan:
    """Start at the prior, stop once a vertex holds 1-delta of the weight.

    The expected length is (log2(1/mu(target)) + log2(1/delta) + 1) divided
    by the information rate; the hard cap at cap_multiplier times the
    worst-target value of that bound converts pathological tails into
    flagged failures instead of hangs.
    """
    _check_delta(delta)
    prior = init_from_distribution(mu).relative
    worst_bits = -math.log2(float(prior.min()))
    cap = int(
        math.ceil(
            cap_multiplier * (worst_bits + math.log2(1.0 / delta) + 1.0) / noise.info_rate
        )
    )
    return SearchPlan(prior, cap, 1.0 - delta)


def lv_adversarial_plan(
    n: int,
    noise: NoiseParams,
    delta: float,
    c_prime: float = 64.0,
    cap_multiplier: float = 50.0,
) -> SearchPlan:
    """The stopping plan from a uniform prior at the rescaled confidence."""
    _check_delta(delta)
    return lv_distributional_plan(
        Distribution.uniform(n), noise, rescaled_confidence(n, delta, c_prime), cap_multiplier
    )


def search(
    g: Graph,
    noise: NoiseParams,
    plan: SearchPlan,
    oracles: Sequence[GraphOracle],
    record_queries: Sequence[bool] | None = None,
    track_weights: bool = False,
) -> list[SearchTranscript]:
    """Run one trial per oracle, all as rows of one weight matrix.

    The oracles share the graph, distances and noise policy; each keeps its
    own target and rng. record_queries says per trial whether to keep its
    QueryRecords; track_weights fills every weight_log. A stopping plan
    checks each row before each step and drops the rows that stop.
    """
    live = list(range(len(oracles)))
    if not live:
        return []
    d, policy, n = oracles[0].dist, oracles[0].policy, g.n
    lie_weights = policy.lie_choice == "adversarial-heaviest"
    record = list(record_queries) if record_queries is not None else [False] * len(live)
    p, keep, stop = noise.p, 1.0 - noise.p, plan.stop_threshold
    weights = np.tile(plan.prior, (len(live), 1))
    log2_totals = [0.0] * len(live)
    rows = np.arange(len(live))
    records = [[] if kept else None for kept in record]
    recording = any(record)
    wlogs = [[] if track_weights else None for _ in live]
    out: list[SearchTranscript] = [None] * len(live)  # type: ignore[list-item]
    step = 0
    while True:
        if track_weights:
            for i, r in enumerate(live):
                wlogs[r].append(_snapshot(weights[i], log2_totals[i], oracles[r].target))
        at_cap = step == plan.max_steps
        stopped = weights.max(axis=1) >= stop if stop is not None else None
        if at_cap or (stopped is not None and stopped.any()):
            done = [True] * len(live) if at_cap else stopped.tolist()
            for i, r in enumerate(live):
                if done[i]:
                    oracles[r].queries_answered += step
                    out[r] = _transcript(
                        weights[i], log2_totals[i], oracles[r].target, step, records[r],
                        wlogs[r], flagged=stopped is not None and not stopped[i],
                    )
            if all(done):
                return out
            going = [i for i, finished in enumerate(done) if not finished]
            weights = weights[going]
            log2_totals = [log2_totals[i] for i in going]
            live = [live[i] for i in going]
            rows = np.arange(len(live))
            recording = any(records[r] is not None for r in live)
        step += 1

        # Each row asks its median and hears its own oracle (its own rng, in
        # the per-trial draw order), then folds the reply in as heavy_filter
        # and bayesian_update would: kept weights scale by 1-p, the rest by
        # p. A yes keeps {q} and a no at a q holding half the weight keeps
        # all but q, so those rows scale by one factor off q and another at
        # q, all rows in one multiply. Any other reply u keeps its reply
        # set N(q, u), which leaves q out; such a row is scaled on its own,
        # and the chunk multiply passes it by with a factor 1.
        # weights is this loop's own array (np.tile or a fancy-index copy).
        qs = weighted_medians(g, d, weights)
        at_q = weights[rows, qs]
        replies, fill, at_q_mult = [], [], []
        for i, (q, w_q, r) in enumerate(zip(qs.tolist(), at_q.tolist(), live)):
            o = oracles[r]
            relative = weights[i] if lie_weights else None
            reply, truth = graph_reply(q, o.target, g, d, policy, o.rng, relative)
            if reply == q:
                fill.append(p)
                at_q_mult.append(keep)
                size = 1
            elif w_q >= 0.5:
                fill.append(keep)
                at_q_mult.append(p)
                size = n - 1
            else:
                closer = reply_set(g, d, q, reply)
                weights[i] *= np.where(closer, keep, p)
                fill.append(1.0)
                at_q_mult.append(p)
                size = int(closer.sum()) if recording else 0
            replies.append((reply, truth, size))
        weights *= np.array(fill)[:, None]
        weights[rows, qs] = at_q * at_q_mult
        totals = weights.sum(axis=1)
        if not (totals > 0.0).all():
            raise DomainError("update annihilated all weight mass")
        weights /= totals[:, None]
        log2_totals = [a + math.log2(t) for a, t in zip(log2_totals, totals.tolist())]

        if recording:
            for i, r in enumerate(live):
                if records[r] is not None:
                    q = int(qs[i])
                    reply, truth, size = replies[i]
                    records[r].append(QueryRecord(step, q, reply_answer(q, reply, truth), size))


def _snapshot(relative: np.ndarray, log2_total: float, target: int) -> tuple[float, float]:
    return log2_rest(relative, log2_total), math.log2(relative[target]) + float(log2_total)


def _transcript(
    relative: np.ndarray,
    log2_total: float,
    target: int,
    steps: int,
    records: list[QueryRecord] | None,
    wlog: list | None,
    flagged: bool,
) -> SearchTranscript:
    declared = int(np.argmax(relative))
    mass = float(relative[target])
    return SearchTranscript(
        declared=declared,
        query_count=steps,
        target_hit=declared == target,
        queries=records,
        flagged=bool(flagged),
        weight_log=wlog,
        final_target_log2=math.log2(mass) + float(log2_total) if mass > 0.0 else float("-inf"),
    )


def run_adversarial(
    g: Graph,
    noise: NoiseParams,
    delta: float,
    oracle: GraphOracle,
    budget: int | None = None,
    record_queries: bool = True,
    track_weights: bool = False,
) -> SearchTranscript:
    """Fixed-budget search: uniform start, exactly Q median queries,
    declare the heaviest vertex."""
    plan = adversarial_plan(g.n, noise, delta, budget)
    return search(g, noise, plan, [oracle], [record_queries], track_weights)[0]


def run_lv_distributional(
    g: Graph,
    mu: Distribution,
    noise: NoiseParams,
    delta: float,
    oracle: GraphOracle,
    cap_multiplier: float = 50.0,
    record_queries: bool = True,
    track_weights: bool = False,
) -> SearchTranscript:
    """Stopping search from a prior: declare once a vertex holds 1-delta
    of the weight; a cap hit comes back flagged (see lv_distributional_plan)."""
    plan = lv_distributional_plan(mu, noise, delta, cap_multiplier)
    return search(g, noise, plan, [oracle], [record_queries], track_weights)[0]


def rescaled_confidence(n: int, delta: float, c_prime: float = 64.0) -> float:
    """Tightened stop threshold for the adversarial stopping strategy.

    delta' = min(1/3, delta^2 / (c_prime * (log2 n + log2(1/delta))^2)).
    The square and the division by the squared log term pay for a union
    bound over the near-declarations a wrong vertex can survive.
    """
    if c_prime <= 0.0:
        raise DomainError(f"c_prime must be positive, got {c_prime}")
    denom = c_prime * (math.log2(max(n, 1)) + math.log2(1.0 / delta)) ** 2
    return min(1.0 / 3.0, delta * delta / denom)


def run_lv_adversarial(
    g: Graph,
    noise: NoiseParams,
    delta: float,
    oracle: GraphOracle,
    c_prime: float = 64.0,
    cap_multiplier: float = 50.0,
    record_queries: bool = True,
    track_weights: bool = False,
) -> SearchTranscript:
    """Stopping search without a prior: uniform start, tightened threshold."""
    plan = lv_adversarial_plan(g.n, noise, delta, c_prime, cap_multiplier)
    return search(g, noise, plan, [oracle], [record_queries], track_weights)[0]
