"""Graph search strategies driven by median queries and weight updates.

Three variants differ only in their SearchPlan (start weights, query cap,
stop threshold):

* a fixed-budget strategy that always spends its full budget and then
  declares the heaviest vertex (bounded error probability),
* a stopping strategy for a known prior that declares as soon as one
  vertex holds a 1-delta fraction of the weight (random length), and
* the same stopping strategy run from a uniform prior with a rescaled
  confidence threshold, which handles an adversarially placed target.

One engine, search(), drives them all. It runs a chunk of trials, each
with its own step count: the trials in which no vertex holds more than
half the weight step together as the rows of one weight matrix, and a
trial in which one vertex does leaves the matrix and runs ahead on its
own, as two numbers, until it ends or rejoins (see search). Every trial
does the arithmetic a lone trial would, in the same order, so its
transcript does not depend on the chunk it ran in. The run_* functions
are a chunk of one, and so is each transcript of the invariant fuzzer
(fuzz.fuzz_graph_invariants), which reads the weight-drop laws off
track_weights' weight_log.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

# weighted_median, heavy_filter, bayesian_update: unused, bound for bench/tracer.py (ROADMAP item 1)
from .graph import (
    Graph,
    _is_grid,
    grid_cut,
    grid_medians,
    scale_by_reply_set,
    scale_grid_lines,
    weighted_median,
    weighted_medians,
)
from .mathcore import (
    CAP_MULTIPLIER,
    Distribution,
    DomainError,
    NoiseParams,
    check_delta,
    worst_case_budget_graph,
)
from .oracle import (
    Answer,
    GraphOracle,
    _truthful_reply,
    graph_reply,
    heavy_filter,
    heavy_lie,
    reply_answer,
    truthful_choices,
)
from .weights import bayesian_update, init_from_distribution, init_uniform, log2_rest

__all__ = [
    "QueryRecord",
    "SearchTranscript",
    "SearchPlan",
    "CHUNK_BYTES",
    "HEAVY_SHARE",
    "chunk_rows",
    "adversarial_plan",
    "lv_distributional_plan",
    "lv_adversarial_plan",
    "search",
    "run_adversarial",
    "run_lv_distributional",
    "run_lv_adversarial",
    "rescaled_confidence",
]

# Bytes of one chunk's weight matrix (rows x n float64). The engine updates
# it in place, so it and the median's temporaries for the rows without a
# heavy vertex are the memory a chunk adds; 256 KiB is 32 rows at n = 1024.
CHUNK_BYTES = 256 << 10


# A trial whose top share is above this is carried as two numbers (see
# search); weighted_medians takes that top vertex as the row's median.
HEAVY_SHARE = 0.5 + 1e-9


def chunk_rows(n: int) -> int:
    """Trials per chunk on an n-vertex graph, at least one."""
    return max(1, CHUNK_BYTES // (8 * n))


@dataclass(frozen=True)
class QueryRecord:
    """One query of a recorded trial: its 1-based step, the vertex asked
    and the answer heard."""

    step: int
    query: int
    answer: Answer


@dataclass
class SearchTranscript:
    """Full record of one run: what was asked, answered, and declared.

    queries, for a recorded trial, holds one QueryRecord per query.
    weight_log, when tracking is on, holds one entry per step, before its
    query, and one after the last: (log2 of the absolute mass outside the
    heaviest vertex, log2 of the target's absolute mass, log2 of the
    absolute total, the heavy vertex: the top vertex when its share is at
    least 1/2, as heavy_filter reads it, else None). Binary-search runs
    additionally fill the phase split (phase_one_queries, verify_queries),
    the marked candidate list, and per-epoch coupled-bound rows (step,
    coupled log2 bound, actual log2 unmarked mass).
    """

    declared: int
    query_count: int
    target_hit: bool
    queries: list[QueryRecord] | None = None
    flagged: bool = False
    weight_log: list[tuple[float, float, float, int | None]] | None = None
    final_target_log2: float | None = None
    phase_one_queries: int | None = None
    verify_queries: int | None = None
    marked: list[int] | None = None
    epoch_log: list[tuple[int, float, float]] | None = None
    completed_epochs: int | None = None


@dataclass(frozen=True)
class SearchPlan:
    """What a graph strategy fixes before its first query.

    prior           start weights, summing to 1
    max_steps       query budget (fixed-budget) or hard cap (stopping)
    stop_threshold  declare once a vertex holds this weight share, which
                    must be above HEAVY_SHARE; None spends the whole budget
    """

    prior: np.ndarray
    max_steps: int
    stop_threshold: float | None

    def __post_init__(self) -> None:
        # search checks the stop rule on heavy rows only
        if self.stop_threshold is not None and not self.stop_threshold > HEAVY_SHARE:
            raise DomainError(
                f"stop threshold must be above {HEAVY_SHARE}, got {self.stop_threshold}"
            )


def adversarial_plan(
    n: int, noise: NoiseParams, delta: float, budget: int | None = None
) -> SearchPlan:
    """Uniform start, exactly Q median queries (the worst-case budget
    unless one is given), then the heaviest vertex."""
    check_delta(delta)
    q_budget = budget if budget is not None else worst_case_budget_graph(n, noise, delta).q
    return SearchPlan(init_uniform(n).relative, q_budget, None)


def lv_distributional_plan(mu: Distribution, noise: NoiseParams, delta: float) -> SearchPlan:
    """Start at the prior, stop once a vertex holds 1-delta of the weight.

    The expected length is (log2(1/mu(target)) + log2(1/delta) + 1) divided
    by the information rate; the hard cap at CAP_MULTIPLIER times the
    worst-target value of that bound converts pathological tails into
    flagged failures instead of hangs.
    """
    check_delta(delta)
    if not 1.0 - delta > HEAVY_SHARE:
        # the stop threshold 1 - delta must be above HEAVY_SHARE (SearchPlan)
        raise DomainError(
            f"a stopping search needs 1 - delta above {HEAVY_SHARE}, got delta = {delta}"
        )
    prior = init_from_distribution(mu).relative
    worst_bits = -math.log2(float(prior.min()))
    cap = int(
        math.ceil(
            CAP_MULTIPLIER * (worst_bits + math.log2(1.0 / delta) + 1.0) / noise.info_rate
        )
    )
    return SearchPlan(prior, cap, 1.0 - delta)


def lv_adversarial_plan(
    n: int, noise: NoiseParams, delta: float, c_prime: float = 64.0
) -> SearchPlan:
    """The stopping plan from a uniform prior at the rescaled confidence."""
    check_delta(delta)
    return lv_distributional_plan(
        Distribution.uniform(n), noise, rescaled_confidence(n, delta, c_prime)
    )


def search(
    g: Graph,
    noise: NoiseParams,
    plan: SearchPlan,
    oracles: Sequence[GraphOracle],
    record_queries: Sequence[bool] | None = None,
    track_weights: bool = False,
) -> list[SearchTranscript]:
    """Run one trial per oracle, all in one chunk.

    The oracles share the graph, distances and noise policy; each keeps its
    own target and rng. record_queries says per trial whether to keep its
    QueryRecords; track_weights fills every weight_log. Each trial keeps
    its own step count, ends at the cap or, under a stopping plan, once its
    top share reaches the stop threshold.

    Columns: on a tree (d.tree, paths included) column i of every weight
    row weighs the vertex at preorder position i (d.tree.order[i]), and
    on other graphs vertex i. Positions become vertex ids only where an
    oracle, a query record or a transcript needs them; snapshots and row
    sums add up in column order.

    Light rows: a trial whose top share is HEAVY_SHARE or below is a row
    of one (light rows x n) weight matrix with a per-trial log2 total. A
    step takes one median per row (grid_medians on grid layouts, from
    each row's two cost lines; TreeIndex.medians, with no gather, on
    trees) and one multiply, row sum and divide for all rows; a
    neighbour reply at a light vertex first scales its row by its reply
    set (three slices on a tree, a mask elsewhere). On a grid the reply
    sets and the yes/no factors of all rows are one kernel instead: each
    row records a cut and two factors along the grid's rows or columns
    (grid_cut), and two broadcast multiplies (scale_grid_lines) scale the
    whole matrix, each weight by its factor and by 1.0, bit for bit as
    one multiply. A row at its cap ends there.

    Heavy runs: a row whose top share rises above HEAVY_SHARE leaves the
    matrix, and one scalar loop (run_heavy below) runs that trial ahead on
    its own. Its top vertex h is its median, and a reply at h reads as yes or
    "not h", so the trial is carried as h and the share rest outside it;
    its dense row stays frozen as it was when it turned heavy. The loop
    steps until the trial stops, reaches the cap, or h's share falls to
    HEAVY_SHARE or below; then the frozen row, scaled to the new rest and
    with h set, rejoins the matrix at its own step count. Only a heavy
    trial can stop, since every stop threshold is above HEAVY_SHARE.

    Draw order: each trial hears its own oracle, which takes its uniforms
    in blocks from its own rng and spends them in the order of
    oracle.graph_reply: tiebreak, noise coin, lie. Every trial does the
    arithmetic a lone trial would, in the same order, so its transcript
    does not depend on the chunk it ran in.
    """
    k = len(oracles)
    if not k:
        return []
    d, policy = oracles[0].dist, oracles[0].policy
    tree = d.tree
    grid = _is_grid(g)
    order = None if tree is None else tree.order
    # the column of each trial's target
    target_cols = [o.target if tree is None else int(tree.start[o.target]) for o in oracles]
    lie_weights = policy.lie_choice == "adversarial-heaviest"
    record = list(record_queries) if record_queries is not None else [False] * k
    p, keep, cap, stop = noise.p, 1.0 - noise.p, plan.max_steps, plan.stop_threshold
    # the oracles' lie rate (policy.p) may differ from the update's (noise.p)
    lie_p, log2 = policy.p, math.log2
    records = [[] if kept else None for kept in record]
    wlogs = [[] if track_weights else None for _ in range(k)]
    out: list[SearchTranscript] = [None] * k  # type: ignore[list-item]
    log2_totals = [0.0] * k
    steps = [0] * k

    def run_heavy(r: int, row: np.ndarray, col: int) -> np.ndarray | None:
        """Run trial r, whose row holds the vertex h in column col above
        HEAVY_SHARE, step by step at h: snapshot, cap and stop checks, reply,
        two-number update, log2 total. Returns its rebuilt dense row once
        h's share falls to HEAVY_SHARE or below, None once the trial has
        ended."""
        o, rec, wlog, tcol = oracles[r], records[r], wlogs[r], target_cols[r]
        target, coin = o.target, o.coin
        h = col if order is None else int(order[col])
        frozen = row.copy()
        frozen[col] = 0.0
        # the share outside h, summed, so a rest too small to show in
        # 1 - share is kept
        rest = rest0 = float(frozen.sum())
        choices = truthful_choices(h, target, g, d, policy)
        truthful = choices[0] if len(choices) == 1 else None
        step, log2_total = steps[r], log2_totals[r]
        while True:
            if wlog is not None:
                wlog.append(
                    _snapshot(_heavy_row(frozen, rest0, rest, col), log2_total, tcol, order)
                )
            share = 1.0 - rest
            stopped = stop is not None and share >= stop
            if step == cap or stopped:
                o.queries_answered += step
                out[r] = _transcript(
                    _heavy_row(frozen, rest0, rest, col, order), log2_total, target, step,
                    rec, wlog, flagged=stop is not None and not stopped,
                )
                return None
            if share <= HEAVY_SHARE:
                steps[r], log2_totals[r] = step, log2_total
                return _heavy_row(frozen, rest0, rest, col)
            step += 1
            # the reply as graph_reply gives it: truth, noise coin, lie
            truth = truthful
            if truth is None:
                truth = _truthful_reply(h, target, g, d, policy, coin)
            reply = truth
            if coin() < lie_p:
                build = None
                if rec is not None:
                    build = functools.partial(_heavy_row, frozen, rest0, rest, col, order)
                reply = heavy_lie(h, truth, g, d, policy, coin, build)
            # as heavy_filter and bayesian_update would: a yes keeps {h} and
            # a no all but h; kept mass scales by 1-p and the rest by p
            if reply == h:
                total = share * keep + rest * p
                rest = rest * p / total
            else:
                total = share * p + rest * keep
                rest = rest * keep / total
            if not total > 0.0:
                raise DomainError("update annihilated all weight mass")
            log2_total += log2(total)
            if rec is not None:
                rec.append(QueryRecord(step, h, reply_answer(h, reply, truth)))

    # a light row's factor for the chunk multiply after a yes and after a
    # no at its median; on a grid its line factors (grid_cut) instead
    yes_factor, no_factor = p, keep
    if grid:
        yes_factor, no_factor = (0, p, p, 0, 1.0, 1.0), (0, keep, keep, 0, 1.0, 1.0)

    # the light trials, in the order of their rows in weights
    prior = plan.prior if order is None else plan.prior[order]
    weights, light = np.tile(prior, (k, 1)), list(range(k))
    while True:
        # every row of weights has just folded in a reply (or is a prior):
        # it leaves for a heavy run, ends at its cap, or steps on
        tops = weights.argmax(axis=1)
        heavy = (weights[np.arange(len(light)), tops] > HEAVY_SHARE).tolist()
        kept, thawed = [], []
        for i, r in enumerate(light):
            if heavy[i]:
                row = run_heavy(r, weights[i], int(tops[i]))
                if row is not None:
                    thawed.append((r, row))
                continue
            if track_weights:
                wlogs[r].append(_snapshot(weights[i], log2_totals[r], target_cols[r], order))
            if steps[r] == cap:
                oracles[r].queries_answered += cap
                out[r] = _transcript(
                    _in_vertex_order(weights[i], order), log2_totals[r], oracles[r].target,
                    cap, records[r], wlogs[r], flagged=stop is not None,
                )
            else:
                kept.append(i)
        if len(kept) < len(light):
            weights, light, tops = weights[kept], [light[i] for i in kept], tops[kept]
        if thawed:
            rebuilt = np.stack([row for _, row in thawed])
            weights = np.concatenate([weights, rebuilt])
            tops = np.concatenate([tops, rebuilt.argmax(axis=1)])
            light = light + [r for r, _ in thawed]
        if not light:
            return out

        # Each light row asks its median and hears its own oracle, then
        # folds the reply in as heavy_filter and bayesian_update would:
        # kept weights scale by 1-p, the rest by p. A yes keeps {q} and a no
        # at a q holding half the weight keeps all but q, so those rows
        # scale by one factor off q and another at q, all rows in one
        # multiply. Any other reply u keeps its reply set N(q, u), which
        # leaves q out; on a tree or a graph without a layout such a row is
        # scaled on its own, and the chunk multiply passes it by with a
        # factor 1. On a grid every row instead records its factors along
        # the grid's rows and columns (grid_cut), and two broadcast
        # multiplies scale the whole matrix. weights is this loop's own
        # C-contiguous array (np.tile, a fancy-index copy or a
        # concatenation). qs are the medians' columns; every row here is
        # light.
        rows = np.arange(len(light))
        if tree is not None:
            qs = tree.medians(weights)
            vertices = order[qs].tolist()
        elif grid:
            qs = grid_medians(g, weights)
            vertices = qs.tolist()
        else:
            qs = weighted_medians(g, d, weights, tops)
            vertices = qs.tolist()
        at_q = weights[rows, qs]
        factors, at_q_mult = [], []
        for i, (q, w_q, r) in enumerate(zip(vertices, at_q.tolist(), light)):
            o = oracles[r]
            steps[r] += 1
            build = functools.partial(_in_vertex_order, weights[i], order) if lie_weights else None
            reply, truth = graph_reply(q, o.target, g, d, policy, o.coin, build)
            if reply == q:
                factor, at_f = yes_factor, keep
            elif w_q >= 0.5:
                factor, at_f = no_factor, p
            elif grid:
                factor, at_f = grid_cut(g, q, reply, keep, p), p
            else:
                if tree is None:
                    scale_by_reply_set(g, d, weights[i], q, reply, keep, p)
                else:
                    tree.scale(weights[i], q, reply, keep, p)
                factor, at_f = 1.0, p
            factors.append(factor)
            at_q_mult.append(at_f)
            if records[r] is not None:
                records[r].append(QueryRecord(steps[r], q, reply_answer(q, reply, truth)))
        if grid:
            scale_grid_lines(g, weights, factors)
        else:
            weights *= np.array(factors)[:, None]
        weights[rows, qs] = at_q * at_q_mult
        totals = weights.sum(axis=1)
        if not (totals > 0.0).all():
            raise DomainError("update annihilated all weight mass")
        weights /= totals[:, None]
        for r, t in zip(light, totals.tolist()):
            log2_totals[r] += log2(t)


def _heavy_row(
    frozen: np.ndarray, rest0: float, rest: float, col: int, order: np.ndarray | None = None
) -> np.ndarray:
    """The dense row of a heavy trial: frozen (its row when h, in column
    col, turned heavy, with 0 there, summing to rest0) scaled to the share
    rest, with h set; in vertex order when the columns' order is given."""
    row = frozen * (rest / rest0 if rest0 > 0.0 else 0.0)
    row[col] = 1.0 - rest
    return _in_vertex_order(row, order)


def _in_vertex_order(row: np.ndarray, order: np.ndarray | None) -> np.ndarray:
    """A weight row whose column i weighs vertex order[i], over vertex ids
    (row itself when order is None)."""
    if order is None:
        return row
    out = np.empty_like(row)
    out[order] = row
    return out


def _snapshot(
    row: np.ndarray, log2_total: float, target_col: int, order: np.ndarray | None
) -> tuple[float, float, float, int | None]:
    """A weight_log entry from a row in the engine's columns (see
    SearchTranscript), its heavy column mapped back to a vertex id."""
    top = int(np.argmax(row))
    heavy = None if row[top] < 0.5 else top if order is None else int(order[top])
    log2_total = float(log2_total)
    return log2_rest(row, log2_total), math.log2(row[target_col]) + log2_total, log2_total, heavy


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
    record_queries: bool = True,
    track_weights: bool = False,
) -> SearchTranscript:
    """Stopping search from a prior: declare once a vertex holds 1-delta
    of the weight; a cap hit comes back flagged (see lv_distributional_plan)."""
    plan = lv_distributional_plan(mu, noise, delta)
    return search(g, noise, plan, [oracle], [record_queries], track_weights)[0]


def rescaled_confidence(n: int, delta: float, c_prime: float = 64.0) -> float:
    """Tightened stop threshold for the adversarial stopping strategy.

    delta' = min(1/3, delta^2 / (c_prime * (log2 n + log2(1/delta))^2)).
    The square and the division by the squared log term pay for a union
    bound over the near-declarations a wrong vertex can survive.
    """
    if not 0.0 < c_prime < math.inf:
        raise DomainError(f"c_prime must be positive and finite, got {c_prime}")
    denom = c_prime * (math.log2(max(n, 1)) + math.log2(1.0 / delta)) ** 2
    return min(1.0 / 3.0, delta * delta / denom)


def run_lv_adversarial(
    g: Graph,
    noise: NoiseParams,
    delta: float,
    oracle: GraphOracle,
    c_prime: float = 64.0,
    record_queries: bool = True,
    track_weights: bool = False,
) -> SearchTranscript:
    """Stopping search without a prior: uniform start, tightened threshold."""
    plan = lv_adversarial_plan(g.n, noise, delta, c_prime)
    return search(g, noise, plan, [oracle], [record_queries], track_weights)[0]
