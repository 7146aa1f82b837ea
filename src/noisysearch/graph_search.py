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
half the weight step together as the light rows of one store (a step
function per row on a tree, two lines and a few points on a grid under a
uniform prior, one dense weight matrix otherwise), and a trial in which
one vertex does leaves the store and runs ahead on its own, as two
numbers, until it ends or rejoins (see search). Every trial
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
    HEAVY_SHARE,
    Graph,
    reply_set,
    row_cache_bytes,
    weighted_median,
    weighted_medians,
)
from .grid_rows import GridRows, close_gaps
from .tree_rows import TreeRows
from .mathcore import (
    Ceiling,
    Distribution,
    DomainError,
    NoiseParams,
    check_delta,
    worst_case_budget_graph,
)
from .oracle import (
    NEIGHBOR,
    Answer,
    GraphOracle,
    _truthful_reply,
    graph_reply,
    heavy_filter,
    heavy_lie,
    reply_answer,
    row_masses,
    truthful_choices,
)
from .weights import bayesian_update, init_from_distribution, init_uniform, log2_rest

__all__ = [
    "QueryRecord",
    "SearchTranscript",
    "SearchPlan",
    "CHUNK_BYTES",
    "HEAVY_SHARE",
    "row_store",
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

# Bytes of one chunk's light rows. A dense row is n float64 words: 1 MiB is
# 128 rows at n = 1024 and 64 at n = 2048, and search allocates the matrix
# once and updates it in place, so it and the rows that thaw in one pass
# are the matrices a chunk adds; a grid under a non-uniform prior is held
# so. A tree chunk takes the same number of rows, though a step-function
# row (tree_rows.TreeRows) holds a few segments: its passes cost per row,
# and the 120 trials of a tree-stop run read the same CPU time as one chunk
# or as two of 64 and 56. A grid row under a uniform prior is two lines, a
# scalar and a few points (GridRows.row_words): 73 words on a 32x32 grid,
# so 1795 rows, and the 400 trials of a benchmark run are one chunk. A
# light pass costs a fixed part, the numpy calls of its median and update,
# plus a part per row. On a 32x32 grid at p = 0.3 (least squares
# over the passes of 400 trials on a shared 2-core machine) the dense
# matrix cost about 81 us plus 11.6 us a row and took 238 passes of 49.9
# rows; the factored rows cost about 230 to 400 us plus 2.5 to 3.6 us a
# row (three fits) and take 67 passes of 177.5 rows.
CHUNK_BYTES = 1 << 20


def row_store(tree: bool, grid_shape: tuple[int, int] | None, uniform: bool) -> type:
    """The store of a chunk's light rows, from whether the graph is a tree,
    its grid shape (None off a grid) and whether the prior is uniform: on a
    tree, whose reply sets are preorder intervals, a step function a row
    (tree_rows.TreeRows); on a grid under a uniform prior, whose reply sets
    are half-planes, two lines a row (grid_rows.GridRows); else one dense
    matrix (_DenseRows). search builds it (build(g, prior, k, p)); the
    harness sizes chunks by its row_words(n, shape) and checks memory by
    its chunk_bytes(n, k, shape), the bytes of a chunk of k rows."""
    if tree:
        return TreeRows
    return GridRows if grid_shape is not None and uniform else _DenseRows


def graph_store(g: Graph, prior: np.ndarray) -> type:
    """row_store for graph g and a chunk's prior."""
    return row_store(g.tree is not None, g.grid_shape, bool((prior == prior[0]).all()))


def chunk_rows(store: type, n: int, grid_shape: tuple[int, int] | None = None) -> int:
    """Trials a chunk of store holds at n: CHUNK_BYTES over a row, or one."""
    return max(1, CHUNK_BYTES // (8 * store.row_words(n, grid_shape)))


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
    ceiling         a stopping plan's expected length (None: fixed budget)
    """

    prior: np.ndarray
    max_steps: int
    stop_threshold: float | None
    ceiling: Ceiling | None = None

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

    The expected length is ceiling(log2(1/mu(target))), that is
    (log2(1/mu(target)) + log2(1/delta) + 1) divided by the information
    rate; the hard cap at CAP_MULTIPLIER times its worst-target value
    converts pathological tails into flagged failures instead of hangs.
    """
    check_delta(delta)
    if not 1.0 - delta > HEAVY_SHARE:
        # the stop threshold 1 - delta must be above HEAVY_SHARE (SearchPlan)
        raise DomainError(
            f"a stopping search needs 1 - delta above {HEAVY_SHARE}, got delta = {delta}"
        )
    prior = init_from_distribution(mu).relative
    ceiling = Ceiling(delta, 1.0, noise.info_rate)
    return SearchPlan(prior, ceiling.cap(-math.log2(float(prior.min()))), 1.0 - delta, ceiling)


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

    The oracles share the graph, which holds its rows and tree index, and
    the noise policy; each keeps its own target and rng. record_queries says
    per trial whether to keep its QueryRecords; track_weights fills every
    weight_log. Each trial keeps its own step count, ends at the cap or,
    under a stopping plan, once its top share reaches the stop threshold.

    Vertex ids: search speaks to its light-row store (rows below) and to a
    frozen heavy row only in vertex ids. A store's tops() gives each row's
    heavy flag and top vertex, medians() each row's median vertex,
    update(qs, replies) folds reply replies[i] at vertex qs[i] into row i
    and gives each row's total before the divide, row(i) builds row i
    densely over vertex ids, reply_masses(i, q, replies) gives the mass of
    each reply's set at any vertex q in row i, which an adversarial lie
    reads with i bound (oracle.Masses), freeze(i, h) keeps row i for a
    heavy run at its top vertex h, and regroup(gone, thawed) drops rows and
    appends thawed ones.
    A frozen row gives h, rest0, its weight outside h, row, its dense row
    with 0 at h, and thaw(rest). Snapshots and declarations read rows over
    vertex ids, so their sums add up in vertex order.

    Light rows: a trial whose top share is HEAVY_SHARE or below is a light
    row of the chunk, with a per-trial log2 total, in the store that
    row_store picks. A pass takes one median per row, one reply per row,
    and one update for all rows. A tree row's one walk up the tree a pass
    gives both its median and its heavy flag (a vertex above half the
    weight is the median), and an update scales a run of its segments; a
    grid row's medians come from its row and column marginals, and a cut
    scales one line. Both read reply masses off their own form, and build
    a row densely only for a snapshot or a declaration; a recorded heavy
    run builds its row for a lie that reads its masses (oracle.row_masses).
    A dense chunk takes medians by descent or from cost lines, scales a row
    by its reply set's mask for a neighbour reply at a light vertex, and
    folds in the rest with one multiply, row sum and divide. A row at its
    cap ends there.

    Heavy runs: a row whose top share rises above HEAVY_SHARE leaves the
    light rows, and one scalar loop (run_heavy below) runs that trial ahead
    on its own. Its top vertex h is its median, and a reply at h reads as
    yes or "not h", so the trial is carried as h and the share rest outside
    it; its row stays frozen as it was when it turned heavy. The loop
    steps until the trial stops, reaches the cap, or h's share falls to
    HEAVY_SHARE or below; then the frozen row, scaled to the new rest and
    with h set, rejoins the light rows at its own step count. Only a heavy
    trial can stop, since every stop threshold is above HEAVY_SHARE.
    When h is the target the truth there is yes, and a lie is a neighbour
    that the update reads only as "not h". An unrecorded trial does not
    name it: it skips heavy_lie and spends the uniforms that heavy_lie
    would, one for a uniform-wrong lie's index and none for an
    adversarial-heaviest one (which heavy_lie leaves unnamed without
    masses). So the trial draws the coins of graph_reply, in its order,
    and hears what a recorded run of it hears.

    Draw order: each trial hears its own oracle, which takes its uniforms
    in blocks from its own rng and spends them in the order of
    oracle.graph_reply: tiebreak, noise coin, lie. Every trial does the
    arithmetic a lone trial would, in the same order, so its transcript
    does not depend on the chunk it ran in.
    """
    k = len(oracles)
    if not k:
        return []
    policy = oracles[0].policy
    adversarial = policy.lie_choice == "adversarial-heaviest"
    record = list(record_queries) if record_queries is not None else [False] * k
    p, keep, cap, stop = noise.p, 1.0 - noise.p, plan.max_steps, plan.stop_threshold
    # the oracles' lie rate (policy.p) may differ from the update's (noise.p)
    lie_p, log2 = policy.p, math.log2
    records = [[] if kept else None for kept in record]
    wlogs = [[] if track_weights else None for _ in range(k)]
    out: list[SearchTranscript] = [None] * k  # type: ignore[list-item]
    log2_totals = [0.0] * k
    steps = [0] * k

    def run_heavy(r: int, frozen):
        """Run trial r, whose frozen row (TreeFrozen, GridFrozen or
        _DenseFrozen) holds its top vertex frozen.h above HEAVY_SHARE, step
        by step at h: snapshot, cap and stop checks, reply, two-number
        update, log2 total; a lie at a yes truth goes unnamed when the
        trial is not recorded (see above). Returns its thawed row once h's
        share falls to HEAVY_SHARE or below, None once the trial has
        ended."""
        o, rec, wlog = oracles[r], records[r], wlogs[r]
        target, coin = o.target, o.coin
        h = frozen.h

        def heavy_row(rest: float) -> np.ndarray:
            return _heavy_row(frozen.row, frozen.rest0, rest, h)

        def masses(q: int, replies: list[int]) -> list[float]:
            # the row at the current rest, built only when a lie reads it
            return row_masses(g, heavy_row(rest))(q, replies)

        # the share outside h, kept as such, so a rest too small to show
        # in 1 - share is kept
        rest = frozen.rest0
        choices = truthful_choices(h, target, g, policy)
        truthful = choices[0] if len(choices) == 1 else None
        # a lie at a yes truth is a neighbour, read only as "not h"
        unnamed = rec is None and truthful == h and bool(g.adjacency[h])
        step, log2_total = steps[r], log2_totals[r]
        while True:
            if wlog is not None:
                wlog.append(_snapshot(heavy_row(rest), log2_total, target))
            share = 1.0 - rest
            stopped = stop is not None and share >= stop
            if step == cap or stopped:
                o.queries_answered += step
                out[r] = _transcript(
                    heavy_row(rest), log2_total, target, step, rec, wlog,
                    flagged=stop is not None and not stopped,
                )
                return None
            if share <= HEAVY_SHARE:
                steps[r], log2_totals[r] = step, log2_total
                return frozen.thaw(rest)
            step += 1
            # the reply as graph_reply gives it: truth, noise coin, lie
            truth = truthful
            if truth is None:
                truth = _truthful_reply(h, target, g, policy, coin)
            reply = truth
            if coin() < lie_p:
                if unnamed:
                    if not adversarial:
                        coin()
                    reply = NEIGHBOR
                else:
                    reply = heavy_lie(h, truth, g, policy, coin, None if rec is None else masses)
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

    rows = graph_store(g, plan.prior).build(g, plan.prior, k, p)
    # the light trials, in the order of their rows
    light = list(range(k))
    while True:
        # every live row has just folded in a reply (or is a prior): it
        # leaves for a heavy run, ends at its cap, or steps on
        heavy, tops = rows.tops()
        gone, stay, thawed = [], [], []
        for i, r in enumerate(light):
            if heavy[i]:
                gone.append(i)
                row = run_heavy(r, rows.freeze(i, int(tops[i])))
                if row is not None:
                    thawed.append((r, row))
                continue
            if track_weights:
                wlogs[r].append(_snapshot(rows.row(i), log2_totals[r], oracles[r].target))
            if steps[r] == cap:
                gone.append(i)
                oracles[r].queries_answered += cap
                out[r] = _transcript(
                    rows.row(i), log2_totals[r], oracles[r].target,
                    cap, records[r], wlogs[r], flagged=stop is not None,
                )
            else:
                stay.append(r)
        rows.regroup(gone, [row for _, row in thawed])
        light = stay + [r for r, _ in thawed]
        if not light:
            return out

        # Each light row asks its median and hears its own oracle, then
        # the rows fold their replies in, all at once (rows.update).
        qs = rows.medians()
        replies = []
        for i, (q, r) in enumerate(zip(qs.tolist(), light)):
            o = oracles[r]
            steps[r] += 1
            masses = functools.partial(rows.reply_masses, i) if adversarial else None
            reply, truth = graph_reply(q, o.target, g, policy, o.coin, masses)
            replies.append(reply)
            if records[r] is not None:
                records[r].append(QueryRecord(steps[r], q, reply_answer(q, reply, truth)))
        totals = rows.update(qs, replies)
        for r, t in zip(light, totals.tolist()):
            log2_totals[r] += log2(t)


class _DenseRows:
    """The light rows of a chunk that row_store holds densely: one
    C-contiguous weight matrix over vertex ids, allocated once, k rows by n, whose first
    m rows are the light ones, updated in place. A row that leaves closes
    its gap as the later rows move down, in order (grid_rows.close_gaps),
    and a row that thaws is written after them."""

    def __init__(self, g: Graph, prior: np.ndarray, k: int, p: float):
        self.g, self.p = g, p
        self.buf, self.m = np.tile(prior, (k, 1)), k

    @classmethod
    def build(cls, g: Graph, prior: np.ndarray, k: int, p: float) -> "_DenseRows":
        return cls(g, prior, k, p)

    @staticmethod
    def row_words(n: int, shape=None) -> int:
        return n

    @staticmethod
    def chunk_bytes(n: int, k: int, shape=None) -> int:
        """The matrix and the rows that thaw in one pass, two words a cell,
        and the distance rows the graph caches for medians and updates
        (graph.row_cache_bytes; none on a grid)."""
        return 16 * n * k + (0 if shape else row_cache_bytes(n))

    def tops(self) -> tuple[list[bool], np.ndarray]:
        weights = self.buf[: self.m]
        tops = weights.argmax(axis=1)
        return (weights[np.arange(self.m), tops] > HEAVY_SHARE).tolist(), tops

    def row(self, i: int) -> np.ndarray:
        return self.buf[i]

    def freeze(self, i: int, h: int) -> "_DenseFrozen":
        return _DenseFrozen(self.buf[i], h)

    def regroup(self, gone: list[int], thawed: list[np.ndarray]) -> None:
        close_gaps(self.buf, gone, self.m)
        m = self.m - len(gone)
        for row in thawed:
            self.buf[m] = row
            m += 1
        self.m = m

    def medians(self) -> np.ndarray:
        """The median vertex of every row."""
        return weighted_medians(self.g, self.buf[: self.m])

    def reply_masses(self, i: int, q: int, replies: list[int]) -> list[float]:
        """The mass of each reply's set at vertex q in row i
        (oracle.row_masses)."""
        return row_masses(self.g, self.buf[i])(q, replies)

    def update(self, qs: np.ndarray, replies: list[int]) -> np.ndarray:
        """Fold reply replies[i] at vertex qs[i] into row i, for every row,
        as heavy_filter and bayesian_update would: kept weights scale by
        1-p, the rest by p. A yes keeps {q} and a no at a q holding half
        the weight keeps all but q, so those rows scale by one factor off q
        and another at q, all rows in one multiply. Any other reply u keeps
        its reply set N(q, u), which leaves q out; such a row is scaled on
        its own by its mask, and the multiply passes it by with a factor 1.
        Returns each row's total before the divide."""
        p, keep = self.p, 1.0 - self.p
        weights = self.buf[: self.m]
        at = np.arange(self.m)
        at_q = weights[at, qs]
        factors, at_q_mult = [], []
        for i, (q, reply, w_q) in enumerate(zip(qs.tolist(), replies, at_q.tolist())):
            if reply == q:
                factor, at_f = p, keep
            elif w_q >= 0.5:
                factor, at_f = keep, p
            else:
                weights[i] *= np.where(reply_set(self.g, q, reply), keep, p)
                factor, at_f = 1.0, p
            factors.append(factor)
            at_q_mult.append(at_f)
        weights *= np.array(factors)[:, None]
        weights[at, qs] = at_q * at_q_mult
        totals = weights.sum(axis=1)
        if not (totals > 0.0).all():
            raise DomainError("update annihilated all weight mass")
        weights /= totals[:, None]
        return totals


class _DenseFrozen:
    """A dense row frozen when vertex h, its top, turned heavy: row, the
    row with 0 at h, and rest0, its sum."""

    def __init__(self, row: np.ndarray, h: int):
        self.row = row.copy()
        self.row[h] = 0.0
        self.h = h
        self.rest0 = float(self.row.sum())

    def thaw(self, rest: float) -> np.ndarray:
        """The frozen row scaled to the share rest, with h set."""
        return _heavy_row(self.row, self.rest0, rest, self.h)


def _heavy_row(frozen: np.ndarray, rest0: float, rest: float, h: int) -> np.ndarray:
    """The dense row of a heavy trial: frozen (its row when h turned heavy,
    over vertex ids, with 0 at h, summing to rest0) scaled to the share
    rest, with h set."""
    row = frozen * (rest / rest0 if rest0 > 0.0 else 0.0)
    row[h] = 1.0 - rest
    return row


def _snapshot(
    row: np.ndarray, log2_total: float, target: int
) -> tuple[float, float, float, int | None]:
    """A weight_log entry from a row over vertex ids (see
    SearchTranscript)."""
    top = int(np.argmax(row))
    heavy = top if row[top] >= 0.5 else None
    log2_total = float(log2_total)
    return log2_rest(row, log2_total), math.log2(row[target]) + log2_total, log2_total, heavy


def _transcript(
    relative: np.ndarray,
    log2_total: float,
    target: int,
    steps: int,
    records: list[QueryRecord] | None,
    wlog: list | None,
    flagged: bool,
) -> SearchTranscript:
    """The transcript of a trial that ended with the row relative, over
    vertex ids. It declares the heaviest vertex, float-equal weights going
    to the smallest id; weights equal in exact arithmetic but reached
    through different products (on a grid, the lines and points of one
    row) need not be float-equal, so on such ties rounding decides."""
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
