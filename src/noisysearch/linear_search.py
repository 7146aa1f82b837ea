"""Comparison search over a linear order, organized in pivot epochs.

Queries are grouped into epochs that repeat one pivot; finished pivots
accumulate in a marked set that doubles as the candidate pool for a second
verification phase. A coupled scalar process, updated only at epoch
boundaries from the answer counts, dominates the absolute weight of the
unmarked elements on every answer sequence; the fixed-budget variant sizes
its budget so the target's weight must exceed that bound, forcing the
target into the candidate pool.

Three variants differ only in their ComparisonPlan (start weights,
phase-one budget or cap, stop share, verification confidence):

* a fixed-budget strategy that spends exactly its budget in phase one and
  verifies at delta/3 (bounded error probability),
* a stopping strategy for a known prior whose phase one ends once the
  marked pivots hold 1-delta/2 of the weight, verified at delta/2, and
* the same stopping strategy from a uniform prior at confidence
  delta / ADV_MARGIN, which handles an adversarially placed target.

One engine, search(), runs a trial of any plan; the run_* functions build
a plan and call it.
"""

from __future__ import annotations

import functools
import math
from array import array
from dataclasses import dataclass

import numpy as np

from .graph_search import SearchTranscript
from .mathcore import (
    CAP_MULTIPLIER,
    Distribution,
    DomainError,
    NoiseParams,
    check_delta,
    epoch_length,
    worst_case_budget_linear,
)
from .oracle import LinearOracle, ProtocolError
from .weights import WeightState, apply_multipliers, init_from_distribution, init_uniform

__all__ = [
    "ADV_MARGIN",
    "EpochState",
    "CandidateSet",
    "TreePosterior",
    "ComparisonPlan",
    "central_element",
    "comparison_update",
    "run_epoch",
    "adversarial_plan",
    "lv_distributional_plan",
    "lv_adversarial_plan",
    "search",
    "run_adversarial",
    "run_lv_distributional",
    "run_lv_adversarial",
    "verify_candidates",
    "coupled_epoch_log2",
]

CENTRAL_TOL = 1e-12
# A stop rule fires when a share reaches its threshold less this slack, so a
# share that is exactly the threshold (9/10 occurs at p = 0.1 and p = 0.25)
# stops whatever the summation order rounded it to.
STOP_SLACK = 1e-12
# The adversarial stopping search runs at confidence delta / ADV_MARGIN (see
# lv_adversarial_plan).
ADV_MARGIN = 4.0


@dataclass
class EpochState:
    """Bookkeeping for the epoch schedule and the coupled weight bound.

    marked holds pivots in marking order (a reader that needs them as a
    mask builds it from the list); epoch_index is the running epoch's,
    1-based; coupled_log2 is log2 of the coupled process and
    changes only when an epoch ends.
    """

    marked: list[int]
    epoch_index: int = 1
    coupled_log2: float = 0.0

    @classmethod
    def fresh(cls, n: int) -> "EpochState":
        """The state before the first epoch of a search over n elements
        (nothing in it depends on n)."""
        return cls(marked=[])


@dataclass(frozen=True)
class CandidateSet:
    """Pivots queried in phase one, in ascending order."""

    members: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "members", tuple(sorted(self.members)))

    @property
    def size(self) -> int:
        return len(self.members)


class TreePosterior:
    """Posterior of a comparison search, held in one sum tree over the elements.

    Every answer scales a whole side of its pivot by gamma and the pivot by
    1/(2p), up to the common factor p that log2_scale keeps. Both sides are
    unions of O(log n) subtrees, so one leaf-to-root pass applies an answer,
    and the median is one root-to-leaf descent.

    The tree has a power-of-two number of leaves; leaf i (node size + i)
    holds element i and padding leaves weigh 0. Three flat buffers hold it:
    s[v] is the mass under node v, g[v] the part of it that is not on a
    queried pivot, and t[v] one multiplicative tag per internal node. A
    node's true sums are its stored sums times the tags of its strict
    ancestors, and s[v] = t[v] * (s[2v] + s[2v+1]), likewise g; scaling a
    subtree scales its root's s, g and t. Element i weighs its true leaf sum
    times 2**log2_scale in absolute terms. median, update, share and
    marked_share cost O(log n) scalar steps with no numpy call;
    log2_gap_mass reads the root; dense, .relative and log2_total, and the
    renormalisation that bounds the tags, are dense O(n).

    central_element and comparison_update compute the same posterior densely
    and serve as its reference.
    """

    # the root grows by at most gamma per answer, and so does the product of
    # the tags on any path; renormalise once that growth since the last
    # renormalisation could pass 2^RENORM_LOG2
    RENORM_LOG2 = 512.0

    def __init__(self, prior: np.ndarray):
        prior = np.asarray(prior, dtype=np.float64)
        if prior.ndim != 1 or prior.size == 0:
            raise DomainError("a comparison posterior needs a nonempty 1-D prior")
        if not (np.isfinite(prior).all() and (prior > 0.0).all()):
            raise DomainError(
                "a comparison posterior needs finite, strictly positive prior weights"
            )
        self.n = n = int(prior.size)
        self._size = size = 1 << (n - 1).bit_length()
        self._s = array("d", [0.0]) * (2 * size)
        self._g = array("d", [0.0]) * (2 * size)
        self._t = array("d", [1.0]) * size
        self._queried = bytearray(n)
        self.k = 0
        self.log2_scale = 0.0
        self._headroom = self.RENORM_LOG2
        self._fill(prior)

    @classmethod
    def uniform(cls, n: int) -> "TreePosterior":
        """Uniform prior 1/n, the start of init_uniform."""
        return cls(init_uniform(n).relative)

    @property
    def pivots(self) -> np.ndarray:
        """The queried pivots, ascending."""
        return np.flatnonzero(np.frombuffer(self._queried, dtype=np.uint8))

    def _fill(self, leaves: np.ndarray) -> None:
        """Set the leaf weights, clear the tags and sum every level."""
        n, size = self.n, self._size
        s, g = np.frombuffer(self._s), np.frombuffer(self._g)
        s[size : size + n] = leaves
        g[size : size + n] = leaves
        g[size : size + n][np.frombuffer(self._queried, dtype=bool)] = 0.0
        lo = size // 2
        while lo:
            np.add(s[2 * lo : 4 * lo : 2], s[2 * lo + 1 : 4 * lo : 2], out=s[lo : 2 * lo])
            np.add(g[2 * lo : 4 * lo : 2], g[2 * lo + 1 : 4 * lo : 2], out=g[lo : 2 * lo])
            lo //= 2
        np.frombuffer(self._t)[:] = 1.0

    def _leaf_weights(self) -> np.ndarray:
        """True leaf weights of the n elements: each leaf times its tags,
        pushed down one level at a time."""
        size = self._size
        t = np.frombuffer(self._t)
        factor = 1.0
        lo = 1
        while lo < size:
            factor = (factor * t[lo : 2 * lo]).repeat(2)
            lo *= 2
        return (np.frombuffer(self._s)[size:] * factor)[: self.n]

    def _true(self, v: int) -> float:
        """True mass of node v: its stored s times its ancestors' tags."""
        t = self._t
        w = self._s[v]
        v >>= 1
        while v:
            w *= t[v]
            v >>= 1
        return w

    def median(self, with_pivots: bool) -> int:
        """Smallest element splitting the counted mass in half.

        Without pivots only the unqueried elements count (g), as in phase
        one, where every queried pivot is marked when an epoch starts; the
        result equals central_element with the pivots as the marked set. With
        pivots every element counts (s), as in verification.
        """
        a = self._s if with_pivots else self._g
        total = a[1]
        if total <= 0.0:
            if not with_pivots and self.k >= self.n:
                raise DomainError(
                    "no unmarked elements remain; the epoch phase should have stopped"
                )
            raise DomainError("unmarked mass underflowed; instance is beyond float64 range")
        # tolerance must scale with the counted mass, which can be 2^-hundreds
        half = (0.5 + CENTRAL_TOL) * total
        # The answer is the first element whose inclusive prefix reaches
        # total - half (everything above it then holds at most half), provided
        # its exclusive prefix is at most half. Descend into the left child
        # while its mass reaches, carrying the exclusive prefix and the
        # product of the tags above the current children.
        reach = total - half
        t, size = self._t, self._size
        v, before, scale = 1, 0.0, 1.0
        while v < size:
            scale *= t[v]
            v *= 2
            left = a[v] * scale
            if before + left < reach:
                before += left
                v += 1
        if a[v] <= 0.0:
            # rounding between a node and its children's sums walked onto a
            # leaf with nothing counted (a queried pivot or padding): take the
            # nearest counted leaf on the left, whose inclusive prefix is
            # `before`
            while not (v & 1 and a[v - 1] > 0.0):
                v >>= 1
                if v == 1:
                    raise DomainError("no central element found; weights are inconsistent")
            v -= 1
            while v < size:
                v = 2 * v + 1 if a[2 * v + 1] > 0.0 else 2 * v
            # a counted leaf is not a queried pivot, so its s equals its g
            before -= self._true(v)
        if before > half:
            raise DomainError("no central element found; weights are inconsistent")
        return v - size

    def update(self, pivot: int, kind: str, noise: NoiseParams) -> None:
        """Fold in one comparison answer at the pivot.

        Scales the pivot's leaf by 1/(2p) and, on the way to the root, every
        sibling subtree on the answered side by gamma; log2_scale takes the
        common factor p, so absolute weights match comparison_update's
        (1-p, p, 1/2).
        """
        if kind == "less":
            side = 1  # scale a sibling that is a left child, i.e. when v is odd
        elif kind == "greater":
            side = 0
        else:
            raise ProtocolError(f"comparison reply must be less/greater, got {kind!r}")
        if not 0 <= pivot < self.n:
            raise DomainError(f"pivot {pivot} out of range for n={self.n}")
        s, g, t = self._s, self._g, self._t
        gamma = noise.gamma
        v = self._size + pivot
        sv = s[v] = s[v] * (0.5 / noise.p)
        if self._queried[pivot]:
            gv = g[v]
        else:
            self._queried[pivot] = 1
            self.k += 1
            gv = g[v] = 0.0
        # sv, gv: stored sums of v, the node on the path; w: its sibling
        leaf = True
        while v > 1:
            w = v ^ 1
            sw, gw = s[w], g[w]
            if v & 1 == side:
                sw = s[w] = sw * gamma
                gw = g[w] = gw * gamma
                if not leaf:
                    t[w] *= gamma
            leaf = False
            v >>= 1
            tv = t[v]
            sv = s[v] = tv * (sv + sw)
            gv = g[v] = tv * (gv + gw)
        self.log2_scale += math.log2(noise.p)
        self._headroom -= math.log2(gamma)
        if self._headroom < 0.0:
            self._renormalise()

    def _renormalise(self) -> None:
        w = self._leaf_weights()
        total = float(w.sum())
        self._fill(w / total)
        self.log2_scale += math.log2(total)
        self._headroom = self.RENORM_LOG2

    def share(self, element: int) -> float:
        """Share of the total mass on one element."""
        return self._true(self._size + element) / self._s[1]

    def marked_share(self, unmarked: int | None = None) -> float:
        """Share of the total mass on the pivots, leaving out `unmarked`.

        `unmarked` is the pivot of a running epoch: queried, so it counts as
        a pivot in the tree, but not yet marked.
        """
        total = self._s[1]
        marked = total - self._g[1]
        if unmarked is not None and self._queried[unmarked]:
            marked -= self._true(self._size + unmarked)
        return marked / total

    def log2_gap_mass(self) -> float:
        """log2 of the absolute mass off the pivots (the unmarked mass)."""
        rest = self._g[1]
        if rest <= 0.0:
            return float("-inf")
        return math.log2(rest) + self.log2_scale

    def dense(self) -> tuple[np.ndarray, float]:
        """(.relative, log2_total) from one pass over the leaves."""
        raw = self._leaf_weights()
        total = raw.sum()
        return raw / total, math.log2(float(total)) + self.log2_scale

    @property
    def log2_total(self) -> float:
        """log2 of the absolute total mass, as WeightState.log2_total.

        Summed from the leaves times their tags like .relative, not read
        from the root, so checks built on the two test the tree's bookkeeping
        independently.
        """
        return self.dense()[1]

    @property
    def relative(self) -> np.ndarray:
        """Dense normalized weights, built on request in O(n)."""
        return self.dense()[0]


def central_element(state: WeightState, marked_mask: np.ndarray) -> int:
    """Smallest unmarked element splitting the unmarked mass in half.

    Returns the smallest unmarked q whose unmarked-prefix and
    unmarked-suffix masses are each at most half the unmarked total. Such
    an element always exists (it is a weighted median of the unmarked
    mass restricted to unmarked positions).
    """
    unmarked = ~marked_mask
    if not unmarked.any():
        raise DomainError("no unmarked elements remain; the epoch phase should have stopped")
    w = state.relative * unmarked
    total = float(w.sum())
    if total <= 0.0:
        raise DomainError("unmarked mass underflowed; instance is beyond float64 range")
    # tolerance must scale with the unmarked mass, which can be 2^-hundreds
    half = (0.5 + CENTRAL_TOL) * total
    csum = np.cumsum(w)
    prefix = csum - w
    suffix = total - csum
    ok = unmarked & (prefix <= half) & (suffix <= half)
    idx = np.flatnonzero(ok)
    if idx.size == 0:
        raise DomainError("no central element found; weights are inconsistent")
    return int(idx[0])


def comparison_update(
    state: WeightState, pivot: int, kind: str, noise: NoiseParams
) -> WeightState:
    """Fold in one comparison answer at the pivot.

    Elements on the answered side scale by (1-p), the far side by p, and
    the pivot itself by 1/2: either answer has likelihood exactly one half
    when the target is the pivot, because the truthful reply there is a
    fair coin. Marked elements update like everything else.
    """
    n = state.n
    mult = np.empty(n, dtype=np.float64)
    if kind == "less":
        mult[:pivot] = 1.0 - noise.p
        mult[pivot + 1 :] = noise.p
    elif kind == "greater":
        mult[:pivot] = noise.p
        mult[pivot + 1 :] = 1.0 - noise.p
    else:
        raise ProtocolError(f"comparison reply must be less/greater, got {kind!r}")
    mult[pivot] = 0.5
    return apply_multipliers(state, mult)


def coupled_epoch_log2(x: int, y: int, noise: NoiseParams) -> float:
    """log2 of the coupled-process factor for an epoch with answer counts (x, y).

    The factor is ((1-p)^x p^y + (1-p)^y p^x) / 2, evaluated in log space
    so long epochs cannot underflow.
    """
    l1p = math.log2(1.0 - noise.p)
    lp = math.log2(noise.p)
    return float(np.logaddexp2(x * l1p + y * lp, y * l1p + x * lp)) - 1.0


class _EpochTable:
    """epoch_length and coupled_epoch_log2 at one noise level, filled on demand.

    The schedule never lengthens, so once an epoch has length 1 every later
    one has too, and lengths stops there: at p = 0.25 it holds one entry, at
    p = 0.3 two. coupled maps answer counts (x, y) to coupled_epoch_log2.
    """

    def __init__(self, noise: NoiseParams):
        self.noise = noise
        self.lengths = [epoch_length(1, noise)]
        self.coupled: dict[tuple[int, int], float] = {}

    def length(self, i: int) -> int:
        lengths = self.lengths
        while i > len(lengths) and lengths[-1] > 1:
            lengths.append(epoch_length(len(lengths) + 1, self.noise))
        return lengths[i - 1] if i <= len(lengths) else 1

    def coupled_log2(self, x: int, y: int) -> float:
        c = self.coupled.get((x, y))
        if c is None:
            c = self.coupled[x, y] = coupled_epoch_log2(x, y, self.noise)
        return c


@functools.lru_cache(maxsize=None)
def _epoch_table(noise: NoiseParams) -> _EpochTable:
    return _EpochTable(noise)


def _run_epochs(
    state: TreePosterior,
    epoch: EpochState,
    noise: NoiseParams,
    oracle: LinearOracle,
    max_total: float,
    stop_share: float | None = None,
    boundary_log: list[tuple[int, float, float]] | None = None,
    max_epochs: float = math.inf,
) -> tuple[int, int, bool]:
    """The epoch loop: median, answers, updates, marking and the coupled bound.

    Runs epochs until max_total queries, max_epochs epochs, every element
    marked, or the stop rule. The rule, marked_share of the running epoch
    >= stop_share, is checked before each epoch and after each query; when
    it fires the running pivot stays unmarked. Every epoch that
    ends, by its schedule or at max_total, marks its pivot, folds its answer
    counts into the coupled bound and appends (step, coupled bound log2,
    unmarked mass log2) to boundary_log. The epoch table is fetched once
    and the counters live in locals.

    state and epoch are updated in place. Returns (queries run, epochs
    completed to their scheduled length, stopped by the rule).
    """
    table = _epoch_table(noise)
    coupled_log2 = table.coupled_log2
    median, update, marked_share = state.median, state.update, state.marked_share
    gap_mass = state.log2_gap_mass
    answer = oracle.answer
    marked = epoch.marked
    # an epoch marks one new pivot, so at most n - |marked| more can run
    epochs_left = min(max_epochs, state.n - len(marked))
    index, bound = epoch.epoch_index, epoch.coupled_log2
    steps = completed = scheduled = 0
    stopped = False
    while steps < max_total and epochs_left > 0:
        if stop_share is not None and marked_share() >= stop_share:
            stopped = True
            break
        # every queried pivot is marked when an epoch starts, so the
        # unmarked mass is the mass off the pivots
        pivot = median(False)
        if scheduled != 1:
            # the schedule never lengthens: after an epoch of length 1
            # every epoch has length 1
            scheduled = table.length(index)
        budget = scheduled if scheduled <= max_total - steps else max_total - steps
        less = 0
        for run in range(1, budget + 1):
            kind = answer(pivot, state).kind
            update(pivot, kind, noise)
            if kind == "less":
                less += 1
            if stop_share is not None and marked_share(pivot) >= stop_share:
                stopped = True
                break
        if stopped:
            steps += run
            break
        steps += budget
        bound += coupled_log2(less, budget - less)
        marked.append(pivot)
        index += 1
        completed += budget == scheduled
        epochs_left -= 1
        if boundary_log is not None:
            boundary_log.append((steps, bound, gap_mass()))
    epoch.epoch_index, epoch.coupled_log2 = index, bound
    return steps, completed, stopped


def run_epoch(
    state: TreePosterior,
    epoch: EpochState,
    noise: NoiseParams,
    oracle: LinearOracle,
    max_queries: int | None = None,
) -> tuple[TreePosterior, EpochState, str, int]:
    """Run one epoch: repeat the central pivot, update weights per answer.

    The epoch loop of the search stopped after one epoch. The epoch ends by
    completing its scheduled length ("completed") or by exhausting
    max_queries ("truncated"); both outcomes mark the pivot and fold the
    answer counts into the coupled bound.

    state is updated in place. Returns (state, epoch, status, queries_run).
    """
    if max_queries is not None and max_queries < 1:
        raise DomainError("an epoch needs at least one query of budget")
    if len(epoch.marked) >= state.n:
        raise DomainError("no unmarked elements remain; the epoch phase should have stopped")
    run, completed, _ = _run_epochs(
        state, epoch, noise, oracle,
        max_total=math.inf if max_queries is None else max_queries, max_epochs=1,
    )
    return state, epoch, "completed" if completed else "truncated", run


def _verify_cap(m: int, noise: NoiseParams, delta: float) -> int:
    """Most queries verify_candidates asks of m candidates at confidence
    delta: CAP_MULTIPLIER times the expected length of that search."""
    return int(
        math.ceil(
            CAP_MULTIPLIER * (math.log2(m) + math.log2(1.0 / delta) + 1.0) / noise.info_rate
        )
    )


def verify_candidates(
    candidates: CandidateSet,
    noise: NoiseParams,
    delta: float,
    oracle: LinearOracle,
) -> int:
    """Pick the target out of the candidate pool by comparison queries.

    The comparison search of phase one restricted to the candidates: a
    TreePosterior over candidate indices from a uniform start, pivot at the
    weighted median candidate, stop once one candidate holds a 1-delta
    fraction. Comparisons are answered on the original order, so answers
    stay informative about candidates even when the true target fell
    outside the pool. At its cap (_verify_cap) it returns the heaviest
    candidate; search flags such a trial.
    """
    members = candidates.members
    if len(members) == 0:
        raise DomainError("candidate set is empty")
    if len(members) == 1:
        return members[0]
    check_delta(delta)
    m = len(members)
    post = TreePosterior.uniform(m)
    median, share, update, answer = post.median, post.share, post.update, oracle.answer
    threshold = 1.0 - delta - STOP_SLACK
    for _ in range(_verify_cap(m, noise, delta)):
        # a candidate holding 1 - delta > 1/2 of the mass is the median
        k = median(True)
        if share(k) >= threshold:
            return int(members[k])
        update(k, answer(members[k]).kind, noise)
    return int(members[int(np.argmax(post.relative))])


@dataclass(frozen=True)
class ComparisonPlan:
    """What a comparison strategy fixes before its first query.

    prior         start weights, summing to 1
    max_steps     phase-one query budget (fixed-budget) or cap (stopping)
    stop_share    end phase one once the marked pivots hold this share of
                  the weight; None spends the whole budget
    verify_delta  confidence of the verification over the marked pivots
    """

    prior: np.ndarray
    max_steps: int
    stop_share: float | None
    verify_delta: float


def adversarial_plan(
    n: int,
    noise: NoiseParams,
    delta: float,
    c_const: float = 4.0,
    budget: int | None = None,
) -> ComparisonPlan:
    """Uniform start, exactly Q phase-one queries (the worst-case budget
    unless one is given), then verification at confidence delta/3."""
    check_delta(delta)
    if budget is None:
        budget = worst_case_budget_linear(n, noise, delta, c_const).q
    return ComparisonPlan(init_uniform(n).relative, budget, None, delta / 3.0)


def lv_distributional_plan(
    mu: Distribution, noise: NoiseParams, delta: float, c_const: float = 4.0
) -> ComparisonPlan:
    """Start at the prior; phase one stops once the marked pivots hold a
    1-delta/2 fraction of the weight, and the candidates are verified at
    confidence delta/2. Phase one is capped at CAP_MULTIPLIER times its
    expected length for the least likely target."""
    check_delta(delta)
    if not 1.0 <= c_const < math.inf:
        raise DomainError(f"c_const must be >= 1 and finite, got {c_const}")
    prior = init_from_distribution(mu).relative
    worst_bits = -math.log2(float(prior.min()))
    cap = int(
        math.ceil(
            CAP_MULTIPLIER
            * (worst_bits + math.log2(1.0 / delta) + 3.0 + math.log2(c_const))
            / noise.info_rate
        )
    )
    return ComparisonPlan(prior, cap, 1.0 - delta / 2.0 - STOP_SLACK, delta / 2.0)


def lv_adversarial_plan(
    n: int, noise: NoiseParams, delta: float, c_const: float = 4.0
) -> ComparisonPlan:
    """The stopping plan from the uniform prior at confidence delta / ADV_MARGIN.

    From the uniform prior the expected length is per-target in
    log2(1/prior(target)) and hence log2(n) for every target at once.
    Without randomizing the order, a fixed target adjacent to the earliest
    pivots sees only a handful of queries that separate it from its
    neighbors, which inflates its error by a small constant factor over the
    target-averaged guarantee; the margin buys that factor back for
    log2(ADV_MARGIN) extra bits of work.
    """
    check_delta(delta)
    return lv_distributional_plan(Distribution.uniform(n), noise, delta / ADV_MARGIN, c_const)


def search(plan: ComparisonPlan, noise: NoiseParams, oracle: LinearOracle) -> SearchTranscript:
    """Run one trial of a plan: phase one, then verification over the pivots.

    Phase one runs epochs until plan.max_steps queries, every element
    marked, or, under a stopping plan, the stop rule (see _run_epochs); a
    final epoch cut at the budget still marks its pivot. So the first
    epoch always marks its pivot, since every builder's budget is at least
    one query and the stop rule reads no marked mass while that epoch runs,
    and the candidate pool is never empty. The trial is flagged when a
    stopping plan reached its cap before its rule fired, or when
    verification spent its whole cap.
    """
    state = TreePosterior(plan.prior)
    epoch = EpochState.fresh(state.n)
    epoch_log = [(0, 0.0, state.log2_gap_mass())]
    stop = plan.stop_share
    steps, completed, stopped = _run_epochs(
        state, epoch, noise, oracle, plan.max_steps, stop, epoch_log
    )
    if stop is not None and not stopped:
        stopped = state.marked_share() >= stop
    candidates = CandidateSet(tuple(epoch.marked))
    before_verify = oracle.queries_answered
    declared = verify_candidates(candidates, noise, plan.verify_delta, oracle)
    verify_queries = oracle.queries_answered - before_verify
    verify_capped = verify_queries == _verify_cap(candidates.size, noise, plan.verify_delta)
    return SearchTranscript(
        declared=declared,
        query_count=steps + verify_queries,
        target_hit=declared == oracle.target,
        flagged=(stop is not None and not stopped) or verify_capped,
        phase_one_queries=steps,
        verify_queries=verify_queries,
        marked=list(epoch.marked),
        epoch_log=epoch_log,
        completed_epochs=completed,
    )


def run_adversarial(
    n: int,
    noise: NoiseParams,
    delta: float,
    oracle: LinearOracle,
    c_const: float = 4.0,
    budget: int | None = None,
) -> SearchTranscript:
    """Fixed-budget comparison search (see adversarial_plan)."""
    return search(adversarial_plan(n, noise, delta, c_const, budget), noise, oracle)


def run_lv_distributional(
    n: int,
    mu: Distribution,
    noise: NoiseParams,
    delta: float,
    oracle: LinearOracle,
    c_const: float = 4.0,
) -> SearchTranscript:
    """Stopping comparison search from a prior (see lv_distributional_plan)."""
    return search(lv_distributional_plan(mu, noise, delta, c_const), noise, oracle)


def run_lv_adversarial(
    n: int,
    noise: NoiseParams,
    delta: float,
    oracle: LinearOracle,
    c_const: float = 4.0,
) -> SearchTranscript:
    """Stopping comparison search without a prior (see lv_adversarial_plan)."""
    return search(lv_adversarial_plan(n, noise, delta, c_const), noise, oracle)
