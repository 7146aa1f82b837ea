"""Comparison search over a linear order, organized in pivot epochs.

Queries are grouped into epochs that repeat one pivot; finished pivots
accumulate in a marked set that doubles as the candidate pool for a second
verification phase. A coupled scalar process, updated only at epoch
boundaries from the answer counts, dominates the absolute weight of the
unmarked elements on every answer sequence; the fixed-budget variant sizes
its budget so the target's weight must exceed that bound, forcing the
target into the candidate pool.
"""

from __future__ import annotations

import functools
import math
from array import array
from dataclasses import dataclass

import numpy as np

from .graph_search import SearchTranscript
from .mathcore import (
    Distribution,
    DomainError,
    NoiseParams,
    epoch_length,
    worst_case_budget_linear,
)
from .oracle import LinearOracle, ProtocolError
from .weights import (
    WeightState,
    apply_multipliers,
    heaviest,
    init_from_distribution,
    init_uniform,
)

__all__ = [
    "EpochState",
    "CandidateSet",
    "TreePosterior",
    "central_element",
    "comparison_update",
    "run_epoch",
    "run_adversarial",
    "run_lv_distributional",
    "run_lv_adversarial",
    "verify_candidates",
    "coupled_epoch_log2",
    "lv_query_cap",
]

CENTRAL_TOL = 1e-12
# A stop rule fires when a share reaches its threshold less this slack, so a
# share that is exactly the threshold (9/10 occurs at p = 0.1 and p = 0.25)
# stops whatever the summation order rounded it to.
STOP_SLACK = 1e-12


@dataclass
class EpochState:
    """Bookkeeping for the epoch schedule and the coupled weight bound.

    marked holds pivots in marking order; epoch_index is the running
    epoch's, 1-based; coupled_log2 is log2 of the coupled process and
    changes only when an epoch ends.
    """

    marked: list[int]
    marked_mask: np.ndarray
    epoch_index: int = 1
    coupled_log2: float = 0.0

    @classmethod
    def fresh(cls, n: int) -> "EpochState":
        return cls(marked=[], marked_mask=np.zeros(n, dtype=bool))


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
    unmarked mass log2) to boundary_log. The epoch table is fetched once,
    the counters live in locals and marked_mask takes the new pivots when
    the loop returns.

    state and epoch are updated in place. Returns (queries run, epochs
    completed to their scheduled length, stopped by the rule).
    """
    table = _epoch_table(noise)
    coupled_log2 = table.coupled_log2
    median, update, marked_share = state.median, state.update, state.marked_share
    gap_mass = state.log2_gap_mass
    answer = oracle.answer
    marked = epoch.marked
    first_new = len(marked)
    # an epoch marks one new pivot, so at most n - |marked| more can run
    epochs_left = min(max_epochs, state.n - first_new)
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
    epoch.marked_mask[marked[first_new:]] = True
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


def verify_candidates(
    candidates: CandidateSet,
    noise: NoiseParams,
    delta: float,
    oracle: LinearOracle,
    cap_multiplier: float = 50.0,
) -> int:
    """Pick the target out of the candidate pool by comparison queries.

    The comparison search of phase one restricted to the candidates: a
    TreePosterior over candidate indices from a uniform start, pivot at the
    weighted median candidate, stop once one candidate holds a 1-delta
    fraction. Comparisons are answered on the original order, so answers
    stay informative about candidates even when the true target fell
    outside the pool.
    """
    members = candidates.members
    if len(members) == 0:
        raise DomainError("candidate set is empty")
    if len(members) == 1:
        return members[0]
    if not 0.0 < delta < 0.5:
        raise DomainError(f"delta must satisfy 0 < delta < 1/2, got {delta}")
    m = len(members)
    post = TreePosterior.uniform(m)
    cap = int(
        math.ceil(
            cap_multiplier
            * (math.log2(m) + math.log2(1.0 / delta) + 1.0)
            / noise.info_rate
        )
    )
    median, share, update, answer = post.median, post.share, post.update, oracle.answer
    threshold = 1.0 - delta - STOP_SLACK
    for _ in range(cap):
        # a candidate holding 1 - delta > 1/2 of the mass is the median
        k = median(True)
        if share(k) >= threshold:
            return int(members[k])
        update(k, answer(members[k]).kind, noise)
    return int(members[int(np.argmax(post.relative))])


def _epoch_phase(
    state: TreePosterior,
    noise: NoiseParams,
    oracle: LinearOracle,
    max_total: int,
    stop_share: float | None = None,
) -> tuple[TreePosterior, EpochState, int, bool, int, list[tuple[int, float, float]]]:
    """Drive epochs until the budget, the stopping rule, or pivot exhaustion.

    Returns (state, epoch, queries_run, stopped_by_rule, completed_epochs,
    boundary_log) where boundary_log rows are (step, coupled bound log2,
    actual unmarked mass log2) recorded at every epoch boundary.
    """
    epoch = EpochState.fresh(state.n)
    boundary_log: list[tuple[int, float, float]] = [(0, 0.0, state.log2_gap_mass())]
    steps, completed, stopped = _run_epochs(
        state, epoch, noise, oracle, max_total, stop_share, boundary_log
    )
    if stop_share is not None and not stopped:
        stopped = state.marked_share() >= stop_share
    return state, epoch, steps, stopped, completed, boundary_log


def run_adversarial(
    n: int,
    noise: NoiseParams,
    delta: float,
    oracle: LinearOracle,
    c_const: float = 4.0,
    budget: int | None = None,
) -> SearchTranscript:
    """Fixed-budget comparison search, then verification over the pivots.

    Exactly Q epoch-phase queries (the final epoch is cut at the budget
    and its pivot still marked), followed by candidate verification at
    confidence delta/3. When fewer than Q queries suffice to mark every
    element, the epoch phase stops early: all elements are candidates and
    further pivotless queries would teach the verifier nothing.
    """
    if not 0.0 < delta < 0.5:
        raise DomainError(f"delta must satisfy 0 < delta < 1/2, got {delta}")
    q_budget = budget if budget is not None else worst_case_budget_linear(n, noise, delta, c_const).q
    state, epoch, steps, _, completed, boundary_log = _epoch_phase(
        TreePosterior.uniform(n), noise, oracle, max_total=q_budget
    )
    before_verify = oracle.queries_answered
    declared = verify_candidates(CandidateSet(tuple(epoch.marked)), noise, delta / 3.0, oracle)
    verify_queries = oracle.queries_answered - before_verify
    return SearchTranscript(
        declared=declared,
        query_count=steps + verify_queries,
        target_hit=declared == oracle.target,
        phase_one_queries=steps,
        verify_queries=verify_queries,
        marked=list(epoch.marked),
        epoch_log=boundary_log,
        completed_epochs=completed,
    )


def lv_query_cap(
    worst_bits: float,
    noise: NoiseParams,
    delta: float,
    c_const: float = 4.0,
    cap_multiplier: float = 50.0,
) -> int:
    """Phase-one query cap of run_lv_distributional: cap_multiplier times
    its expected length for a target whose prior mass is 2^-worst_bits,
    the least likely one."""
    if not 1.0 <= c_const < math.inf:
        raise DomainError(f"c_const must be >= 1 and finite, got {c_const}")
    return int(
        math.ceil(
            cap_multiplier
            * (worst_bits + math.log2(1.0 / delta) + 3.0 + math.log2(c_const))
            / noise.info_rate
        )
    )


def run_lv_distributional(
    n: int,
    mu: Distribution,
    noise: NoiseParams,
    delta: float,
    oracle: LinearOracle,
    c_const: float = 4.0,
    cap_multiplier: float = 50.0,
) -> SearchTranscript:
    """Stopping comparison search from a prior.

    Epochs run until the marked set holds a 1-delta/2 fraction of the
    weight (checked after every query and after every marking), then the
    candidates are verified at confidence delta/2. The cap converts
    pathological tails into flagged failures.
    """
    if not 0.0 < delta < 0.5:
        raise DomainError(f"delta must satisfy 0 < delta < 1/2, got {delta}")
    prior = init_from_distribution(mu).relative
    cap = lv_query_cap(-math.log2(float(prior.min())), noise, delta, c_const, cap_multiplier)
    state, epoch, steps, stopped, completed, boundary_log = _epoch_phase(
        TreePosterior(prior), noise, oracle, max_total=cap,
        stop_share=1.0 - delta / 2.0 - STOP_SLACK,
    )
    flagged = not stopped
    if epoch.marked:
        before_verify = oracle.queries_answered
        declared = verify_candidates(
            CandidateSet(tuple(epoch.marked)), noise, delta / 2.0, oracle
        )
        verify_queries = oracle.queries_answered - before_verify
    else:
        declared = heaviest(state)
        verify_queries = 0
    return SearchTranscript(
        declared=declared,
        query_count=steps + verify_queries,
        target_hit=declared == oracle.target,
        flagged=flagged,
        phase_one_queries=steps,
        verify_queries=verify_queries,
        marked=list(epoch.marked),
        epoch_log=boundary_log,
        completed_epochs=completed,
    )


def run_lv_adversarial(
    n: int,
    noise: NoiseParams,
    delta: float,
    oracle: LinearOracle,
    c_const: float = 4.0,
    cap_multiplier: float = 50.0,
    adv_margin: float = 4.0,
) -> SearchTranscript:
    """Stopping comparison search without a prior.

    Runs the distributional strategy from the uniform prior, whose
    expected length is per-target in log2(1/prior(target)) and hence
    log2(n) for every target simultaneously. The confidence is tightened
    to delta / adv_margin: without randomizing the order, a fixed target
    adjacent to the earliest pivots sees only a handful of queries that
    separate it from its neighbors, which inflates its error by a small
    constant factor over the target-averaged guarantee; the margin buys
    that factor back for log2(adv_margin) extra bits of work.
    """
    if adv_margin < 1.0:
        raise DomainError(f"adv_margin must be >= 1, got {adv_margin}")
    if not 0.0 < delta < 0.5:
        raise DomainError(f"delta must satisfy 0 < delta < 1/2, got {delta}")
    return run_lv_distributional(
        n, Distribution.uniform(n), noise, delta / adv_margin, oracle,
        c_const=c_const, cap_multiplier=cap_multiplier,
    )
