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

import math
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
    "GapPosterior",
    "central_element",
    "comparison_update",
    "run_epoch",
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


@dataclass
class EpochState:
    """Bookkeeping for the epoch schedule and the coupled weight bound.

    marked holds pivots in marking order; coupled_log2 is log2 of the
    coupled process and changes only when an epoch ends; the answer
    counters (less_count, greater_count) belong to the running epoch.
    """

    marked: list[int]
    marked_mask: np.ndarray
    epoch_index: int = 1
    within_epoch: int = 0
    current_pivot: int | None = None
    coupled_log2: float = 0.0
    less_count: int = 0
    greater_count: int = 0

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


class GapPosterior:
    """Posterior of a comparison search, held per gap between queried pivots.

    Every answer scales a whole side of its pivot, so after any answers an
    element's weight is its prior times gamma^(answers consistent with it)
    times (2p)^-(queries at it), up to a common factor. The first factor is
    constant on each gap between queried pivots. The state is therefore the
    prior, the K sorted pivots queried so far, the prior mass and the weight
    of each gap (gap j lies just below pivot j, gap K above the last pivot;
    its weight over its prior mass is the factor its elements share), one
    weight per pivot, and a log2 scale. Gap and pivot weights interleave in
    one block array, gap j at block 2j and pivot j at block 2j+1, so that an
    answer scales one side with one slice. Element i of gap g weighs
    prior[i] * weight[g] / prior_mass[g] * 2**log2_scale in absolute terms.
    Every operation but .relative and log2_total, which are dense, costs
    O(K) array work plus work on the one gap it touches.

    central_element and comparison_update compute the same posterior densely
    and serve as its reference.
    """

    # the largest weight grows by at most gamma per answer; renormalise once
    # the growth since the last renormalisation could pass 2^RENORM_LOG2
    RENORM_LOG2 = 512.0

    def __init__(self, prior: np.ndarray):
        prior = np.asarray(prior, dtype=np.float64)
        if prior.ndim != 1 or prior.size == 0:
            raise DomainError("a gap posterior needs a nonempty 1-D prior")
        if not (np.isfinite(prior).all() and (prior > 0.0).all()):
            raise DomainError("a gap posterior needs finite, strictly positive prior weights")
        self.prior = prior
        self.k = 0
        cap = 64
        self._pivots = np.empty(cap, dtype=np.int64)
        self._blocks = np.empty(2 * cap + 1)
        self._prior_mass = np.empty(cap + 1)
        self._blocks[0] = self._prior_mass[0] = float(prior.sum())
        self.log2_scale = 0.0
        self._headroom = self.RENORM_LOG2

    @classmethod
    def uniform(cls, n: int) -> "GapPosterior":
        """Uniform prior 1/n, the start of init_uniform."""
        return cls(init_uniform(n).relative)

    @property
    def n(self) -> int:
        return int(self.prior.size)

    @property
    def pivots(self) -> np.ndarray:
        return self._pivots[: self.k]

    def _gap_bounds(self, g: int) -> tuple[int, int]:
        lo = int(self._pivots[g - 1]) + 1 if g > 0 else 0
        hi = int(self._pivots[g]) if g < self.k else self.n
        return lo, hi

    def _factor(self, g: int) -> float:
        return float(self._blocks[2 * g]) / float(self._prior_mass[g])

    def median(self, with_pivots: bool) -> int:
        """Smallest element splitting the counted mass in half.

        Without pivots only the gaps count, as in phase one, where every
        queried pivot is marked when an epoch starts; the result equals
        central_element with the pivots as the marked set. With pivots every
        element counts, as in verification.
        """
        k = self.k
        step = 1 if with_pivots else 2
        blocks = self._blocks[: 2 * k + 1 : step]
        cum = blocks.cumsum()
        total = float(cum[-1])
        if total <= 0.0:
            if not with_pivots and k >= self.n:
                raise DomainError(
                    "no unmarked elements remain; the epoch phase should have stopped"
                )
            raise DomainError("unmarked mass underflowed; instance is beyond float64 range")
        # tolerance must scale with the counted mass, which can be 2^-hundreds
        half = (0.5 + CENTRAL_TOL) * total
        # The answer is the first element whose inclusive prefix reaches
        # total - half (everything above it then holds at most half), provided
        # its exclusive prefix is at most half. Rounding may put that element
        # one block past the first block whose end reaches total - half.
        reach = total - half
        for c in range(int(cum.searchsorted(reach)), blocks.size):
            if blocks[c] <= 0.0:
                continue
            before = float(cum[c - 1]) if c > 0 else 0.0
            b = c * step
            if b % 2 == 1:
                if float(cum[c]) >= reach:
                    return self._checked(int(self._pivots[b // 2]), before, half)
                continue
            lo, hi = self._gap_bounds(b // 2)
            f = self._factor(b // 2)
            csum = self.prior[lo:hi].cumsum()
            i = int(csum.searchsorted((reach - before) / f))
            if i < csum.size:
                prefix = before + f * float(csum[i - 1]) if i else before
                return self._checked(lo + i, prefix, half)
        raise DomainError("no central element found; weights are inconsistent")

    @staticmethod
    def _checked(element: int, prefix: float, half: float) -> int:
        if prefix > half:
            raise DomainError("no central element found; weights are inconsistent")
        return element

    def update(self, pivot: int, kind: str, noise: NoiseParams) -> None:
        """Fold in one comparison answer at the pivot.

        Splits the gap holding a new pivot, then scales the answered side by
        gamma and the pivot by 1/(2p); log2_scale takes the common factor p,
        so absolute weights match comparison_update's (1-p, p, 1/2).
        """
        if kind != "less" and kind != "greater":
            raise ProtocolError(f"comparison reply must be less/greater, got {kind!r}")
        k = self.k
        j = int(self._pivots[:k].searchsorted(pivot))
        if j == k or self._pivots[j] != pivot:
            self._split(j, pivot)
            k += 1
        b = 2 * j + 1
        gamma = noise.gamma
        if kind == "less":
            self._blocks[:b] *= gamma
        else:
            self._blocks[b + 1 : 2 * k + 1] *= gamma
        self._blocks[b] *= 0.5 / noise.p
        self.log2_scale += math.log2(noise.p)
        self._headroom -= math.log2(gamma)
        if self._headroom < 0.0:
            self._renormalise()

    def _split(self, j: int, pivot: int) -> None:
        """Insert a pivot at sorted slot j, cutting gap j at it."""
        if not 0 <= pivot < self.n:
            raise DomainError(f"pivot {pivot} out of range for n={self.n}")
        k = self.k
        if k == self._pivots.size:
            self._grow()
        lo, hi = self._gap_bounds(j)
        f = self._factor(j)
        prior, pivots, blocks, mass = self.prior, self._pivots, self._blocks, self._prior_mass
        # sum each side's own slice: a difference of prefix sums rounds the
        # tail of a fast-decaying prior to zero
        left = np.add.reduce(prior[lo:pivot]) if pivot > lo else 0.0
        right = np.add.reduce(prior[pivot + 1 : hi]) if hi > pivot + 1 else 0.0
        pivots[j + 1 : k + 1] = pivots[j:k]
        pivots[j] = pivot
        mass[j + 2 : k + 2] = mass[j + 1 : k + 1]
        mass[j], mass[j + 1] = left, right
        b = 2 * j
        blocks[b + 3 : 2 * k + 3] = blocks[b + 1 : 2 * k + 1]
        blocks[b], blocks[b + 1], blocks[b + 2] = f * left, f * prior[pivot], f * right
        self.k = k + 1

    def _grow(self) -> None:
        cap = 2 * self._pivots.size
        for name, size in (("_pivots", cap), ("_blocks", 2 * cap + 1), ("_prior_mass", cap + 1)):
            old = getattr(self, name)
            new = np.empty(size, dtype=old.dtype)
            new[: old.size] = old
            setattr(self, name, new)

    def _raw_total(self) -> float:
        return float(self._blocks[: 2 * self.k + 1].sum())

    def _renormalise(self) -> None:
        total = self._raw_total()
        self._blocks[: 2 * self.k + 1] /= total
        self.log2_scale += math.log2(total)
        self._headroom = self.RENORM_LOG2

    def share(self, element: int) -> float:
        """Share of the total mass on one element."""
        j = int(self._pivots[: self.k].searchsorted(element))
        if j < self.k and self._pivots[j] == element:
            weight = float(self._blocks[2 * j + 1])
        else:
            weight = float(self.prior[element]) * self._factor(j)
        return weight / self._raw_total()

    def marked_share(self, unmarked: int | None = None) -> float:
        """Share of the total mass on the pivots, leaving out `unmarked`.

        `unmarked` is the pivot of a running epoch: queried, so it has its
        own weight, but not yet marked.
        """
        k = self.k
        weights = self._blocks[1 : 2 * k : 2]
        j = k if unmarked is None else int(self._pivots[:k].searchsorted(unmarked))
        if j < k and self._pivots[j] == unmarked:
            marked = weights[:j].sum() + weights[j + 1 :].sum()
        else:
            marked = weights.sum()
        return float(marked) / self._raw_total()

    def log2_gap_mass(self) -> float:
        """log2 of the absolute mass off the pivots (the unmarked mass)."""
        rest = float(self._blocks[: 2 * self.k + 1 : 2].sum())
        if rest <= 0.0:
            return float("-inf")
        return math.log2(rest) + self.log2_scale

    def _dense(self) -> np.ndarray:
        k = self.k
        mass = self._prior_mass[: k + 1]
        factors = np.divide(
            self._blocks[: 2 * k + 1 : 2], mass, out=np.zeros(k + 1), where=mass > 0.0
        )
        # element i takes the factor of the gap ending at the first pivot >= i
        counts = np.diff(np.concatenate(([-1], self.pivots, [self.n - 1])))
        raw = self.prior * np.repeat(factors, counts)
        raw[self.pivots] = self._blocks[1 : 2 * k : 2]
        return raw

    @property
    def log2_total(self) -> float:
        """log2 of the absolute total mass, as WeightState.log2_total.

        Summed densely like .relative, not from the block weights, so checks
        built on the two test the kernel's bookkeeping independently.
        """
        return math.log2(float(self._dense().sum())) + self.log2_scale

    @property
    def relative(self) -> np.ndarray:
        """Dense normalized weights, built on request in O(n)."""
        raw = self._dense()
        return raw / raw.sum()


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


def _finish_epoch(epoch: EpochState, noise: NoiseParams) -> None:
    epoch.coupled_log2 += coupled_epoch_log2(epoch.less_count, epoch.greater_count, noise)
    pivot = epoch.current_pivot
    assert pivot is not None
    epoch.marked.append(pivot)
    epoch.marked_mask[pivot] = True
    epoch.epoch_index += 1
    epoch.within_epoch = 0
    epoch.current_pivot = None
    epoch.less_count = 0
    epoch.greater_count = 0


def run_epoch(
    state: GapPosterior,
    epoch: EpochState,
    noise: NoiseParams,
    oracle: LinearOracle,
    max_queries: int | None = None,
    stop_predicate=None,
) -> tuple[GapPosterior, EpochState, str, int]:
    """Run one epoch: repeat the central pivot, update weights per answer.

    The epoch ends by completing its scheduled length ("completed") or by
    exhausting max_queries ("truncated"); both outcomes mark the pivot and
    fold the answer counts into the coupled bound. A stop_predicate
    trigger ("stopped") returns immediately with the pivot unmarked, since
    the stopping rule is evaluated against the current marked set.

    state is updated in place. Returns (state, epoch, status, queries_run).
    """
    # every queried pivot is marked when an epoch starts, so the unmarked
    # mass is the gap mass
    pivot = state.median(with_pivots=False)
    epoch.current_pivot = pivot
    scheduled = epoch_length(epoch.epoch_index, noise)
    budget = scheduled if max_queries is None else min(scheduled, max_queries)
    if budget < 1:
        raise DomainError("an epoch needs at least one query of budget")
    run = 0
    for _ in range(budget):
        answer = oracle.answer(pivot, state)
        state.update(pivot, answer.kind, noise)
        run += 1
        epoch.within_epoch += 1
        if answer.kind == "less":
            epoch.less_count += 1
        else:
            epoch.greater_count += 1
        if stop_predicate is not None and stop_predicate(state, epoch):
            return state, epoch, "stopped", run
    _finish_epoch(epoch, noise)
    status = "completed" if budget == scheduled else "truncated"
    return state, epoch, status, run


def verify_candidates(
    candidates: CandidateSet,
    noise: NoiseParams,
    delta: float,
    oracle: LinearOracle,
    cap_multiplier: float = 50.0,
) -> int:
    """Pick the target out of the candidate pool by comparison queries.

    The comparison search of phase one restricted to the candidates: a
    GapPosterior over candidate indices from a uniform start, pivot at the
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
    post = GapPosterior.uniform(m)
    cap = int(
        math.ceil(
            cap_multiplier
            * (math.log2(m) + math.log2(1.0 / delta) + 1.0)
            / noise.info_rate
        )
    )
    for _ in range(cap):
        # a candidate holding 1 - delta > 1/2 of the mass is the median
        k = post.median(with_pivots=True)
        if post.share(k) >= 1.0 - delta - STOP_SLACK:
            return int(members[k])
        answer = oracle.answer(int(members[k]))
        post.update(k, answer.kind, noise)
    return int(members[int(np.argmax(post.relative))])


def _epoch_phase(
    state: GapPosterior,
    noise: NoiseParams,
    oracle: LinearOracle,
    max_total: int,
    stop_predicate=None,
) -> tuple[GapPosterior, EpochState, int, bool, int, list[tuple[int, float, float]]]:
    """Drive epochs until the budget, the stopping rule, or pivot exhaustion.

    Returns (state, epoch, queries_run, stopped_by_rule, completed_epochs,
    boundary_log) where boundary_log rows are (step, coupled bound log2,
    actual unmarked mass log2) recorded at every epoch boundary.
    """
    n = state.n
    epoch = EpochState.fresh(n)
    boundary_log: list[tuple[int, float, float]] = [(0, 0.0, state.log2_gap_mass())]
    steps = 0
    completed = 0
    stopped = False
    while steps < max_total:
        if stop_predicate is not None and stop_predicate(state, epoch):
            stopped = True
            break
        if len(epoch.marked) >= n:
            break
        state, epoch, status, run = run_epoch(
            state, epoch, noise, oracle,
            max_queries=max_total - steps, stop_predicate=stop_predicate,
        )
        steps += run
        if status == "stopped":
            stopped = True
            break
        if status == "completed":
            completed += 1
        boundary_log.append((steps, epoch.coupled_log2, state.log2_gap_mass()))
    if stop_predicate is not None and not stopped:
        stopped = stop_predicate(state, epoch)
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
        GapPosterior.uniform(n), noise, oracle, max_total=q_budget
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
    worst_bits = -math.log2(float(prior.min()))
    cap = int(
        math.ceil(
            cap_multiplier
            * (worst_bits + math.log2(1.0 / delta) + 3.0 + math.log2(c_const))
            / noise.info_rate
        )
    )
    threshold = 1.0 - delta / 2.0 - STOP_SLACK

    def stop_rule(st: GapPosterior, ep: EpochState) -> bool:
        return st.marked_share(ep.current_pivot) >= threshold

    state, epoch, steps, stopped, completed, boundary_log = _epoch_phase(
        GapPosterior(prior), noise, oracle, max_total=cap, stop_predicate=stop_rule
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
