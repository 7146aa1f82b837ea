"""The query environment: truthful answers, noise injection, reply filtering.

One oracle owns one trial's hidden target and rng stream. Strategies see
only Answer.kind and Answer.vertex; the is_lie flag is ground truth kept
for diagnostics and statistics, and no strategy module reads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .graph import Graph, consistent_set, read_fields, reply_set
from .mathcore import Distribution, DomainError
from .weights import CompatibleSet, WeightState

__all__ = [
    "ProtocolError",
    "Answer",
    "NoisePolicy",
    "row_masses",
    "graph_reply",
    "heavy_lie",
    "truthful_choices",
    "NEIGHBOR",
    "reply_answer",
    "linear_answer",
    "heavy_filter",
    "GraphOracle",
    "LinearOracle",
    "load_distribution",
]

TIEBREAKS = ("smallest-id", "random")
# an adversarial lie that heavy_lie leaves unnamed
NEIGHBOR = -1
LIE_CHOICES = ("uniform-wrong", "adversarial-heaviest")


class ProtocolError(ValueError):
    """A reply that the query model does not allow."""


class Answer(NamedTuple):
    """One reply. kind is yes / neighbor (graph) or less / greater (order).

    is_lie records whether the noise channel corrupted the truthful reply;
    it exists for verification only and is invisible to strategies.
    """

    kind: str
    vertex: int | None = None
    is_lie: bool = False


# the four comparison replies, shared by every LinearOracle answer
_LESS = Answer("less")
_GREATER = Answer("greater")
_LESS_LIE = Answer("less", None, True)
_GREATER_LIE = Answer("greater", None, True)


@dataclass(frozen=True)
class NoisePolicy:
    """Noise channel configuration.

    p                 per-answer corruption probability (i.i.d. across queries)
    truthful_tiebreak how a truthful shortest-path neighbor is picked when
                      several exist: "smallest-id" or "random"
    lie_choice        content of a corrupted graph reply: "uniform-wrong"
                      draws uniformly among the wrong legal replies,
                      "adversarial-heaviest" picks the wrong reply whose
                      consistent set currently holds the most weight
    """

    p: float
    truthful_tiebreak: str = "smallest-id"
    lie_choice: str = "uniform-wrong"

    def __post_init__(self) -> None:
        if not 0.0 <= self.p < 0.5:
            raise DomainError(f"noise policy needs 0 <= p < 1/2, got {self.p}")
        if self.truthful_tiebreak not in TIEBREAKS:
            raise DomainError(f"unknown tiebreak {self.truthful_tiebreak!r}")
        if self.lie_choice not in LIE_CHOICES:
            raise DomainError(f"unknown lie choice {self.lie_choice!r}")


def _closer_neighbors(q: int, target: int, g: Graph) -> list[int]:
    """Neighbours of q one hop closer to the target, in increasing id order;
    closed form on grid layouts, the one neighbour toward the target's
    preorder interval on a tree (paths included), read off the row
    d(target, .) otherwise."""
    if g.grid_shape is not None:
        cols = g.grid_shape[1]
        rq, cq = divmod(q, cols)
        rt, ct = divmod(target, cols)
        # up, left, right, down: increasing ids
        closer = []
        if rt < rq:
            closer.append(q - cols)
        if ct < cq:
            closer.append(q - 1)
        if ct > cq:
            closer.append(q + 1)
        if rt > rq:
            closer.append(q + cols)
        return closer
    if g.tree is not None:
        return [g.tree.toward(q, target)]
    to_target = g.row(target)
    dq = int(to_target[q])
    return [u for u in g.adjacency[q] if int(to_target[u]) == dq - 1]


def truthful_choices(q: int, target: int, g: Graph, policy: NoisePolicy) -> list[int]:
    """The truthful replies at q that the tiebreak picks among: [q] when q
    is the target, else the closer neighbours (only the first of them under
    the smallest-id tiebreak)."""
    if q == target:
        return [q]
    closer = _closer_neighbors(q, target, g)
    return closer if policy.truthful_tiebreak == "random" else closer[:1]


def _truthful_reply(
    q: int,
    target: int,
    g: Graph,
    policy: NoisePolicy,
    coin: Callable[[], float],
) -> int:
    choices = truthful_choices(q, target, g, policy)
    if len(choices) == 1:
        return choices[0]
    return choices[int(coin() * len(choices))]


# the mass of each reply's set at a query vertex, for a list of replies at
# it (the vertex itself for yes), as an adversarial lie reads a weight row
Masses = Callable[[int, list[int]], list[float]]


def row_masses(g: Graph, row: np.ndarray) -> Masses:
    """The Masses of a dense weight row over vertex ids: q's weight for a
    yes, the row summed over the reply set's mask for a neighbour."""

    def masses(q: int, replies: list[int]) -> list[float]:
        return [
            float(row[q]) if u == q else float(row[reply_set(g, q, u)].sum())
            for u in replies
        ]

    return masses


def _corrupt_reply(
    q: int,
    truthful: int,
    g: Graph,
    policy: NoisePolicy,
    coin: Callable[[], float],
    masses: Masses | None,
) -> int:
    """The lie at q told instead of the truthful reply. An
    adversarial-heaviest lie names the wrong reply to which masses gives
    the most mass, the first such in the order q, then q's neighbours."""
    adjacent = g.adjacency[q]
    if not adjacent:
        # isolated target on a single-vertex graph: nothing to lie with
        return truthful
    if policy.lie_choice == "uniform-wrong":
        # wrong = (q, *adjacent) without truthful, so it has len(adjacent)
        # items; wrong[j] is read off adjacent by index, no list is built
        j = int(coin() * len(adjacent))
        if truthful == q or j > adjacent.index(truthful):
            return adjacent[j]
        return adjacent[j - 1] if j else q
    if masses is None:
        raise DomainError("adversarial-heaviest lies need the current weight state")
    wrong = [v for v in (q, *adjacent) if v != truthful]
    return wrong[int(np.argmax(masses(q, wrong)))]


def graph_reply(
    q: int,
    target: int,
    g: Graph,
    policy: NoisePolicy,
    coin: Callable[[], float],
    masses: Masses | None = None,
) -> tuple[int, int]:
    """(reply, truthful reply) to a vertex query, each as a vertex: q
    itself stands for yes, any other vertex is a neighbour reply.

    The truthful reply is yes when q is the target, otherwise a neighbour
    of q one hop closer to the target. With probability policy.p it is
    replaced by one of the other legal replies at q (yes plus each
    neighbour) per policy.lie_choice; the adversarial choice reads the
    current weights' reply masses, masses(q, replies) (see Masses), called
    only for such a lie. coin() returns the trial's next uniform in
    [0, 1); the uniforms go in a fixed order: the random tiebreak (only
    when several neighbours are closer), the noise coin, then the uniform
    lie. A choice among k items takes item int(u * k).
    """
    truthful = _truthful_reply(q, target, g, policy, coin)
    if coin() < policy.p:
        return _corrupt_reply(q, truthful, g, policy, coin, masses), truthful
    return truthful, truthful


def heavy_lie(
    h: int,
    truthful: int,
    g: Graph,
    policy: NoisePolicy,
    coin: Callable[[], float],
    masses: Masses | None = None,
) -> int:
    """The lie graph_reply tells at a vertex h that holds more than half
    the weight, after its noise coin came up, from the same uniforms.

    An adversarial-heaviest lie there reads no masses unless it must name
    a neighbour. When the truth is a neighbour the lie is yes: {h}
    outweighs every other reply set, since each of them leaves h out. When
    the truth is yes the lie is a neighbour, which a search reads only as
    "not h"; masses names it, and without them NEIGHBOR stands in for it.
    """
    if policy.lie_choice != "adversarial-heaviest":
        return _corrupt_reply(h, truthful, g, policy, coin, None)
    if truthful != h or not g.adjacency[h]:
        return h
    if masses is None:
        return NEIGHBOR
    return _corrupt_reply(h, truthful, g, policy, coin, masses)


def reply_answer(q: int, reply: int, truthful: int) -> Answer:
    """The Answer for a reply given as a vertex (q itself for yes)."""
    if reply == q:
        return Answer(kind="yes", vertex=None, is_lie=reply != truthful)
    return Answer(kind="neighbor", vertex=reply, is_lie=reply != truthful)


def linear_answer(
    q: int, target: int, policy: NoisePolicy, rng: np.random.Generator
) -> Answer:
    """Answer a comparison query, flipped with probability policy.p.

    The reply set is {less, greater}; when the target equals the pivot the
    truthful reply is a fair coin, which makes either answer carry
    likelihood exactly 1/2 for the pivot hypothesis.
    """
    less = rng.random() < 0.5 if target == q else target < q
    if rng.random() < policy.p:
        return _GREATER_LIE if less else _LESS_LIE
    return _LESS if less else _GREATER


def heavy_filter(answer: Answer, q: int, was_heavy: bool, g: Graph) -> CompatibleSet:
    """Compatible set delivered to the strategy for a graph reply.

    A no-answer at a vertex that held at least half the weight is read
    only as "the target is not q": the direction is discarded and the
    compatible set becomes everything but q. All other replies pass
    through the ordinary consistent-set computation.
    """
    if answer.kind == "yes":
        return CompatibleSet.singleton(g.n, q)
    if answer.kind != "neighbor":
        raise ProtocolError(f"heavy_filter expects a graph reply, got {answer.kind}")
    if was_heavy:
        return CompatibleSet.complement_of(g.n, q)
    return consistent_set(g, q, answer)


class _CoinBlocks:
    """The owner's uniforms, taken from self.rng in blocks of COIN_BLOCK.

    Generator.random(k) yields the doubles of k scalar calls, so the
    uniforms come in the order one draw per coin would give; only the
    rng's position after the trial differs.
    """

    COIN_BLOCK = 64
    rng: np.random.Generator
    _coins: list[float]  # unused uniforms of the current block, the next one last

    def _refill(self) -> list[float]:
        coins = self._coins = self.rng.random(self.COIN_BLOCK).tolist()
        coins.reverse()
        return coins

    def coin(self) -> float:
        """The next uniform in [0, 1) of this trial."""
        return (self._coins or self._refill()).pop()


class GraphOracle(_CoinBlocks):
    """Per-trial answer source for vertex queries; counts answers given.

    Its uniforms come from its own rng in blocks (coin()), spent in the
    order of graph_reply.
    """

    def __init__(self, g: Graph, target: int, policy: NoisePolicy, rng: np.random.Generator):
        if not 0 <= target < g.n:
            raise DomainError(f"target {target} out of range for n={g.n}")
        self.graph = g
        self.target = int(target)
        self.policy = policy
        self.rng = rng
        self.queries_answered = 0
        self._coins = []

    def answer(self, q: int, state: WeightState | None = None) -> Answer:
        self.queries_answered += 1
        g, target = self.graph, self.target
        masses = None if state is None else row_masses(g, state.relative)
        return reply_answer(q, *graph_reply(q, target, g, self.policy, self.coin, masses))


class LinearOracle(_CoinBlocks):
    """Per-trial answer source for comparison queries on 0..n-1.

    Answers as linear_answer does, coin for coin: the tie coin when the
    target is the pivot, then the noise coin, from the blocks of
    _CoinBlocks. So a trial that owns its rng hears the same answers as
    with one draw per coin. Each answer is one of four shared Answer
    values.
    """

    def __init__(self, n: int, target: int, policy: NoisePolicy, rng: np.random.Generator):
        if not 0 <= target < n:
            raise DomainError(f"target {target} out of range for n={n}")
        self.n = int(n)
        self.target = int(target)
        self.policy = policy
        self.rng = rng
        self.queries_answered = 0
        self._coins = []

    def answer(self, q: int, state: WeightState | None = None) -> Answer:
        self.queries_answered += 1
        coins = self._coins or self._refill()
        target = self.target
        if target == q:
            less = coins.pop() < 0.5
            coins = coins or self._refill()
        else:
            less = target < q
        if coins.pop() < self.policy.p:
            return _GREATER_LIE if less else _LESS_LIE
        return _LESS if less else _GREATER


def load_distribution(path, n: int) -> tuple[Distribution, float]:
    """Read "element_id mass" pairs; normalize; return (dist, raw mass sum).

    Ids absent from the file get zero mass (callers flooring zeros at
    initialization recover them). The pre-normalization sum is returned so
    callers can report how far the file was from a proper distribution.
    """
    masses = np.zeros(n, dtype=np.float64)
    running = 0.0  # no sum of masses below it can overflow
    for lineno, parts in read_fields(path):
        if len(parts) != 2:
            raise DomainError(f"{path}:{lineno}: expected 'element_id mass'")
        try:
            idx, mass = int(parts[0]), float(parts[1])
        except ValueError as exc:
            raise DomainError(f"{path}:{lineno}: non-numeric id or mass") from exc
        if not math.isfinite(mass):
            raise DomainError(f"{path}:{lineno}: mass {parts[1]} is not finite")
        if not 0 <= idx < n:
            raise DomainError(f"{path}:{lineno}: element id {idx} out of range [0, {n})")
        if mass < 0:
            raise DomainError(f"{path}:{lineno}: negative mass {mass}")
        running += mass
        if not math.isfinite(running):
            raise DomainError(f"{path}:{lineno}: the masses sum past the largest float")
        masses[idx] += mass
    total = float(masses.sum())
    if total <= 0.0:
        raise DomainError(f"{path}: distribution file carries no mass")
    return Distribution(masses / total), total
