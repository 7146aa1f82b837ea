"""Deterministic invariant fuzzers: the weight-drop laws the guarantees rest on.

fuzz_graph_invariants runs graph_search.search, the engine behind every
graph scenario, and fuzz_binary_invariants the comparison epochs of
linear_search; both count the violations of laws that must hold on every
answer sequence. The verify-invariants scenario of harness runs them both.
"""

from __future__ import annotations

import math

import numpy as np

from . import graph_search, linear_search
from .graph import GENERATORS, Graph, generate_graph
from .mathcore import NoiseParams, worst_case_budget_graph, worst_case_budget_linear
from .oracle import Answer, GraphOracle, LinearOracle, NoisePolicy

__all__ = ["fuzz_graph_invariants", "fuzz_binary_invariants"]

_FUZZ_PS = (0.1, 0.25, 0.4)
# slack, in bits, a checked weight-drop law may exceed its bound by
TOL = 1e-6
# queries per graph transcript, at most
GRAPH_MAX_STEPS = 100
# queries per comparison transcript, at most
BINARY_MAX_STEPS = 160


def _fuzz_graph(rng: np.random.Generator) -> Graph:
    name = GENERATORS[int(rng.integers(6))]
    n = int(rng.integers(2, 65))
    return generate_graph(name, max(n, {"cycle": 3, "gnm": 4}.get(name, 2)), rng)


def fuzz_graph_invariants(transcripts: int = 1000, seed: int = 0) -> dict:
    """Fuzz graph searches and check every deterministic weight-drop law.

    Each transcript is one fixed-budget graph_search.search run, a chunk of
    one, and the laws are read off its weight_log. Checked per transcript,
    for every answer sequence the noise and lie policies produce:
      * excluded-heaviest drop: absolute mass outside the heaviest vertex
        is at most 2^-t after t queries;
      * halving: any query at a step without a heavy vertex at least
        halves the absolute total;
      * heavy intervals: across a maximal run of steps sharing one heavy
        vertex x, the total drops by 2^-k when the run ends, and the mass
        outside x is down by 2^-k at every point the run is still live.
    Each transcript spends its worst-case budget at delta = 0.2, at most
    GRAPH_MAX_STEPS queries, and a law counts as broken past TOL bits.
    """
    drop_violations = 0
    halving_violations = 0
    interval_violations = 0
    steps_total = 0
    worst_excess = float("-inf")
    for i in range(transcripts):
        rng = np.random.default_rng([seed, i])
        g = _fuzz_graph(rng)
        noise = NoiseParams.from_p(_FUZZ_PS[int(rng.integers(len(_FUZZ_PS)))])
        policy = NoisePolicy(
            p=noise.p,
            truthful_tiebreak="random" if rng.integers(2) else "smallest-id",
            lie_choice="adversarial-heaviest" if rng.integers(2) else "uniform-wrong",
        )
        target = int(rng.integers(g.n))
        oracle = GraphOracle(g, target, policy, rng)
        budget = min(worst_case_budget_graph(g.n, noise, 0.2).q, GRAPH_MAX_STEPS)
        plan = graph_search.adversarial_plan(g.n, noise, 0.2, budget)
        (run,) = graph_search.search(g, noise, plan, [oracle], track_weights=True)
        # one entry before each query and one after the last
        log_rest, _, log_total, heavy_at_query = zip(*run.weight_log)
        heavy_at_query = heavy_at_query[:budget]
        steps_total += budget

        for tau in range(budget + 1):
            excess = log_rest[tau] - (-float(tau))
            worst_excess = max(worst_excess, excess)
            if excess > TOL:
                drop_violations += 1
        for t, heavy in enumerate(heavy_at_query):
            if heavy is None and log_total[t + 1] > log_total[t] - 1.0 + 1e-9:
                halving_violations += 1
        interval_violations += _check_heavy_intervals(heavy_at_query, log_total, log_rest, budget)
    return {
        "transcripts": transcripts,
        "steps": steps_total,
        "drop_violations": drop_violations,
        "halving_violations": halving_violations,
        "interval_violations": interval_violations,
        "worst_drop_excess": worst_excess,
    }


def _check_heavy_intervals(heavy_at_query, log_total, log_rest, budget) -> int:
    """Maximal same-heavy-vertex runs: ended runs must halve the total per
    query; live runs must halve the mass outside the heavy vertex."""
    violations = 0
    t = 0
    while t < budget:
        x = heavy_at_query[t]
        if x is None:
            t += 1
            continue
        start = t
        while t < budget and heavy_at_query[t] == x:
            t += 1
        # live checkpoints: x still heavy after tau - start queries of the run
        for tau in range(start + 1, t):
            if log_rest[tau] > log_total[start] - (tau - start) + TOL:
                violations += 1
        ended = t < budget  # a different heavy vertex (or none) took over
        if ended:
            if log_total[t] > log_total[start] - (t - start) + TOL:
                violations += 1
        else:
            if log_rest[t] > log_total[start] - (t - start) + TOL:
                violations += 1
    return violations


class _ContraryLinearOracle:
    """Adversarial answer source: steers mass away from concentration.

    Ignores any target; answers toward whichever side of the pivot holds
    more weight (or uniformly at random), which maximally slows the
    decay of the unmarked mass. Used to stress deterministic bounds that
    must hold on every answer sequence.
    """

    def __init__(self, n: int, rng: np.random.Generator, mode: str):
        self.n = n
        self.rng = rng
        self.mode = mode
        self.target = -1
        self.queries_answered = 0

    def answer(self, q: int, state=None) -> Answer:
        self.queries_answered += 1
        if self.mode == "random" or state is None:
            kind = "less" if self.rng.random() < 0.5 else "greater"
        else:
            left = float(state.relative[:q].sum())
            right = float(state.relative[q + 1 :].sum())
            kind = "less" if left >= right else "greater"
        return Answer(kind=kind, is_lie=False)


def fuzz_binary_invariants(transcripts: int = 1000, seed: int = 0) -> dict:
    """Fuzz comparison-search epochs and check the coupled bound.

    At every epoch boundary (including a final budget-truncated epoch),
    the absolute mass of the unmarked elements must not exceed the
    coupled process, whatever the answers; noisy, adversarial, and
    uniformly random answer sources are mixed. Each transcript runs at
    most BINARY_MAX_STEPS queries.
    """
    violations = 0
    boundaries = 0
    worst_excess = float("-inf")
    for i in range(transcripts):
        rng = np.random.default_rng([seed, 1 + i])
        n = int(rng.integers(2, 129))
        noise = NoiseParams.from_p(_FUZZ_PS[int(rng.integers(len(_FUZZ_PS)))])
        mode = int(rng.integers(3))
        if mode == 0:
            oracle = LinearOracle(n, int(rng.integers(n)), NoisePolicy(p=noise.p), rng)
        else:
            oracle = _ContraryLinearOracle(n, rng, "greedy" if mode == 1 else "random")
        budget = min(worst_case_budget_linear(n, noise, 0.2).q, BINARY_MAX_STEPS)

        state = linear_search.TreePosterior.uniform(n)
        epoch = linear_search.EpochState.fresh()
        steps = 0
        while steps < budget and len(epoch.marked) < n:
            state, epoch, status, run = linear_search.run_epoch(
                state, epoch, noise, oracle, max_queries=budget - steps
            )
            steps += run
            boundaries += 1
            actual = _log2_unmarked_mass(state, epoch)
            excess = actual - epoch.coupled_log2
            worst_excess = max(worst_excess, excess)
            if excess > TOL:
                violations += 1
    return {
        "transcripts": transcripts,
        "boundaries": boundaries,
        "coupled_violations": violations,
        "worst_coupled_excess": worst_excess,
    }


def _log2_unmarked_mass(state, epoch) -> float:
    """log2 of the absolute unmarked mass, summed off the leaves as
    state.relative and state.log2_total are, from one pass over them."""
    relative, log2_total = state.dense()
    unmarked = np.ones(relative.size, dtype=bool)
    unmarked[epoch.marked] = False
    rest = float(relative[unmarked].sum())
    if rest <= 0.0:
        return float("-inf")
    return math.log2(rest) + log2_total
