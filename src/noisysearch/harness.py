"""Experiment orchestration: seeded trials, summary statistics, emission.

Every trial draws its randomness from a stream derived from (master seed,
trial index), so trials are order-independent and a rerun of the same
configuration reproduces every transcript byte for byte regardless of the
worker count. The NOISY_SEARCH_THREADS environment variable (or
ExperimentConfig.workers) sizes the process pool; the default is
sequential execution.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from . import graph_search, linear_search
from .graph import Graph, all_pairs_distances, generate_graph, generated_layout, load_graph
from .mathcore import (
    Distribution,
    DomainError,
    NoiseParams,
    check_delta,
    dist_entropy,
    worst_case_budget_graph,
    worst_case_budget_linear,
)
from .fuzz import fuzz_binary_invariants, fuzz_graph_invariants
from .oracle import GraphOracle, LinearOracle, NoisePolicy, load_distribution

__all__ = [
    "SCENARIOS",
    "ExperimentConfig",
    "SummaryStats",
    "run_experiment",
    "adversarial_sweep",
    "emit",
    "wilson_interval",
    "min_trials_for_bound",
    "dyadic_distribution",
    "geometric_distribution",
    "fuzz_graph_invariants",
    "fuzz_binary_invariants",
]

SCENARIOS = (
    "graph-adversarial",
    "graph-lv-distr",
    "graph-lv-adv",
    "bin-adversarial",
    "bin-lv-distr",
    "bin-lv-adv",
    "verify-invariants",
)

CSV_COLUMNS = (
    "scenario",
    "n",
    "p",
    "delta",
    "trials",
    "seed",
    "mean_queries",
    "std_queries",
    "max_queries",
    "error_rate",
    "error_ci_low",
    "error_ci_high",
    "theoretical_bound",
    "bound_satisfied",
    "flagged_trials",
)

Z95 = 1.959963984540054
# trials per pool task in a comparison scenario
COMPARISON_TASK_TRIALS = 64
# The most queries a trial may be given, as a fixed budget or a stopping
# search's cap (a comparison trial's phase one). Both grow as 1/(1 - H(p)),
# about 3e16 at p = 0.4999999, so a run above this is refused, not left to
# run; tier-1's configurations need at most about 2.7e4, tree-stop's 1.3e4.
MAX_TRIAL_QUERIES = 10**6


@dataclass
class ExperimentConfig:
    """One experiment: scenario, instance, noise, trial count, seeding."""

    scenario: str
    n: int
    p: float
    delta: float
    trials: int
    seed: int
    graph_path: str | None = None
    gen: str | None = None
    mu_path: str | None = None
    mu: Distribution | None = None
    lie_choice: str = "uniform-wrong"
    c_const: float = 4.0
    c_prime: float = 64.0
    output: str | None = None
    fmt: str = "csv"
    keep_transcripts: bool = False
    workers: int | None = None
    fixed_target: int | None = None


@dataclass
class SummaryStats:
    """Aggregate of one batch of trials plus the applicable theory ceiling.

    For the fixed-budget scenarios theoretical_bound is the error ceiling
    delta and bound_satisfied checks the Wilson upper confidence limit of
    the error rate against it. For the stopping scenarios the bound is
    the expected-query ceiling and bound_satisfied additionally requires
    mean_queries <= bound + one standard error. Flagged trials (cap hits)
    count as errors and their query counts stay in the mean.
    """

    scenario: str
    n: int
    p: float
    delta: float
    trials: int
    seed: int
    mean_queries: float
    std_queries: float
    max_queries: float
    error_rate: float
    error_ci_low: float
    error_ci_high: float
    theoretical_bound: float
    bound_satisfied: bool
    flagged_trials: int
    extras: dict = field(default_factory=dict)
    transcript_sample: list = field(default_factory=list)

    def row(self) -> dict:
        return {col: getattr(self, col) for col in CSV_COLUMNS}


def wilson_interval(successes: int, total: int) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion, at Z95."""
    if total <= 0:
        return (0.0, 1.0)
    phat = successes / total
    z2 = Z95 * Z95
    denom = 1.0 + z2 / total
    center = phat + z2 / (2.0 * total)
    half = Z95 * math.sqrt(phat * (1.0 - phat) / total + z2 / (4.0 * total * total))
    return (max(0.0, (center - half) / denom), min(1.0, (center + half) / denom))


def min_trials_for_bound(delta: float) -> int:
    """The fewest trials whose Wilson upper limit with no errors is at most
    delta: fewer trials cannot show an error bound of delta however they go.
    The upper limit is z^2 / (trials + z^2), z = Z95, so the count is
    about z^2 (1 - delta) / delta (16 at delta = 0.2, 35 at delta = 0.1); the
    steps around that estimate settle it on wilson_interval itself, where
    rounding can move it by one either way."""
    if not delta > 0.0:
        raise DomainError(f"delta must be positive, got {delta}")
    estimate = Z95 * Z95 * (1.0 - delta) / delta
    if not estimate < 2.0**52:
        # a tiny delta: steps of one trial no longer move a float, and the
        # estimate may overflow
        return math.ceil(min(estimate, sys.float_info.max))
    trials = max(1, math.ceil(estimate))
    while trials > 1 and wilson_interval(0, trials - 1)[1] <= delta:
        trials -= 1
    while wilson_interval(0, trials)[1] > delta:
        trials += 1
    return trials


def dyadic_distribution(n: int) -> Distribution:
    """Masses 1/2, 1/4, ... with the last two equal so the sum is exactly 1."""
    if n < 2:
        raise DomainError("dyadic distribution needs n >= 2")
    masses = np.array([2.0 ** -(i + 1) for i in range(n - 1)] + [2.0 ** -(n - 1)])
    return Distribution(masses)


def geometric_distribution(n: int) -> Distribution:
    """Normalized geometric masses 2^-i, i = 0..n-1."""
    if n < 1:
        raise DomainError("geometric distribution needs n >= 1")
    masses = 0.5 ** np.arange(n, dtype=np.float64)
    return Distribution(masses / masses.sum())


# ---------------------------------------------------------------------------
# Context resolution and per-trial execution
# ---------------------------------------------------------------------------


class TrialOutcome(NamedTuple):
    hit: bool
    queries: int
    flagged: bool
    phase_one: int
    marked_count: int
    completed_epochs: int
    transcript: object | None


@dataclass
class _Context:
    config: ExperimentConfig
    noise: NoiseParams
    graph: Graph | None
    dist: object | None
    mu: Distribution | None
    plan: graph_search.SearchPlan | linear_search.ComparisonPlan


def _is_graph_scenario(scenario: str) -> bool:
    return scenario.startswith("graph-")


def _is_distributional(scenario: str) -> bool:
    return scenario.endswith("lv-distr")


def _resolve_mu(config: ExperimentConfig) -> Distribution:
    if config.mu is not None:
        if config.mu.n != config.n:
            raise DomainError(f"mu has {config.mu.n} masses but the instance has n={config.n}")
        return config.mu
    if config.mu_path is not None:
        mu, _ = load_distribution(config.mu_path, config.n)
        return mu
    return Distribution.uniform(config.n)


def _planned_chunks(config: ExperimentConfig) -> tuple[int, tuple | None, list[tuple[type, int]]]:
    """Before the graph is built: its edges, grid shape, and each store that
    graph_search.row_store may pick for it with a chunk's trials. A graph
    file counts n edges and may be a tree or not (graph.generated_layout
    knows a generated one); a prior is uniform unless a mu is given."""
    n, given = config.n, config.mu is not None or config.mu_path is not None
    uniform = not (_is_distributional(config.scenario) and given)
    if config.graph_path is None and config.gen is not None:
        edges, shape = generated_layout(config.gen, n)
        trees = [edges == n - 1 and shape is None]
    else:
        edges, shape, trees = n, None, [True, False]
    stores = [graph_search.row_store(tree, shape, uniform) for tree in trees]
    return edges, shape, [(store, graph_search.chunk_rows(store, n, shape)) for store in stores]


def _graph_term(n: int, edges: int, tree: bool) -> tuple[int, int]:
    """(peak, kept): about the traced peak of building a generated graph of
    n vertices and edges edges with, on a tree, its graph.TreeIndex, and
    what the two keep. By tracemalloc up to n = 2**18, the build peaks under
    64 bytes a vertex plus 168 an edge, the graph keeps under 56 plus 96,
    and the index keeps 256 a vertex and peaks about 8 above that."""
    kept = 56 * n + 96 * edges + (264 * n if tree else 0)
    return max(64 * n + 168 * edges, kept), kept


def _graph_bytes(config: ExperimentConfig) -> int:
    """About the bytes one worker of a graph scenario holds at once: the
    graph's build peak or, when larger, what the graph and its index keep
    (_graph_term) with three n-word copies of the prior, 4 KiB a trial for
    its oracle, rng, coins and transcript, and what the chunk's store
    states (chunk_bytes), the largest of those _planned_chunks gives."""
    n = config.n
    edges, shape, chunks = _planned_chunks(config)
    need = []
    for store, k in chunks:
        build, kept = _graph_term(n, edges, store is graph_search.TreeRows)
        need.append(max(build, kept + 24 * n + store.chunk_bytes(n, k, shape) + 4096 * k))
    return max(need)


def _check_memory(config: ExperimentConfig) -> None:
    """Refuse a run that cannot fit in physical memory, before anything of
    size n is allocated. A comparison trial holds the sum tree's three
    float64 buffers (2, 2 and 1 words per leaf of a power-of-two tree) and
    two n-word copies of the prior; a graph worker holds what _graph_bytes
    counts, in chunks of the fewest trials that _planned_chunks gives.
    Each pool task runs on one worker, one trial (comparison) or one chunk
    (graph) at a time. The bound is the machine's physical memory; a lower
    limit set on the process (a cgroup or ulimit) is not seen."""
    try:
        physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return  # the platform does not say; let the allocation decide
    n, workers = config.n, _worker_count(config)
    if _is_graph_scenario(config.scenario):
        chunk = min(k for _, k in _planned_chunks(config)[2])
        each, unit = _graph_bytes(config), "worker(s)"
        what = "graph, preorder index, distance rows, prior and engine chunk"
    else:
        chunk, each = 0, 8 * (5 * (1 << (n - 1).bit_length()) + 2 * n)
        what, unit = "comparison posteriors", "trial(s)"
    at_once = min(workers, -(-config.trials // _task_trials(config, workers, chunk)))
    need = each * at_once
    if need > physical:
        raise DomainError(
            f"n={n} needs about {need} bytes for the {what} of {at_once} concurrent "
            f"{unit}, more than the {physical} bytes of physical memory"
        )


def _check_inputs(config: ExperimentConfig) -> NoiseParams:
    """Check the numbers every scenario takes; returns the noise of p."""
    if config.trials < 1:
        raise DomainError(f"trials must be >= 1, got {config.trials}")
    if config.seed < 0:
        raise DomainError(f"seed must be >= 0, got {config.seed}")
    if config.n < 1:
        raise DomainError(f"n must be >= 1, got {config.n}")
    check_delta(config.delta)
    return NoiseParams.from_p(config.p)


def _build_context(config: ExperimentConfig) -> _Context:
    if config.scenario not in SCENARIOS:
        raise DomainError(f"unknown scenario {config.scenario!r}; choose from {SCENARIOS}")
    noise = _check_inputs(config)
    _check_memory(config)
    mu = _resolve_mu(config) if _is_distributional(config.scenario) else None
    n, delta, c_const = config.n, config.delta, config.c_const
    scenario = config.scenario
    if scenario == "graph-adversarial":
        budget = worst_case_budget_graph(n, noise, delta).q
        plan = graph_search.adversarial_plan(n, noise, delta, budget)
    elif scenario == "graph-lv-distr":
        plan = graph_search.lv_distributional_plan(mu, noise, delta)
    elif scenario == "graph-lv-adv":
        plan = graph_search.lv_adversarial_plan(n, noise, delta, config.c_prime)
    elif scenario == "bin-adversarial":
        budget = worst_case_budget_linear(n, noise, delta, c_const).q
        plan = linear_search.adversarial_plan(n, noise, delta, c_const, budget)
    elif scenario == "bin-lv-distr":
        plan = linear_search.lv_distributional_plan(mu, noise, delta, c_const)
    else:
        plan = linear_search.lv_adversarial_plan(n, noise, delta, c_const)
    if plan.max_steps > MAX_TRIAL_QUERIES:
        raise DomainError(
            f"p={config.p} gives each trial a budget or cap of {plan.max_steps} queries, "
            f"more than MAX_TRIAL_QUERIES={MAX_TRIAL_QUERIES}"
        )
    ctx = _Context(config, noise, graph=None, dist=None, mu=mu, plan=plan)
    if _is_graph_scenario(config.scenario):
        if config.graph_path is not None:
            graph = load_graph(config.graph_path)
        elif config.gen is not None:
            graph = generate_graph(
                config.gen, config.n, np.random.default_rng([config.seed, 0xB1D])
            )
        else:
            raise DomainError(
                f"scenario {config.scenario} needs graph_path or a generator name in gen"
            )
        if graph.n != config.n:
            source = config.graph_path or f"--gen {config.gen}"
            raise DomainError(f"{source}: graph has {graph.n} vertices but config.n={config.n}")
        ctx.graph, ctx.dist = graph, all_pairs_distances(graph)
    return ctx


def _trial_rng(seed: int, trial: int, target: int | None = None) -> np.random.Generator:
    entropy = [seed, trial] if target is None else [seed, target, trial]
    return np.random.default_rng(entropy)


def _trial_start(ctx: _Context, index: int) -> tuple[int, np.random.Generator]:
    """The target of trial index and the rng stream the trial goes on with."""
    config = ctx.config
    rng = _trial_rng(config.seed, index, config.fixed_target)
    if config.fixed_target is not None:
        target = config.fixed_target
    elif _is_distributional(config.scenario):
        target = int(rng.choice(ctx.mu.n, p=ctx.mu.masses))
    else:
        target = int(rng.integers(config.n))
    return target, rng


def _policy(config: ExperimentConfig) -> NoisePolicy:
    return NoisePolicy(p=config.p, lie_choice=config.lie_choice)


def _keeps_transcript(config: ExperimentConfig, index: int) -> bool:
    return config.keep_transcripts and index < 5


def _outcome(t, keep: bool) -> TrialOutcome:
    return TrialOutcome(
        hit=t.target_hit,
        queries=t.query_count,
        flagged=t.flagged,
        phase_one=-1 if t.phase_one_queries is None else t.phase_one_queries,
        marked_count=-1 if t.marked is None else len(t.marked),
        completed_epochs=-1 if t.completed_epochs is None else t.completed_epochs,
        transcript=t if keep else None,
    )


def _run_graph_chunk(ctx: _Context, indices: range) -> list[TrialOutcome]:
    """Trials indices of a graph scenario, run as one chunk of the engine."""
    config = ctx.config
    policy = _policy(config)
    oracles = []
    for index in indices:
        target, rng = _trial_start(ctx, index)
        oracles.append(GraphOracle(ctx.graph, ctx.dist, target, policy, rng))
    keep = [_keeps_transcript(config, index) for index in indices]
    transcripts = graph_search.search(ctx.graph, ctx.noise, ctx.plan, oracles, keep)
    return [_outcome(t, k) for t, k in zip(transcripts, keep)]


def _run_trial(ctx: _Context, index: int) -> TrialOutcome:
    """One trial of a comparison scenario."""
    config = ctx.config
    target, rng = _trial_start(ctx, index)
    oracle = LinearOracle(config.n, target, _policy(config), rng)
    t = linear_search.search(ctx.plan, ctx.noise, oracle)
    return _outcome(t, _keeps_transcript(config, index))


def _run_task(ctx: _Context, indices: range) -> list[TrialOutcome]:
    if _is_graph_scenario(ctx.config.scenario):
        return _run_graph_chunk(ctx, indices)
    return [_run_trial(ctx, i) for i in indices]


_POOL_CTX: _Context | None = None


def _pool_init(ctx: _Context) -> None:
    global _POOL_CTX
    _POOL_CTX = ctx


def _pool_task(indices: range) -> list[TrialOutcome]:
    assert _POOL_CTX is not None
    return _run_task(_POOL_CTX, indices)


def _worker_count(config: ExperimentConfig) -> int:
    if config.workers is not None:
        return max(1, config.workers)
    env = os.environ.get("NOISY_SEARCH_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError as exc:
            raise DomainError(
                f"NOISY_SEARCH_THREADS must be an integer, got {env!r}"
            ) from exc
    return 1


def _theoretical_bound(ctx: _Context) -> float:
    """delta, or the stopping plan's ceiling at H(mu) or log2 n bits."""
    ceiling = ctx.plan.ceiling
    if ceiling is None:
        return ctx.config.delta
    return ceiling(math.log2(ctx.config.n) if ctx.mu is None else dist_entropy(ctx.mu))


def _summarize(ctx: _Context, outcomes: list[TrialOutcome]) -> SummaryStats:
    config = ctx.config
    trials = len(outcomes)
    queries = np.array([o.queries for o in outcomes], dtype=np.float64)
    errors = sum(1 for o in outcomes if not o.hit or o.flagged)
    flagged = sum(1 for o in outcomes if o.flagged)
    ci_low, ci_high = wilson_interval(errors, trials)
    mean_q = float(queries.mean())
    std_q = float(queries.std(ddof=1)) if trials > 1 else 0.0
    sem_q = std_q / math.sqrt(trials) if trials > 0 else 0.0
    error_rate = errors / trials
    bound = _theoretical_bound(ctx)
    extras = {"sem_queries": sem_q, "errors": errors}
    if ctx.plan.ceiling is None:
        satisfied = ci_high <= bound
        extras["min_trials_for_bound"] = min_trials_for_bound(bound)
    else:
        satisfied = (mean_q <= bound + sem_q) and (error_rate <= config.delta)
    phase = [o.phase_one for o in outcomes if o.phase_one >= 0]
    if phase:
        extras["mean_phase_one"] = float(np.mean(phase))
        extras["max_phase_one"] = int(max(phase))
        extras["min_phase_one"] = int(min(phase))
        extras["max_marked"] = int(max(o.marked_count for o in outcomes))
        extras["max_completed_epochs"] = int(max(o.completed_epochs for o in outcomes))
    sample = [o.transcript for o in outcomes[:5] if o.transcript is not None]
    return SummaryStats(
        scenario=config.scenario,
        n=config.n,
        p=config.p,
        delta=config.delta,
        trials=trials,
        seed=config.seed,
        mean_queries=mean_q,
        std_queries=std_q,
        max_queries=float(queries.max()),
        error_rate=error_rate,
        error_ci_low=ci_low,
        error_ci_high=ci_high,
        theoretical_bound=bound,
        bound_satisfied=bool(satisfied),
        flagged_trials=flagged,
        extras=extras,
        transcript_sample=sample,
    )


def _chunk_trials(ctx: _Context) -> int:
    """graph_search.chunk_rows of the store of the built context's chunks."""
    g, store = ctx.graph, graph_search.graph_store(ctx.graph, ctx.dist, ctx.plan.prior)
    return graph_search.chunk_rows(store, g.n, g.grid_shape)


def _task_trials(config: ExperimentConfig, workers: int, chunk: int) -> int:
    """Trials in one pool task: a graph chunk of at most chunk trials, split
    so every worker gets some, or COMPARISON_TASK_TRIALS single trials."""
    if _is_graph_scenario(config.scenario):
        return min(chunk, -(-config.trials // workers))
    return COMPARISON_TASK_TRIALS


def _run_many(ctx: _Context) -> list[TrialOutcome]:
    """Every trial, in tasks of _task_trials consecutive indices. A trial's
    outcome does not depend on the task it ran in."""
    config = ctx.config
    workers = _worker_count(config)
    chunk = 0 if ctx.graph is None else _chunk_trials(ctx)
    size = _task_trials(config, workers, chunk)
    tasks = [range(i, min(i + size, config.trials)) for i in range(0, config.trials, size)]
    if workers <= 1:
        return [o for task in tasks for o in _run_task(ctx, task)]
    with ProcessPoolExecutor(
        max_workers=workers, initializer=_pool_init, initargs=(ctx,)
    ) as pool:
        return [o for chunk in pool.map(_pool_task, tasks) for o in chunk]


def _check_output(path: str | None) -> None:
    """Open the output file for appending, so an unwritable path fails
    with an OSError naming it before any trial runs; emit rewrites it."""
    if path:
        with open(path, "a", encoding="utf-8"):
            pass


def run_experiment(config: ExperimentConfig) -> SummaryStats:
    """Execute config.trials independent trials and aggregate them.

    Writes the output file when config.output is set; a path that cannot
    be written fails before the first trial. The returned stats carry
    bound_satisfied; the CLI turns a False into a nonzero exit.
    """
    if config.scenario == "verify-invariants":
        _check_inputs(config)
        _check_output(config.output)
        stats = _run_invariant_scenario(config)
    else:
        ctx = _build_context(config)
        _check_output(config.output)
        stats = _summarize(ctx, _run_many(ctx))
    if config.output:
        emit([stats], config.fmt, config.output, keep_transcripts=config.keep_transcripts)
    return stats


def adversarial_sweep(config: ExperimentConfig) -> list[SummaryStats]:
    """Run config.trials trials for every fixed target and report each.

    The empirical adversarial value is the maximum over targets of the
    error rate and of the mean query count; rows come back in target
    order. Refused above n = 256: enumerate-and-sweep is a desk-scale
    tool, sample targets instead for larger instances.
    """
    if config.n > 256:
        raise DomainError(
            f"target sweep is limited to n <= 256 (got n={config.n}); "
            "sample targets with the plain scenario instead"
        )
    if config.scenario == "verify-invariants":
        raise DomainError("verify-invariants has no targets to sweep")
    if _is_distributional(config.scenario):
        raise DomainError(f"{config.scenario} bounds its error on average over mu, not per target")
    results = []
    base = _build_context(config)
    _check_output(config.output)
    for target in range(config.n):
        ctx = replace(base, config=replace(config, fixed_target=target))
        stats = _summarize(ctx, _run_many(ctx))
        stats.extras["target"] = target
        results.append(stats)
    if config.output:
        emit(results, config.fmt, config.output, keep_transcripts=config.keep_transcripts)
    return results


def _run_invariant_scenario(config: ExperimentConfig) -> SummaryStats:
    """verify-invariants: both fuzzers of the fuzz module, one row."""
    g = fuzz_graph_invariants(transcripts=config.trials, seed=config.seed)
    b = fuzz_binary_invariants(transcripts=config.trials, seed=config.seed)
    violations = (
        g["drop_violations"]
        + g["halving_violations"]
        + g["interval_violations"]
        + b["coupled_violations"]
    )
    total = g["transcripts"] + b["transcripts"]
    return SummaryStats(
        scenario=config.scenario,
        n=config.n,
        p=config.p,
        delta=config.delta,
        trials=total,
        seed=config.seed,
        mean_queries=g["steps"] / max(g["transcripts"], 1),
        std_queries=0.0,
        max_queries=0.0,
        error_rate=violations / total,
        error_ci_low=0.0,
        error_ci_high=0.0,
        theoretical_bound=0.0,
        bound_satisfied=violations == 0,
        flagged_trials=0,
        extras={**g, **b},
    )


# ---------------------------------------------------------------------------
# Output emission
# ---------------------------------------------------------------------------


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _transcript_dict(t) -> dict:
    out = {
        "declared": t.declared,
        "query_count": t.query_count,
        "target_hit": t.target_hit,
        "flagged": t.flagged,
    }
    if t.queries is not None:
        out["queries"] = [
            [r.step, r.query, r.answer.kind, r.answer.vertex, r.answer.is_lie]
            for r in t.queries
        ]
    return out


def emit(results, fmt: str, path, keep_transcripts: bool = False) -> None:
    """Write summary rows as CSV (fixed 15-column schema) or JSON.

    The JSON document mirrors the CSV schema under "results", puts each
    row's extras (a sweep's target, the fuzzer counts of verify-invariants,
    the phase counts of a comparison search) in "extras", a list parallel
    to "results", and adds a "transcript_sample" array when transcripts
    were kept. Output is deterministic: floats are emitted with repr
    round-tripping.
    """
    if fmt not in ("csv", "json"):
        raise DomainError(f"format must be csv or json, got {fmt!r}")
    rows = [r.row() for r in results]
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow([_csv_cell(row[c]) for c in CSV_COLUMNS])
        payload = buf.getvalue()
    else:
        doc: dict = {"results": rows, "extras": [r.extras for r in results]}
        if keep_transcripts:
            doc["transcript_sample"] = [
                _transcript_dict(t) for r in results for t in r.transcript_sample
            ]
        payload = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(payload)
