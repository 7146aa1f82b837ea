"""Noisy target search: multiplicative weight strategies on graphs and
linear orders, plus a Monte Carlo harness that checks their guarantees."""

from .mathcore import (
    BudgetResult,
    Distribution,
    DomainError,
    NoiseParams,
    binary_entropy,
    dist_entropy,
    epoch_length,
    info_rate,
    solve_quadratic_threshold,
    worst_case_budget_graph,
    worst_case_budget_linear,
)
from .weights import (
    CompatibleSet,
    WeightState,
    bayesian_update,
    heaviest,
    init_from_distribution,
    init_uniform,
    is_heavy,
)
from .graph import (
    DistanceMatrix,
    Graph,
    GraphFormatError,
    all_pairs_distances,
    consistent_set,
    load_graph,
    weighted_median,
)
from .oracle import (
    Answer,
    GraphOracle,
    LinearOracle,
    NoisePolicy,
    ProtocolError,
    graph_answer,
    heavy_filter,
    linear_answer,
    load_distribution,
)
from .graph_search import SearchTranscript
from .harness import ExperimentConfig, SummaryStats, adversarial_sweep, emit, run_experiment

__version__ = "0.1.0"
