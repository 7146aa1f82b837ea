"""Per-trial results of bare graph and comparison searches, pinned by digest.

A fixed-budget summary (mean queries = budget, error 0) reads the same
whatever each trial declared, so a change that moves single trials (a
skipped lie coin, a median that breaks a tie the other way, a weight that
differs in its last bit) can pass every summary check. Each config below
hashes, trial by trial, (declared vertex, query count, flagged,
final_target_log2.hex()) of a small seeded chunk. The path and tree
digests were computed on the step-function tree rows
(tree_rows.TreeRows: a light row is the prior times a step function over
preorder positions, its median a walk up the tree with two prefix reads a
step). Before they were replaced, every recorded query sequence of every
config here was shown equal to the dense preorder matrix's that preceded
them, which rounds apart only in final_target_log2 (by at most 2.9e-14).
The grid digests were computed on the factored grid kernel (grid_rows.GridRows:
a light row is two line vectors, a scalar and a few points, and its median
comes from its marginals through graph.marginal_medians); the dense grid
matrix before it rounds apart in the last bits and asks other queries in
some trials, so its grid digests were replaced. They were taken with
numpy 2.4.6 on x86-64; another numpy may draw or round differently, so a
mismatch there first means: recompute on the older code with that numpy.

The recorded configs (RECORDED_CONFIGS) cover the other generators and the
adversarial lie on trees: each trial keeps its QueryRecords, and the digest
hashes the trial line above and then, record by record, (step, query, answer
kind, answer vertex, is_lie). The cycle and gnm digests were computed on the
engine that still gathered every light tree row into vertex order before
its reply and kept a compatible-set size in each record; the star and
random-tree ones on the step-function tree rows, as above.

The comparison configs run linear_search's run_* entry points one trial at
a time and hash, trial by trial, (declared, query count, flagged, phase-one
queries, verify queries, marked pivots, completed epochs) and the epoch_log
rows with their floats as hex. Their digests were computed on the code in
which the three comparison entry points each carried their own verify and
transcript block; the one comparison search must reproduce them bit for
bit.

Run on its own (as CI does, before tier-1) with
    PYTHONPATH=src python -m pytest -q tests/test_seeded_digest.py
"""

import hashlib

import numpy as np
import pytest

from noisysearch import linear_search
from noisysearch.graph import (
    cycle_graph,
    gnm_edges,
    gnm_graph,
    grid_graph,
    path_graph,
    random_tree,
    star_graph,
)
from noisysearch.graph_search import adversarial_plan, lv_adversarial_plan, search
from noisysearch.mathcore import NoiseParams
from noisysearch.harness import dyadic_distribution, geometric_distribution
from noisysearch.mathcore import Distribution
from noisysearch.oracle import GraphOracle, LinearOracle, NoisePolicy

# name: (graph builder, plan, p, delta, noise policy fields, trials)
CONFIGS = {
    "grid-fixed": (lambda rng: grid_graph(16, 16), "fixed", 0.3, 0.1, {}, 48),
    "grid-fixed-random-tiebreak-heaviest-lie": (
        lambda rng: grid_graph(9, 14), "fixed", 0.25, 0.1,
        {"truthful_tiebreak": "random", "lie_choice": "adversarial-heaviest"}, 32,
    ),
    "grid-stopping": (lambda rng: grid_graph(12, 12), "stopping", 0.3, 0.2, {}, 32),
    "path-fixed": (lambda rng: path_graph(300), "fixed", 0.3, 0.1, {}, 32),
    "path-stopping": (lambda rng: path_graph(200), "stopping", 0.2, 0.2, {}, 32),
    "random-tree-stopping": (lambda rng: random_tree(400, rng), "stopping", 0.3, 0.2, {}, 32),
}

DIGESTS = {
    ("grid-fixed", 1):
        "01fc152c8283b1854c706e4c4f410661e73a0b40203dc94596427356a60f7564",
    ("grid-fixed", 2):
        "7abb63fc54fc1cf6d196ede37bbfcabbb01c82865722c650c234d2e3e7a2221f",
    ("grid-fixed-random-tiebreak-heaviest-lie", 1):
        "42464f3ffb5c0c58e85d0869d6e7945c78ff340cd55a1cf060740e9058a2680b",
    ("grid-fixed-random-tiebreak-heaviest-lie", 2):
        "c37a3201a38a40714bb8e738d8660971f9b2f71ea959477fb4234db8f88993ee",
    ("grid-stopping", 1):
        "0a5efa69421905d1165e8fd291c18ffa7baa7da9b280e6684347f4ceed986f6b",
    ("grid-stopping", 2):
        "3a14eebdd8165bc5ab9705b7699b9e39d99ca4965351b3ee3ea57092b54215fd",
    ("path-fixed", 1):
        "3cb03323cbf567c6382a704d6ba45bf4e09dabf9e6f898b0a812eafe42143e6e",
    ("path-fixed", 2):
        "427b75f05bfb0c6daee2f599545c4004e2d06d2affe48908254554b85a0ec0f4",
    ("path-stopping", 1):
        "07850800bb4a0aff63bea05e89b321977e80ed55dfcc17ad5702f8d3514c2040",
    ("path-stopping", 2):
        "4fa5c0256589e6c2ad3f5c6a41b96c1ef91ae8d2112b919fe417780c16b6f7bb",
    ("random-tree-stopping", 1):
        "c3c4c102650aebe9e4878d778f71cfb438abc1a200d456af4c270eabc5a1192a",
    ("random-tree-stopping", 2):
        "f52de82cb27991afbe3bde506fb97047f269f496e6c8e72dc0cf3403b7a61828",
}

HEAVIEST_LIE = {"truthful_tiebreak": "random", "lie_choice": "adversarial-heaviest"}

# as CONFIGS, for runs that record every query
RECORDED_CONFIGS = {
    "cycle-fixed": (lambda rng: cycle_graph(60), "fixed", 0.3, 0.1, {}, 24),
    "gnm-stopping": (lambda rng: gnm_graph(80, gnm_edges(80), rng), "stopping", 0.25, 0.2, {}, 24),
    "star-fixed-random-tiebreak-heaviest-lie": (
        lambda rng: star_graph(50), "fixed", 0.3, 0.1, HEAVIEST_LIE, 24,
    ),
    "random-tree-stopping-random-tiebreak-heaviest-lie": (
        lambda rng: random_tree(300, rng), "stopping", 0.3, 0.2, HEAVIEST_LIE, 24,
    ),
}

RECORDED_DIGESTS = {
    ("cycle-fixed", 1):
        "a98ef8e426ef680c8623e3e66ce7de5dac7bbb09f113f0effa65b690ac4f4442",
    ("cycle-fixed", 2):
        "391b856c82307bd9e37fbc73fcea3d49286d3188ceeca908b1387d5b9006b74d",
    ("gnm-stopping", 1):
        "ee6d0fa6b33c59284c333a70d18d45dce6e97167f8fe1a091f665d3e12a4f0e0",
    ("gnm-stopping", 2):
        "ead97dc801678a1944ca8081605b979088d83d705fbc1413eda4b885778afbdf",
    ("star-fixed-random-tiebreak-heaviest-lie", 1):
        "ccfc1c0ca98b640f36624e6e4804304b55027862149cc6387ba06a9b36f3cf73",
    ("star-fixed-random-tiebreak-heaviest-lie", 2):
        "d036af8ac7c3e8402e60314eabf9de92bc6fe9e3dd71e3d7b7ff560be2479dc4",
    ("random-tree-stopping-random-tiebreak-heaviest-lie", 1):
        "e41026ac516079675470d33657f17c9ed3ce30e796d3d6426db660f6f9c1f324",
    ("random-tree-stopping-random-tiebreak-heaviest-lie", 2):
        "7a849f74ac0e67debb10c8771209144a742100c7452e819b607c9417e572c6e3",
}

# name: (variant, n, p, delta, prior of lv-distr, trials)
COMPARISON_CONFIGS = {
    "bin-adversarial": ("adversarial", 300, 0.3, 0.1, None, 64),
    "bin-lv-distr-geometric": ("lv-distr", 64, 0.3, 0.2, geometric_distribution, 64),
    "bin-lv-distr-dyadic": ("lv-distr", 200, 0.2, 0.2, dyadic_distribution, 64),
    "bin-lv-adv": ("lv-adv", 256, 0.3, 0.2, None, 64),
}

COMPARISON_DIGESTS = {
    ('bin-adversarial', 1):
        "0412b68e883d923d1a9339ca37969d24d8036ed070d8f1e39e52477480f6b3c3",
    ('bin-adversarial', 2):
        "bcf9d3d5c35b51e276a3a4a01158a53853f6bfa0062d86095ac7366603afc0c5",
    ('bin-lv-distr-geometric', 1):
        "8a53d8759b0aea5ae4ffdeaaa8f7b675f5601f50c49cd56631dfcad1b4a33ce8",
    ('bin-lv-distr-geometric', 2):
        "11b5775b78f638c985cf3e6065cdf49b3397593a7f06c4ec2d8ffc426cc3a548",
    ('bin-lv-distr-dyadic', 1):
        "0835eeb00e0b929c2a2caed9d10241eb8c0d488bfea1c5432d4b90e05b034c90",
    ('bin-lv-distr-dyadic', 2):
        "ec0cc3c194988b257ff1f7be7aca0c0ed1ceaca312b64e1df6f3ff57ee9a075a",
    ('bin-lv-adv', 1):
        "907138f89a69b412783e5a30030269fa83da289f7d11499b29dc410f85c4e492",
    ('bin-lv-adv', 2):
        "3d7b52cf8cfc3020f1c48b3c295ad1cbf667c334294b22bbe937d1670f5b0c4f",
}


def trial_digest(name: str, seed: int, configs=CONFIGS) -> str:
    build, kind, p, delta, policy_fields, trials = configs[name]
    record = configs is RECORDED_CONFIGS
    rng = np.random.default_rng([seed, 0])
    g = build(rng)
    noise = NoiseParams.from_p(p)
    policy = NoisePolicy(p=p, **policy_fields)
    if kind == "fixed":
        plan = adversarial_plan(g.n, noise, delta)
    else:
        plan = lv_adversarial_plan(g.n, noise, delta)
    targets = rng.integers(0, g.n, size=trials).tolist()
    oracles = [
        GraphOracle(g, t, policy, np.random.default_rng([seed, 1, i]))
        for i, t in enumerate(targets)
    ]
    out = search(g, noise, plan, oracles, [record] * trials)
    digest = hashlib.sha256()
    for tr in out:
        line = (tr.declared, tr.query_count, tr.flagged, float(tr.final_target_log2).hex())
        digest.update(repr(line).encode())
        for r in tr.queries or ():
            a = r.answer
            digest.update(repr((r.step, r.query, a.kind, a.vertex, a.is_lie)).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("name, seed", sorted(DIGESTS))
def test_per_trial_results_match_their_digest(name, seed):
    assert trial_digest(name, seed) == DIGESTS[name, seed]


@pytest.mark.parametrize("name, seed", sorted(RECORDED_DIGESTS))
def test_recorded_queries_match_their_digest(name, seed):
    assert trial_digest(name, seed, RECORDED_CONFIGS) == RECORDED_DIGESTS[name, seed]


def comparison_digest(name: str, seed: int) -> str:
    variant, n, p, delta, prior, trials = COMPARISON_CONFIGS[name]
    noise = NoiseParams.from_p(p)
    mu = prior(n) if prior is not None else Distribution.uniform(n)
    digest = hashlib.sha256()
    for i in range(trials):
        rng = np.random.default_rng([seed, i])
        target = int(rng.choice(n, p=mu.masses))
        oracle = LinearOracle(n, target, NoisePolicy(p=p), rng)
        if variant == "adversarial":
            t = linear_search.run_adversarial(n, noise, delta, oracle)
        elif variant == "lv-distr":
            t = linear_search.run_lv_distributional(n, mu, noise, delta, oracle)
        else:
            t = linear_search.run_lv_adversarial(n, noise, delta, oracle)
        line = (
            t.declared, t.query_count, t.flagged, t.phase_one_queries,
            t.verify_queries, t.marked, t.completed_epochs,
            [(step, bound.hex(), float(mass).hex()) for step, bound, mass in t.epoch_log],
        )
        digest.update(repr(line).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("name, seed", sorted(COMPARISON_DIGESTS))
def test_comparison_trials_match_their_digest(name, seed):
    assert comparison_digest(name, seed) == COMPARISON_DIGESTS[name, seed]
