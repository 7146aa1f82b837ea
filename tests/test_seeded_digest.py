"""Per-trial results of bare graph and comparison searches, pinned by digest.

A fixed-budget summary (mean queries = budget, error 0) reads the same
whatever each trial declared, so a change that moves single trials (a
skipped lie coin, a median that breaks a tie the other way, a weight that
differs in its last bit) can pass every summary check. Each config below
hashes, trial by trial, (declared vertex, query count, flagged,
final_target_log2.hex()) of a small seeded chunk. The digests were
computed on the engine that still took grid medians as the argmin of the
full cost matrix and scaled grid reply sets row by row; the grid kernel
(grid_medians, scale_grid_lines) must reproduce them bit for bit. They
were taken with numpy 2.4.6 on x86-64; another numpy may draw or
round differently, so a mismatch there first means: recompute on the
older code with that numpy.

The recorded configs (RECORDED_CONFIGS) cover the other generators and the
adversarial lie on trees: each trial keeps its QueryRecords, and the digest
hashes the trial line above and then, record by record, (step, query, answer
kind, answer vertex, is_lie). Their digests were computed on the engine that
still gathered every light tree row into vertex order before its reply and
kept a compatible-set size in each record.

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
    all_pairs_distances,
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
        "2b369296b0ac916defe6e8d91df56603c9ed89f1e2af6bd3ea2fba2e72a80412",
    ("grid-fixed", 2):
        "281b5ffcc6330a6917016c458dddaf755381b23e3ae3877b608d785c8aae202d",
    ("grid-fixed-random-tiebreak-heaviest-lie", 1):
        "ebeb8e6424cf5d5c87715db37ba48c3e3930a7d635d6ebe0741f18b5c1112e66",
    ("grid-fixed-random-tiebreak-heaviest-lie", 2):
        "ec78f800fb77ca743b3de0eb2d87eebecad932826fa343cde321e623cd96b71b",
    ("grid-stopping", 1):
        "92de138344d1ebeb8dcd13a9377aea297c8473ae383c32e763823d1411e8619f",
    ("grid-stopping", 2):
        "698e6d32dc6eb6242019d630a8b6224c1461aa53b584767668a1065677da39bd",
    ("path-fixed", 1):
        "ef7d4617e2037d39c86029767abffcafb21ec75eb2944d65368ca91a2d2482b0",
    ("path-fixed", 2):
        "90e166856bbc63f3716ba5fef3ecae0a3f1369228f7b9be136c0d678e125aca4",
    ("path-stopping", 1):
        "ecc8d4e9a2bf0ed2c8f2119e7870a021a76a8dc3e6d11eb41092162d734624e9",
    ("path-stopping", 2):
        "7ebd5f2161171ec5064b93d2fe27713955423ff1aab76d77e5eb5cc059f313a0",
    ("random-tree-stopping", 1):
        "f8c6806362d10a985af7193578ee71ec392c7c10384ee023ba8bd9d44881b47b",
    ("random-tree-stopping", 2):
        "24695dad36445956da3be4ab6deba325d0e610f495a79d3259814dd904f476c6",
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
        "5277371333ab0ea7857e465f47485acecc98affc8757696c6c93b11eb0b55d8a",
    ("star-fixed-random-tiebreak-heaviest-lie", 2):
        "3bd305aff0a03d0167fb2b9389996f7418d0a63824fc35ef32e21d2114fcdc75",
    ("random-tree-stopping-random-tiebreak-heaviest-lie", 1):
        "a3eba9445a59c0c8043e7252a1b8a8dcc8d5d526e80fa32628da3dfbe294fe93",
    ("random-tree-stopping-random-tiebreak-heaviest-lie", 2):
        "26d0dd069814a61c6898d1a58a7f972e3e27a5c67c5be4b17dcdb94bd18ed7e2",
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
    d = all_pairs_distances(g)
    noise = NoiseParams.from_p(p)
    policy = NoisePolicy(p=p, **policy_fields)
    if kind == "fixed":
        plan = adversarial_plan(g.n, noise, delta)
    else:
        plan = lv_adversarial_plan(g.n, noise, delta)
    targets = rng.integers(0, g.n, size=trials).tolist()
    oracles = [
        GraphOracle(g, d, t, policy, np.random.default_rng([seed, 1, i]))
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
