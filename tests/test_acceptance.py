"""Acceptance suite: every advertised guarantee at its stated tolerance.

Each criterion is one test that prints a single pass/fail line with the
measured numbers (run with -s to see the lines on success). Deterministic
laws run fuzzed with zero tolerance for violations; probabilistic bounds
run as seeded Monte Carlo at the trial counts stated in the assertions.
"""

import math
import time
from fractions import Fraction

import numpy as np

from noisysearch import graph_search, linear_search
from noisysearch.graph import (
    cycle_graph,
    gnm_graph,
    path_graph,
    star_graph,
    weighted_median,
)
from noisysearch.harness import (
    ExperimentConfig,
    dyadic_distribution,
    fuzz_binary_invariants,
    fuzz_graph_invariants,
    geometric_distribution,
    run_experiment,
)
from noisysearch.linear_search import central_element, lv_linear_overhead
from noisysearch.mathcore import (
    Distribution,
    NoiseParams,
    dist_entropy,
    solve_quadratic_threshold,
    worst_case_budget_graph,
    worst_case_budget_linear,
)
from noisysearch.oracle import Answer, LinearOracle, NoisePolicy, heavy_filter, linear_answer
from noisysearch.weights import bayesian_update, init_uniform, is_heavy


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_c01_deterministic_weight_drop():
    # 10^3 fuzzed graph transcripts (n <= 64, p in {0.1, 0.25, 0.4}, both
    # lie policies): mass outside the heaviest vertex <= 2^-t, always
    start = time.time()
    r = fuzz_graph_invariants(transcripts=1000, seed=2025)
    elapsed = time.time() - start
    ok = (
        r["drop_violations"] == 0
        and r["halving_violations"] == 0
        and r["interval_violations"] == 0
        and elapsed < 60.0
    )
    report(
        1,
        ok,
        f"{r['transcripts']} transcripts / {r['steps']} steps, "
        f"violations drop={r['drop_violations']} halving={r['halving_violations']} "
        f"interval={r['interval_violations']}, worst excess {r['worst_drop_excess']:.2e}, "
        f"{elapsed:.1f}s",
    )


def test_c02_median_bisection():
    # 10^3 random (graph, weights): every neighbor-reply set at a median
    # holds at most half the weight
    from noisysearch.graph import consistent_set, generate_graph, random_tree
    from noisysearch.mathcore import Distribution
    from noisysearch.weights import init_from_distribution

    violations = 0
    worst = 0.0
    checked = 0
    for i in range(1000):
        rng = np.random.default_rng([2026, i])
        n = int(rng.integers(2, 65))
        kind = int(rng.integers(4))
        if kind == 0:
            g = random_tree(n, rng)
        elif kind == 1:
            g = gnm_graph(max(n, 4), min(2 * n, max(n, 4) * (max(n, 4) - 1) // 2), rng)
        elif kind == 2:
            g = generate_graph("grid", n)
        else:
            g = path_graph(n)
        st = init_from_distribution(
            Distribution.from_weights(rng.uniform(1e-6, 1.0, size=g.n))
        )
        q = weighted_median(g, st)
        for u in g.adjacency[q]:
            mass = float(st.relative[consistent_set(g, q, Answer(kind="neighbor", vertex=u)).mask].sum())
            worst = max(worst, mass)
            checked += 1
            if mass > 0.5 + 1e-9:
                violations += 1
    ok = violations == 0
    report(2, ok, f"1000 instances / {checked} reply sets, violations={violations}, worst mass {worst:.12f}")


def _exact_graph_posterior_tree(g, depth, noise, p_frac):
    """DFS over every reply sequence; compare float weights against exact
    rational per-hypothesis likelihoods at every node. Returns (nodes
    visited, worst absolute deviation)."""
    n = g.n
    worst = 0.0
    nodes = 0

    def recurse(state, likelihood, depth_left):
        nonlocal worst, nodes
        nodes += 1
        total = sum(likelihood)
        for v in range(n):
            expected = float(likelihood[v] / total)
            worst = max(worst, abs(float(state.relative[v]) - expected))
        if depth_left == 0:
            return
        q = weighted_median(g, state)
        was_heavy = is_heavy(state, q, 0.5)
        replies = [Answer(kind="yes")] + [Answer(kind="neighbor", vertex=u) for u in g.adjacency[q]]
        for reply in replies:
            comp = heavy_filter(reply, q, was_heavy, g)
            new_state = bayesian_update(state, comp, noise)
            new_like = [
                likelihood[v] * ((1 - p_frac) if comp.mask[v] else p_frac)
                for v in range(n)
            ]
            recurse(new_state, new_like, depth_left - 1)

    recurse(init_uniform(n), [Fraction(1, n)] * n, depth)
    return nodes, worst


def _error_pattern_enumeration(compat_masks, p_frac, n):
    """Literal brute force: sum pattern probabilities over all 2^t error
    patterns, keeping only the pattern consistent with each hypothesis."""
    t = len(compat_masks)
    out = []
    for v in range(n):
        acc = Fraction(0)
        for pattern in range(2**t):
            ok = True
            for step in range(t):
                erred = bool((pattern >> step) & 1)
                if erred == bool(compat_masks[step][v]):
                    ok = False
                    break
            if ok:
                errs = bin(pattern).count("1")
                acc += p_frac**errs * (1 - p_frac) ** (t - errs)
        out.append(acc)
    return out


def test_c03_posterior_oracle_equivalence():
    # n <= 6, every reply sequence of length <= 8 (branching-capped for
    # dense graphs): float weights equal exact conditional probabilities
    noise = NoiseParams.from_p(0.25)
    p_frac = Fraction(1, 4)
    worst = 0.0
    total_nodes = 0
    for g, depth in (
        (path_graph(6), 8),
        (cycle_graph(5), 7),
        (star_graph(5), 5),
        (gnm_graph(6, 9, np.random.default_rng(77)), 5),
    ):
        nodes, dev = _exact_graph_posterior_tree(g, depth, noise, p_frac)
        total_nodes += nodes
        worst = max(worst, dev)

    # same property for the comparison model, all 2^8 answer sequences,
    # including the fair-coin pivot likelihood of one half
    n = 6
    worst_lin = 0.0
    lin_nodes = 0

    def recurse_linear(state, likelihood, depth_left, masks):
        nonlocal worst_lin, lin_nodes
        lin_nodes += 1
        total = sum(likelihood)
        for v in range(n):
            dev = abs(float(state.relative[v]) - float(likelihood[v] / total))
            worst_lin = max(worst_lin, dev)
        if depth_left == 0:
            return
        pivot = central_element(state, np.zeros(n, dtype=bool))
        for kind in ("less", "greater"):
            new_state = linear_search.comparison_update(state, pivot, kind, noise)
            factors = []
            for v in range(n):
                if v == pivot:
                    factors.append(Fraction(1, 2))
                elif (v < pivot) == (kind == "less"):
                    factors.append(1 - p_frac)
                else:
                    factors.append(p_frac)
            recurse_linear(
                new_state,
                [likelihood[v] * factors[v] for v in range(n)],
                depth_left - 1,
                masks + [factors],
            )

    recurse_linear(init_uniform(n), [Fraction(1, n)] * n, 8, [])

    # literal error-pattern enumeration cross-check on a short transcript
    g = path_graph(6)
    state = init_uniform(6)
    masks = []
    like = [Fraction(1, 6)] * 6
    for reply in (Answer(kind="neighbor", vertex=3), Answer(kind="neighbor", vertex=2), Answer(kind="yes"), Answer(kind="neighbor", vertex=1)):
        q = weighted_median(g, state)
        legal = [Answer(kind="yes")] + [Answer(kind="neighbor", vertex=u) for u in g.adjacency[q]]
        reply = reply if any(
            reply.kind == lr.kind and reply.vertex == lr.vertex for lr in legal
        ) else legal[0]
        comp = heavy_filter(reply, q, is_heavy(state, q, 0.5), g)
        state = bayesian_update(state, comp, noise)
        masks.append(np.asarray(comp.mask))
        like = [like[v] * ((1 - p_frac) if comp.mask[v] else p_frac) for v in range(6)]
    enumerated = _error_pattern_enumeration(masks, p_frac, 6)
    enum_total = sum(enumerated)
    like_total = sum(like)
    enum_dev = max(
        abs(float(enumerated[v] / enum_total) - float(like[v] / like_total)) for v in range(6)
    )
    pattern_dev = max(
        abs(float(state.relative[v]) - float(enumerated[v] / enum_total)) for v in range(6)
    )

    ok = worst <= 1e-9 and worst_lin <= 1e-9 and enum_dev == 0.0 and pattern_dev <= 1e-9
    report(
        3,
        ok,
        f"{total_nodes} graph nodes (worst dev {worst:.2e}), "
        f"{lin_nodes} comparison nodes (worst dev {worst_lin:.2e}), "
        f"pattern enumeration dev {pattern_dev:.2e}",
    )


def test_c04_graph_adversarial_bounds():
    # path(1024) and grid(32x32), p in {0.25, 0.3}, delta in {0.1, 0.2},
    # 2000 trials each: Wilson upper error bound <= delta, length exactly
    # the defining budget
    lines = []
    ok = True
    for gen in ("path", "grid"):
        for p in (0.25, 0.3):
            for delta in (0.1, 0.2):
                stats = run_experiment(
                    ExperimentConfig(
                        scenario="graph-adversarial", n=1024, p=p, delta=delta,
                        trials=2000, seed=4100, gen=gen,
                    )
                )
                budget = worst_case_budget_graph(1024, NoiseParams.from_p(p), delta).q
                good = (
                    stats.error_ci_high <= delta
                    and stats.mean_queries == budget
                    and stats.max_queries == budget
                    and stats.bound_satisfied
                )
                ok = ok and good
                lines.append(f"{gen}/p={p}/d={delta}: err={stats.error_rate:.4f} hi={stats.error_ci_high:.4f} Q={budget}")
    report(4, ok, "; ".join(lines))


def test_c05_graph_lv_distributional_bounds():
    # n=256 grid, uniform and dyadic priors, 2000 trials: mean queries
    # under (H(mu) + log2(1/delta) + 1)/info_rate within one standard
    # error, and error <= delta
    p, delta = 0.25, 0.1
    lines = []
    ok = True
    for name, mu in (("uniform", Distribution.uniform(256)), ("dyadic", dyadic_distribution(256))):
        stats = run_experiment(
            ExperimentConfig(
                scenario="graph-lv-distr", n=256, p=p, delta=delta,
                trials=2000, seed=4200, gen="grid", mu=mu,
            )
        )
        noise = NoiseParams.from_p(p)
        bound = (dist_entropy(mu) + math.log2(1 / delta) + 1) / noise.info_rate
        good = (
            stats.theoretical_bound == bound
            and stats.mean_queries <= bound + stats.extras["sem_queries"]
            and stats.error_rate <= delta
            and stats.flagged_trials == 0
        )
        ok = ok and good
        lines.append(
            f"{name}: mean={stats.mean_queries:.1f} <= {bound:.1f}, err={stats.error_rate:.4f}"
        )
    report(5, ok, "; ".join(lines))


def test_c06_graph_lv_adversarial_bounds():
    # n=256 grid, delta=0.2: error <= delta and mean queries within the
    # stopping-strategy ceiling evaluated at the rescaled confidence
    p, delta = 0.3, 0.2
    stats = run_experiment(
        ExperimentConfig(
            scenario="graph-lv-adv", n=256, p=p, delta=delta,
            trials=2000, seed=4300, gen="grid",
        )
    )
    dprime = graph_search.rescaled_confidence(256, delta)
    noise = NoiseParams.from_p(p)
    bound = (math.log2(256) + math.log2(1 / dprime) + 1) / noise.info_rate
    ok = (
        stats.error_rate <= delta
        and stats.mean_queries <= bound + stats.extras["sem_queries"]
        and stats.flagged_trials == 0
    )
    report(
        6,
        ok,
        f"mean={stats.mean_queries:.1f} <= {bound:.1f} (delta'={dprime:.2e}), err={stats.error_rate:.4f}",
    )


def test_c07_epoch_expectation_brute_force():
    # expected coupled factor over all 2^k answer sequences equals
    # 2^(-k-1)((1-4e^2)^k + (1+4e^2)^k) to 1e-12
    worst = 0.0
    for eps in (0.05, 0.1, 0.25):
        p = 0.5 - eps
        for k in range(1, 11):
            exp_factor = 0.0
            for seq in range(2**k):
                x = bin(seq).count("1")  # answers agreeing with the target side
                y = k - x
                prob = (1 - p) ** x * p**y
                factor = ((1 - p) ** x * p**y + (1 - p) ** y * p**x) / 2.0
                exp_factor += prob * factor
            closed = 2.0 ** (-k - 1) * ((1 - 4 * eps**2) ** k + (1 + 4 * eps**2) ** k)
            worst = max(worst, abs(exp_factor - closed))
    # frozen spot value: k=2, eps=0.1
    eps = 0.1
    spot = 2.0 ** (-3) * ((1 - 4 * eps**2) ** 2 + (1 + 4 * eps**2) ** 2)
    ok = worst <= 1e-12 and abs(spot - 0.2504) <= 1e-12
    report(7, ok, f"k<=10, eps in (0.05,0.1,0.25): worst |brute - closed| = {worst:.2e}; spot 0.2504 ok")


def test_c08_coupled_bound_fuzz():
    # 10^3 fuzzed comparison transcripts: unmarked mass never exceeds the
    # coupled process at any epoch boundary
    r = fuzz_binary_invariants(transcripts=1000, seed=2027)
    ok = r["coupled_violations"] == 0
    report(
        8,
        ok,
        f"{r['transcripts']} transcripts / {r['boundaries']} boundaries, "
        f"violations={r['coupled_violations']}, worst excess {r['worst_coupled_excess']:.2e}",
    )


def test_c09_binary_adversarial_bounds():
    # n=1024, p=0.3, delta=0.1, 2000 trials: total error <= delta, phase
    # one exactly the defining budget, candidate pool within one of the
    # completed epoch count
    n, p, delta, trials = 1024, 0.3, 0.1, 2000
    noise = NoiseParams.from_p(p)
    budget = worst_case_budget_linear(n, noise, delta, 4.0).q
    errors = 0
    missed_pool = 0
    phase_ok = True
    marked_ok = True
    for i in range(trials):
        rng = np.random.default_rng([4400, i])
        target = int(rng.integers(n))
        oracle = LinearOracle(n, target, NoisePolicy(p=p), rng)
        t = linear_search.run_adversarial(n, noise, delta, oracle)
        errors += not t.target_hit
        missed_pool += target not in t.marked
        phase_ok = phase_ok and t.phase_one_queries == budget
        marked_ok = marked_ok and len(t.marked) <= t.completed_epochs + 1
    rate = errors / trials
    miss_rate = missed_pool / trials
    ok = rate <= delta and miss_rate <= 2 * delta / 3 and phase_ok and marked_ok
    report(
        9,
        ok,
        f"err={rate:.4f} <= {delta}, pool misses {miss_rate:.4f} <= {2 * delta / 3:.4f}, "
        f"phase one == {budget} in all trials: {phase_ok}, |M| <= epochs+1: {marked_ok}",
    )


def test_c10_binary_lv_bounds():
    # distributional runs (uniform and geometric priors, sampled targets)
    # against the frozen-constant ceiling, and a full fixed-target sweep of
    # the adversarial variant at n=64 with per-target error <= delta
    n, p, delta = 64, 0.25, 0.2
    noise = NoiseParams.from_p(p)
    overhead = lv_linear_overhead(n, delta, 4.0)
    lines = []
    ok = True

    for name, mu in (("uniform", Distribution.uniform(n)), ("geometric", geometric_distribution(n))):
        totals, errors, by_target = [], 0, {}
        for i in range(2000):
            rng = np.random.default_rng([4500, i])
            target = int(rng.choice(n, p=mu.masses))
            oracle = LinearOracle(n, target, NoisePolicy(p=p), rng)
            t = linear_search.run_lv_distributional(n, mu, noise, delta, oracle)
            totals.append(t.query_count)
            errors += not t.target_hit
            by_target.setdefault(target, []).append(t.query_count)
        mean = float(np.mean(totals))
        sem = float(np.std(totals, ddof=1)) / math.sqrt(len(totals))
        ceiling = (dist_entropy(mu) + math.log2(1 / delta) + overhead) / noise.info_rate
        good = mean <= ceiling + sem and errors / 2000 <= delta
        # per-realized-target ceilings where the sample supports a mean
        for target, counts in by_target.items():
            if len(counts) >= 100:
                per = (
                    math.log2(1 / mu.masses[target]) + math.log2(1 / delta) + overhead
                ) / noise.info_rate
                good = good and float(np.mean(counts)) <= per
        ok = ok and good
        lines.append(f"lv-distr/{name}: mean={mean:.1f} <= {ceiling:.1f}, err={errors / 2000:.4f}")

    # adversarial variant: sweep every fixed target
    rescaled = delta / 4.0
    adv_ceiling = (
        math.log2(n) + math.log2(1 / rescaled) + lv_linear_overhead(n, rescaled, 4.0)
    ) / noise.info_rate
    worst_err, worst_mean = 0.0, 0.0
    for target in range(n):
        errs, counts = 0, []
        for i in range(250):
            rng = np.random.default_rng([4600, target, i])
            oracle = LinearOracle(n, target, NoisePolicy(p=p), rng)
            t = linear_search.run_lv_adversarial(n, noise, delta, oracle)
            errs += not t.target_hit
            counts.append(t.query_count)
        worst_err = max(worst_err, errs / 250)
        worst_mean = max(worst_mean, float(np.mean(counts)))
    good = worst_err <= delta and worst_mean <= adv_ceiling
    ok = ok and good
    lines.append(
        f"lv-adv sweep: worst err={worst_err:.4f} <= {delta}, worst mean={worst_mean:.1f} <= {adv_ceiling:.1f}"
    )
    report(10, ok, "; ".join(lines))


def test_c11_threshold_solver_residuals():
    # 10^3 random coefficient triples: residual of a*x - b - c*sqrt(x) at
    # the returned root within 1e-9 * max(1, b)
    rng = np.random.default_rng(2028)
    worst_ratio = 0.0
    for _ in range(1000):
        a = float(rng.uniform(0.01, 10.0))
        b = float(rng.uniform(0.0, 100.0))
        c = float(rng.uniform(0.0, 10.0))
        x = solve_quadratic_threshold(a, b, c)
        residual = abs(a * x - b - c * math.sqrt(x))
        worst_ratio = max(worst_ratio, residual / max(1.0, b))
    ok = worst_ratio <= 1e-9
    report(11, ok, f"1000 triples, worst residual ratio {worst_ratio:.2e} <= 1e-9")


def test_c12_noise_channel_statistics():
    # lie frequency within 3 sigma of p over 1e5 queries; lie indicator
    # sequence passes a two-sided runs test at significance 0.01
    n_draws, p = 100_000, 0.3
    rng = np.random.default_rng(2029)
    policy = NoisePolicy(p=p)
    flags = np.empty(n_draws, dtype=bool)
    for i in range(n_draws):
        flags[i] = linear_answer(2, 1, policy, rng).is_lie
    freq = float(flags.mean())
    sigma = math.sqrt(p * (1 - p) / n_draws)
    freq_ok = abs(freq - p) <= 3 * sigma

    ones = int(flags.sum())
    zeros = n_draws - ones
    runs = 1 + int((flags[1:] != flags[:-1]).sum())
    expected = 1.0 + 2.0 * ones * zeros / n_draws
    variance = (expected - 1.0) * (expected - 2.0) / (n_draws - 1.0)
    z = (runs - expected) / math.sqrt(variance)
    runs_ok = abs(z) < 2.5758
    ok = freq_ok and runs_ok
    report(
        12,
        ok,
        f"lie freq {freq:.4f} (target {p} +/- {3 * sigma:.4f}), runs test z={z:.3f} (|z| < 2.5758)",
    )
