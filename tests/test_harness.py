"""Experiment orchestration: determinism, aggregation, emission, sweeps."""

import csv
import inspect
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisysearch import cli, graph, graph_search, harness
from noisysearch.grid_rows import GridRows
from noisysearch.tree_rows import TreeRows
from noisysearch.harness import (
    ExperimentConfig,
    SummaryStats,
    adversarial_sweep,
    dyadic_distribution,
    emit,
    fuzz_binary_invariants,
    fuzz_graph_invariants,
    geometric_distribution,
    min_trials_for_bound,
    run_experiment,
    wilson_interval,
)
from noisysearch.linear_search import lv_linear_overhead
from noisysearch.mathcore import Distribution, DomainError


def config(**overrides):
    base = dict(
        scenario="graph-adversarial",
        n=15,
        p=0.3,
        delta=0.2,
        trials=50,
        seed=7,
        gen="path",
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestWilson:
    def test_zero_successes(self):
        lo, hi = wilson_interval(0, 100)
        assert lo == pytest.approx(0.0, abs=1e-12)
        assert 0.0 < hi < 0.05

    def test_contains_proportion(self):
        lo, hi = wilson_interval(20, 100)
        assert lo < 0.2 < hi

    def test_degenerate_total(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)

    def test_min_trials_for_bound_at_the_usual_deltas(self):
        assert min_trials_for_bound(0.2) == 16
        assert min_trials_for_bound(0.1) == 35
        assert min_trials_for_bound(1e-320) > 10**300  # no float step, no overflow
        with pytest.raises(DomainError):
            min_trials_for_bound(0.0)

    @settings(max_examples=300, deadline=None)
    @given(
        delta=st.floats(1e-6, 1.0)
        | st.builds(
            lambda n, toward: math.nextafter(wilson_interval(0, n)[1], toward),
            st.integers(1, 10**6),
            st.sampled_from([0.0, 1.0]),
        )
    )
    def test_min_trials_for_bound_is_the_first_count_that_shows_delta(self, delta):
        # the count's error-free Wilson upper limit is within delta, and one
        # trial fewer is not; deltas one ulp off a count's own limit are
        # where the closed-form estimate misses by one either way
        trials = min_trials_for_bound(delta)
        assert wilson_interval(0, trials)[1] <= delta
        assert trials == 1 or wilson_interval(0, trials - 1)[1] > delta

    @pytest.mark.parametrize("scenario", ["graph-adversarial", "bin-adversarial"])
    def test_fixed_budget_summaries_carry_min_trials_for_bound(self, scenario):
        gen = "grid" if scenario.startswith("graph-") else None
        stats = run_experiment(config(scenario=scenario, n=16, gen=gen, trials=1))
        assert stats.extras["min_trials_for_bound"] == 16
        assert not stats.bound_satisfied  # one trial cannot show delta = 0.2


class TestRunExperiment:
    def test_rejects_zero_trials(self):
        with pytest.raises(DomainError):
            run_experiment(config(trials=0))

    @pytest.mark.parametrize("scenario", ["graph-adversarial", "bin-lv-adv", "verify-invariants"])
    @pytest.mark.parametrize("bad, match", [(dict(trials=0), "trials"), (dict(seed=-1), "seed")])
    def test_rejects_no_trials_and_negative_seeds_in_every_scenario(self, scenario, bad, match):
        # verify-invariants divided by zero trials, and a negative seed
        # reached numpy's seeding: both were internal errors
        with pytest.raises(DomainError, match=match):
            run_experiment(config(scenario=scenario, **bad))

    def test_rejects_unknown_scenario(self):
        with pytest.raises(DomainError):
            run_experiment(config(scenario="quantum"))

    def test_graph_scenario_needs_graph(self):
        with pytest.raises(DomainError, match="graph_path or a generator"):
            run_experiment(config(gen=None))

    def test_path_adversarial_smoke(self):
        stats = run_experiment(config(trials=300))
        assert stats.trials == 300
        assert stats.error_ci_high <= stats.delta  # Wilson upper within the ceiling
        assert stats.bound_satisfied
        assert stats.max_queries == stats.mean_queries  # fixed budget: every trial equal

    def test_deterministic_stats(self):
        a = run_experiment(config(trials=40))
        b = run_experiment(config(trials=40))
        assert a == b

    def test_byte_identical_outputs(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run_experiment(config(trials=40, output=str(out1)))
        run_experiment(config(trials=40, output=str(out2)))
        assert out1.read_bytes() == out2.read_bytes()

    def test_worker_pool_matches_sequential(self, tmp_path):
        seq = run_experiment(config(trials=24, workers=1))
        par = run_experiment(config(trials=24, workers=2))
        assert seq == par

    def test_env_variable_sizes_pool(self, monkeypatch):
        monkeypatch.setenv("NOISY_SEARCH_THREADS", "2")
        par = run_experiment(config(trials=16))
        monkeypatch.delenv("NOISY_SEARCH_THREADS")
        seq = run_experiment(config(trials=16))
        assert par == seq

    def test_pool_matches_sequential_on_random_tree(self):
        # reaches the median descent and the lazy rows, which path runs skip
        cfg = dict(scenario="graph-lv-adv", n=200, gen="random-tree", trials=24)
        assert run_experiment(config(workers=1, **cfg)) == run_experiment(
            config(workers=2, **cfg)
        )

    @pytest.mark.parametrize(
        "cfg",
        [
            dict(scenario="bin-adversarial", n=300),
            dict(scenario="bin-lv-distr", n=64, mu=geometric_distribution(64)),
        ],
    )
    def test_pool_matches_sequential_on_comparison_search(self, tmp_path, cfg):
        # reaches the gap posterior of the comparison search
        runs = []
        for workers in (1, 2):
            out = tmp_path / f"w{workers}.json"
            stats = run_experiment(
                config(gen=None, p=0.25, trials=80, workers=workers, output=str(out),
                       fmt="json", **cfg)
            )
            runs.append((stats, out.read_bytes()))
        assert runs[0] == runs[1]

    @pytest.mark.parametrize(
        "cfg",
        [
            dict(scenario="graph-adversarial", n=64, gen="grid"),
            dict(scenario="graph-lv-adv", n=60, gen="random-tree"),
        ],
    )
    def test_pool_matches_sequential_on_graph_chunks(self, tmp_path, monkeypatch, cfg):
        # 37 trials in chunks of 8: the last chunk is short, and the two
        # workers get different chunks than the sequential run
        monkeypatch.setattr(graph_search, "CHUNK_BYTES", 8 * 8 * cfg["n"])
        runs = []
        for workers in (1, 2):
            out = tmp_path / f"w{workers}.json"
            stats = run_experiment(
                config(trials=37, workers=workers, output=str(out), fmt="json",
                       keep_transcripts=True, **cfg)
            )
            runs.append((stats, out.read_bytes()))
        assert runs[0] == runs[1]
        assert len(runs[0][0].transcript_sample) == 5

    def test_chunked_run_equals_one_trial_per_chunk(self, monkeypatch):
        cfg = config(scenario="graph-lv-adv", n=30, gen="cycle", trials=21, keep_transcripts=True)
        chunked = run_experiment(cfg)
        monkeypatch.setattr(graph_search, "CHUNK_BYTES", 1)
        assert run_experiment(cfg) == chunked

    @pytest.mark.parametrize(
        "cfg",
        [
            # the grid-fixed benchmark's config: a full and a partly full chunk,
            # with rows that leave for heavy runs and thaw back
            dict(scenario="graph-adversarial", n=1024, gen="grid", p=0.3, delta=0.1, trials=150),
            # the tree-stop benchmark's config
            dict(scenario="graph-lv-adv", n=2048, gen="random-tree", p=0.3, delta=0.2, trials=80),
            dict(scenario="graph-adversarial", n=200, gen="gnm", trials=40),
        ],
    )
    def test_default_chunks_write_the_output_of_one_trial_per_chunk(
        self, tmp_path, monkeypatch, cfg
    ):
        outputs = []
        for chunk_bytes in (graph_search.CHUNK_BYTES, 1):
            monkeypatch.setattr(graph_search, "CHUNK_BYTES", chunk_bytes)
            out = tmp_path / f"{chunk_bytes}.json"
            run_experiment(
                config(**cfg, workers=1, output=str(out), fmt="json", keep_transcripts=True)
            )
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_large_random_tree_touches_few_rows(self, monkeypatch):
        held = []

        def capture(g):
            held.append(graph.all_pairs_distances(g))
            return held[-1]

        monkeypatch.setattr(harness, "all_pairs_distances", capture)
        n = 20_000
        stats = run_experiment(
            config(scenario="graph-lv-adv", n=n, gen="random-tree", trials=2, workers=1)
        )
        assert stats.trials == 2 and stats.flagged_trials == 0
        (d,) = held
        assert d.rows_computed == 0
        assert d.cached_bytes <= graph.ROW_CACHE_BYTES

    def test_trial_reorder_stability(self):
        # a fixed-target run reproduces per-trial outcomes regardless of
        # how many other trials execute
        few = run_experiment(config(trials=10, fixed_target=3))
        many = run_experiment(config(trials=10, fixed_target=3, workers=2))
        assert few == many

    def test_lv_scenario_bounds(self):
        stats = run_experiment(
            config(scenario="graph-lv-distr", n=32, gen="star", p=0.25, delta=0.1, trials=400)
        )
        assert stats.error_rate <= 0.1
        assert stats.bound_satisfied
        assert stats.theoretical_bound == pytest.approx(
            (5 + math.log2(10) + 1) / 0.1887218755408671, rel=1e-9
        )

    def test_bin_scenarios_run(self):
        # smoke check only; the sharp delta assertions live in the
        # acceptance suite with proper trial counts
        for scenario in ("bin-adversarial", "bin-lv-distr", "bin-lv-adv"):
            stats = run_experiment(
                config(scenario=scenario, n=32, gen=None, p=0.25, delta=0.2, trials=60)
            )
            assert stats.trials == 60
            noise_allowance = 3 * math.sqrt(0.2 * 0.8 / 60)
            assert stats.error_rate <= 0.2 + noise_allowance

    @pytest.mark.parametrize(
        "scenario", [s for s in harness.SCENARIOS if s != "verify-invariants"]
    )
    def test_summary_serialises_as_the_benchmark_reads_it(self, scenario):
        # bench/worker.py prints {"row", "extras"} with json.dumps, and
        # bench/run.py reads the row and, for comparison runs, the phase split
        graph_run = scenario.startswith("graph-")
        stats = run_experiment(
            config(scenario=scenario, n=16, gen="grid" if graph_run else None, trials=4)
        )
        doc = json.loads(
            json.dumps({"row": stats.row(), "extras": stats.extras}, allow_nan=False)
        )
        assert tuple(doc["row"]) == harness.CSV_COLUMNS
        assert doc["row"]["trials"] == 4
        if not graph_run:
            assert {"mean_phase_one", "min_phase_one", "max_phase_one"} <= set(doc["extras"])

    def test_memory_check_counts_every_concurrent_trial(self, monkeypatch):
        # one trial at n = 4096 needs 8 * (5 * 4096 + 2 * 4096) bytes; the
        # stubbed machine holds that once but not four times
        pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 100}
        monkeypatch.setattr(harness.os, "sysconf", pages.__getitem__)
        base = dict(scenario="bin-adversarial", n=4096, gen=None)
        tasks = 4 * harness.COMPARISON_TASK_TRIALS
        harness._build_context(config(**base, trials=tasks, workers=1))
        with pytest.raises(DomainError, match="n=4096.*4 concurrent"):
            harness._build_context(config(**base, trials=tasks, workers=4))
        # the pool runs no more trials at once than there are tasks
        harness._build_context(
            config(**base, trials=harness.COMPARISON_TASK_TRIALS, workers=4)
        )

    @pytest.mark.parametrize("n", [512, 2048])
    @pytest.mark.parametrize(
        "gen, scenario",
        [pytest.param(gen, "graph-adversarial", id=gen) for gen in graph.GENERATORS]
        + [pytest.param("grid", "graph-lv-distr", id="grid-lv-distr-skewed")],
    )
    def test_graph_bytes_is_within_twice_the_traced_peak_of_one_chunk(self, gen, scenario, n):
        # what one worker holds: the built graph and its distances, then one
        # engine chunk; a smaller estimate lets the memory check pass runs
        # that do not fit, a much larger one refuses runs that do. A grid
        # under a skewed prior holds its chunk as dense rows.
        skewed = np.arange(1, n + 1, dtype=np.float64) ** 2
        mu = Distribution(skewed / skewed.sum()) if scenario == "graph-lv-distr" else None
        cfg = config(scenario=scenario, gen=gen, n=n, p=0.1, delta=0.4, trials=64, mu=mu)
        harness.run_experiment(config(gen=gen, n=16, trials=2))  # lazy imports
        tracemalloc.start()
        try:
            ctx = harness._build_context(cfg)
            harness._run_graph_chunk(ctx, range(harness._chunk_trials(ctx)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= harness._graph_bytes(cfg) <= 2 * peak

    @pytest.mark.parametrize("gen", ["path", "star", "grid", "random-tree"])
    def test_graph_bytes_graph_term_covers_the_traced_build_and_index(self, gen):
        # the build's transient and, on a tree, the preorder index at a size
        # where the graph outweighs every chunk: under the term, and no more
        # than twice it
        n = 1 << 16
        edges, shape = graph.generated_layout(gen, n)
        tree = edges == n - 1 and shape is None
        graph.all_pairs_distances(graph.generate_graph(gen, 64, np.random.default_rng(0))).tree
        tracemalloc.start()
        try:
            g = graph.generate_graph(gen, n, np.random.default_rng(1))
            index = graph.all_pairs_distances(g).tree
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (index is not None) == tree
        assert sum(map(len, g.adjacency)) == 2 * edges
        term = harness._graph_term(n, edges, tree)[0]
        assert peak <= term <= 2 * peak

    @pytest.mark.parametrize("gen", graph.GENERATORS)
    @pytest.mark.parametrize(
        "scenario, skewed",
        [
            ("graph-adversarial", False),
            ("graph-lv-adv", False),
            ("graph-lv-distr", False),
            ("graph-lv-distr", True),
        ],
        ids=["adversarial", "lv-adv", "lv-distr-uniform", "lv-distr-skewed"],
    )
    def test_the_chunk_layout_is_the_one_search_builds(self, monkeypatch, gen, scenario, skewed):
        # the memory check, the run's chunks and the engine pick the store
        # by one rule (graph_search.row_store): record the store the engine
        # builds and the rows it is built for, then stop the run
        n = 1024
        mu = None
        if skewed:
            masses = np.arange(1, n + 1, dtype=np.float64) ** 2
            mu = Distribution(masses / masses.sum())
        built = []

        class Built(Exception):
            pass

        for store in (TreeRows, GridRows, graph_search._DenseRows):
            init = store.__init__

            def record(self, *args, _store=store, _init=init, **kwargs):
                bound = inspect.signature(_init).bind(self, *args, **kwargs)
                built.append((_store, bound.arguments["k"]))
                raise Built

            monkeypatch.setattr(store, "__init__", record)
        cfg = config(scenario=scenario, gen=gen, n=n, p=0.1, delta=0.4, trials=4000, mu=mu)
        with pytest.raises(Built):
            run_experiment(cfg)
        ((store, k),) = built
        shape = graph._square_factor(n) if gen == "grid" else None
        assert k == graph_search.chunk_rows(store, n, shape)
        # the memory check, before the graph is built, plans the same store
        assert harness._planned_chunks(cfg)[2] == [(store, k)]

    @pytest.mark.parametrize("gen", ["path", "random-tree", "grid", "gnm"])
    def test_graph_memory_check_runs_before_the_graph_is_built(self, monkeypatch, gen):
        # the stubbed machine holds one worker's graph, index, prior and
        # chunk at n = 4096 but not two; nothing of size n is built first
        one = harness._graph_bytes(config(gen=gen, n=4096))
        pages = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": one}
        monkeypatch.setattr(harness.os, "sysconf", pages.__getitem__)
        harness._build_context(config(gen=gen, n=4096, trials=64, workers=1))

        def no_graph(*args):
            raise AssertionError("a graph was built")

        monkeypatch.setattr(harness, "generate_graph", no_graph)
        with pytest.raises(DomainError, match="n=4096.*2 concurrent worker"):
            harness._build_context(config(gen=gen, n=4096, trials=64, workers=2))
        with pytest.raises(DomainError, match=f"n={10**13} "):
            harness._build_context(config(gen=gen, n=10**13, trials=1, workers=1))

    def test_cli_exits_2_naming_n_for_a_graph_larger_than_memory(self, monkeypatch, tmp_path, capsys):
        pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 1 << 20}
        monkeypatch.setattr(harness.os, "sysconf", pages.__getitem__)
        code = cli.main([
            "graph-lv-adv", "--gen", "path", "--n", str(10**9), "--p", "0.3",
            "--delta", "0.2", "--trials", "1", "--seed", "1",
            "--out", str(tmp_path / "out.csv"),
        ])
        assert code == 2
        assert f"n={10**9} needs about" in capsys.readouterr().err

    def test_verify_invariants_scenario(self):
        stats = run_experiment(config(scenario="verify-invariants", gen=None, trials=30))
        assert stats.bound_satisfied
        assert stats.error_rate == 0.0

    def test_mu_file_loading(self, tmp_path):
        mu_file = tmp_path / "mu.txt"
        mu_file.write_text("".join(f"{i} 1\n" for i in range(16)))
        stats = run_experiment(
            config(
                scenario="bin-lv-distr", n=16, gen=None, p=0.25, delta=0.2,
                trials=50, mu_path=str(mu_file),
            )
        )
        assert stats.trials == 50


class TestAdversarialSweep:
    def test_cycle_symmetry(self):
        results = adversarial_sweep(
            config(gen="cycle", n=12, trials=40, scenario="graph-adversarial")
        )
        assert len(results) == 12
        means = [r.mean_queries for r in results]
        assert max(means) == min(means)  # fixed budget: identical lengths
        worst_err = max(r.error_rate for r in results)
        assert worst_err <= 0.5

    def test_path_reports_max(self):
        results = adversarial_sweep(config(n=9, trials=30, scenario="bin-lv-adv", gen=None, p=0.25))
        worst = max(r.error_rate for r in results)
        assert all(r.error_rate <= worst for r in results)
        assert [r.extras["target"] for r in results] == list(range(9))

    def test_single_vertex(self):
        results = adversarial_sweep(config(gen="path", n=1, trials=10))
        assert len(results) == 1
        assert results[0].error_rate == 0.0

    def test_refuses_large_n(self):
        with pytest.raises(DomainError, match="n <= 256"):
            adversarial_sweep(config(n=300, gen="path"))


class TestEmit:
    def make_stats(self, **kw):
        base = dict(
            scenario="graph-adversarial", n=4, p=0.25, delta=0.1, trials=10, seed=1,
            mean_queries=12.5, std_queries=0.0, max_queries=13.0, error_rate=0.1,
            error_ci_low=0.01, error_ci_high=0.3, theoretical_bound=0.1,
            bound_satisfied=True, flagged_trials=0,
        )
        base.update(kw)
        return SummaryStats(**base)

    def test_empty_csv_is_header_only(self, tmp_path):
        out = tmp_path / "empty.csv"
        emit([], "csv", out)
        lines = out.read_text().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("scenario,")

    def test_csv_field_count_constant(self, tmp_path):
        out = tmp_path / "rows.csv"
        emit([self.make_stats(), self.make_stats(n=8, bound_satisfied=False)], "csv", out)
        with open(out) as fh:
            widths = {len(row) for row in csv.reader(fh)}
        assert widths == {15}

    def test_json_roundtrip(self, tmp_path):
        out = tmp_path / "r.json"
        stats = self.make_stats()
        emit([stats], "json", out)
        doc = json.loads(out.read_text())
        row = doc["results"][0]
        assert row == stats.row()

    def test_rejects_unknown_format(self, tmp_path):
        with pytest.raises(DomainError):
            emit([], "yaml", tmp_path / "x")

    def test_transcript_sample_in_json(self, tmp_path):
        out = tmp_path / "t.json"
        stats = run_experiment(
            config(trials=6, keep_transcripts=True, output=str(out), fmt="json")
        )
        doc = json.loads(out.read_text())
        assert "transcript_sample" in doc
        assert len(doc["transcript_sample"]) == len(stats.transcript_sample) <= 5
        first = doc["transcript_sample"][0]
        assert {"declared", "query_count", "target_hit", "flagged", "queries"} <= set(first)


class TestDistributions:
    def test_dyadic_sums_to_one_exactly(self):
        mu = dyadic_distribution(256)
        assert float(mu.masses.sum()) == 1.0
        assert mu.masses[0] == 0.5

    def test_geometric_shape(self):
        mu = geometric_distribution(8)
        assert mu.masses[0] > mu.masses[7]
        ratios = mu.masses[1:] / mu.masses[:-1]
        assert ratios == pytest.approx(np.full(7, 0.5), rel=1e-12)

    def test_overhead_is_constantly_derived(self):
        assert lv_linear_overhead(64, 0.2, 4.0) == pytest.approx(
            3 + 2 + 6 + math.log2(10.0) + 1
        )


class TestFuzzersSmall:
    def test_graph_fuzz_clean(self):
        report = fuzz_graph_invariants(transcripts=60, seed=5)
        assert report["drop_violations"] == 0
        assert report["halving_violations"] == 0
        assert report["interval_violations"] == 0

    def test_binary_fuzz_clean(self):
        report = fuzz_binary_invariants(transcripts=60, seed=5)
        assert report["coupled_violations"] == 0
