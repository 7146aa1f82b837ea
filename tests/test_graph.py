"""Graph structure, distances, medians, consistent sets, loaders."""

import math
import re
import time
import tracemalloc

import numpy as np
import pytest

from noisysearch import graph as graph_module
from noisysearch.graph import (
    Graph,
    GraphFormatError,
    all_pairs_distances,
    consistent_set,
    cycle_graph,
    generate_graph,
    gnm_edges,
    gnm_graph,
    grid_graph,
    load_graph,
    median_costs,
    path_graph,
    random_tree,
    star_graph,
    weighted_median,
    weighted_medians,
)
from noisysearch.mathcore import Distribution
from noisysearch.oracle import Answer, ProtocolError
from noisysearch.weights import init_from_distribution, init_uniform


def full_matrix(d):
    """The n x n hop distances of a DistanceMatrix, one row per vertex."""
    return np.stack([d.row(v) for v in range(d.graph.n)])


def exhaustive_costs(g, d, rel):
    """Reference cost: explicit double loop over vertices."""
    n = g.n
    dist = full_matrix(d)
    return [sum(int(dist[u, v]) * rel[u] for u in range(n)) for v in range(n)]


class TestDistances:
    def test_path_endpoints(self):
        g = path_graph(3)
        d = all_pairs_distances(g)
        assert full_matrix(d)[0, 2] == 2

    def test_star_leaves(self):
        g = star_graph(5)
        d = all_pairs_distances(g)
        assert full_matrix(d)[1, 2] == 2
        assert full_matrix(d)[0, 3] == 1

    def test_complete_graph(self):
        edges = [(u, v) for u in range(4) for v in range(u + 1, 4)]
        g = Graph.from_edges(4, edges)
        d = all_pairs_distances(g)
        off = full_matrix(d)[~np.eye(4, dtype=bool)]
        assert np.all(off == 1)

    def test_matrix_properties(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            g = random_tree(int(rng.integers(2, 30)), rng)
            d = full_matrix(all_pairs_distances(g))
            assert np.all(np.diag(d) == 0)
            assert np.array_equal(d, d.T)
            n = g.n
            for v in range(n):
                for u in g.adjacency[v]:
                    assert d[u, v] == 1
            # triangle inequality through a random midpoint
            for _ in range(20):
                a, b, c = rng.integers(0, n, size=3)
                assert d[a, b] <= d[a, c] + d[c, b]


class TestWeightedMedian:
    def test_path_uniform(self):
        g = path_graph(3)
        d = all_pairs_distances(g)
        st = init_uniform(3)
        costs = exhaustive_costs(g, d, st.relative)
        assert costs == pytest.approx([1.0, 2 / 3, 1.0])
        assert weighted_median(g, d, st) == 1

    def test_star_uniform_center(self):
        g = star_graph(7)
        d = all_pairs_distances(g)
        assert weighted_median(g, d, init_uniform(7)) == 0

    def test_point_mass(self):
        rng = np.random.default_rng(4)
        g = gnm_graph(12, 20, rng)
        d = all_pairs_distances(g)
        masses = np.full(12, 1e-9)
        masses[7] = 1.0 - 11e-9
        st = init_from_distribution(Distribution.from_weights(masses))
        assert weighted_median(g, d, st) == 7

    def test_scale_invariance(self):
        # argmin is invariant under uniform scaling; relative weights are
        # normalized so this reduces to determinism of the cost argmin
        rng = np.random.default_rng(5)
        g = random_tree(15, rng)
        d = all_pairs_distances(g)
        w = rng.uniform(0.1, 1.0, size=15)
        st1 = init_from_distribution(Distribution.from_weights(w))
        st2 = init_from_distribution(Distribution.from_weights(w * 37.5))
        assert weighted_median(g, d, st1) == weighted_median(g, d, st2)

    def test_fast_paths_match_generic(self):
        # grid layouts use prefix-sum costs and paths their preorder index;
        # they must agree with the explicit distance-matrix computation
        rng = np.random.default_rng(6)
        for build in (lambda: path_graph(17), lambda: grid_graph(4, 5), lambda: grid_graph(1, 9)):
            g = build()
            d = all_pairs_distances(g)
            for _ in range(40):
                w = rng.uniform(0.01, 1.0, size=g.n)
                st = init_from_distribution(Distribution.from_weights(w))
                ref = exhaustive_costs(g, d, st.relative)
                if g.grid_shape is not None:
                    assert median_costs(g, d, st.relative) == pytest.approx(ref, abs=1e-9)
                assert ref[weighted_median(g, d, st)] == pytest.approx(min(ref), abs=1e-9)
                generic = Graph.from_edges(g.n, [(u, v) for u in range(g.n) for v in g.adjacency[u] if u < v])
                assert weighted_median(g, d, st) == weighted_median(generic, d, st)

    def test_median_bisection_fuzz(self):
        # every neighbor-reply consistent set at a median holds at most
        # half the weight
        rng = np.random.default_rng(7)
        for _ in range(300):
            n = int(rng.integers(2, 65))
            kind = rng.integers(3)
            if kind == 0:
                g = random_tree(max(n, 2), rng)
            elif kind == 1:
                g = gnm_graph(max(n, 4), min(2 * n, n * (n - 1) // 2), rng)
            else:
                g = generate_graph("grid", n)
            d = all_pairs_distances(g)
            w = rng.uniform(1e-6, 1.0, size=g.n)
            st = init_from_distribution(Distribution.from_weights(w))
            q = weighted_median(g, d, st)
            for u in g.adjacency[q]:
                cs = consistent_set(g, d, q, Answer(kind="neighbor", vertex=u))
                assert float(st.relative[cs.mask].sum()) <= 0.5 + 1e-9


class TestLazyRows:
    def test_no_bfs_until_a_row_is_asked_for(self, monkeypatch):
        calls = []
        real = graph_module._bfs_row

        def counting_bfs(adj, src):
            calls.append(src)
            return real(adj, src)

        monkeypatch.setattr(graph_module, "_bfs_row", counting_bfs)
        g = random_tree(40, np.random.default_rng(10))
        d = all_pairs_distances(g)
        assert calls == [] and d.rows_computed == 0
        d.row(5)
        d.row(5)
        assert calls == [5] and d.rows_computed == 1

    def test_closed_form_rows_match_bfs(self):
        for g in (path_graph(13), grid_graph(4, 7), grid_graph(1, 6), grid_graph(5, 1)):
            generic = Graph.from_edges(
                g.n, [(u, v) for u in range(g.n) for v in g.adjacency[u] if u < v]
            )
            d, ref = all_pairs_distances(g), all_pairs_distances(generic)
            for v in range(g.n):
                assert d.row(v).dtype == np.int32
                assert np.array_equal(d.row(v), ref.row(v))

    def test_cache_stays_within_budget(self, monkeypatch):
        g = random_tree(50, np.random.default_rng(11))
        full = full_matrix(all_pairs_distances(g))
        monkeypatch.setattr(graph_module, "ROW_CACHE_BYTES", 3 * 50 * 4)
        d = all_pairs_distances(g)
        for v in (0, 1, 2, 3, 4, 0):
            assert np.array_equal(d.row(v), full[v])
            assert d.cached_bytes <= graph_module.ROW_CACHE_BYTES
        # row 0 was evicted by rows 3 and 4, so asking again rebuilt it
        assert d.rows_computed == 6

    def test_rows_are_read_only(self):
        d = all_pairs_distances(random_tree(10, np.random.default_rng(12)))
        with pytest.raises(ValueError):
            d.row(0)[1] = 7


class TestDescentMedian:
    def test_equals_cost_argmin_on_trees(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            g = random_tree(int(rng.integers(2, 65)), rng)
            d = all_pairs_distances(g)
            st = init_from_distribution(
                Distribution.from_weights(rng.uniform(1e-6, 1.0, size=g.n))
            )
            costs = exhaustive_costs(g, d, st.relative)
            assert weighted_median(g, d, st) == int(np.argmin(costs))

    def test_reply_sets_at_most_half_on_general_graphs(self):
        rng = np.random.default_rng(14)
        for i in range(150):
            n = int(rng.integers(4, 65))
            if i % 3 == 0:
                g = gnm_graph(n, min(2 * n, n * (n - 1) // 2), rng)
            elif i % 3 == 1:
                g = cycle_graph(n)
            else:
                g = star_graph(n)
            d = all_pairs_distances(g)
            # skewed weights so the heaviest vertex is often not a median
            w = rng.uniform(1e-6, 1.0, size=g.n) ** 4
            st = init_from_distribution(Distribution.from_weights(w))
            q = weighted_median(g, d, st)
            for u in g.adjacency[q]:
                cs = consistent_set(g, d, q, Answer(kind="neighbor", vertex=u))
                assert float(st.relative[cs.mask].sum()) <= 0.5 + 1e-9

    def test_batched_medians_equal_one_row_at_a_time(self):
        # mixes heavy rows (short-circuit), prefix-sum rows and descent rows
        rng = np.random.default_rng(15)
        graphs = [path_graph(37), grid_graph(6, 7), random_tree(40, rng), cycle_graph(30),
                  star_graph(25), gnm_graph(30, 60, rng)]
        for g in graphs:
            d = all_pairs_distances(g)
            w = rng.uniform(1e-6, 1.0, size=(9, g.n)) ** 6
            w[::3, int(rng.integers(g.n))] += w[::3].sum(axis=1)
            w /= w.sum(axis=1, keepdims=True)
            expected = [weighted_median(g, d, init_from_distribution(Distribution(row))) for row in w]
            relative = np.stack([init_from_distribution(Distribution(row)).relative for row in w])
            assert weighted_medians(g, d, relative).tolist() == expected
            assert weighted_medians(g, d, relative[4:5]).tolist() == expected[4:5]

    def test_batched_costs_equal_one_row_at_a_time(self):
        rng = np.random.default_rng(16)
        for g in (grid_graph(1, 50), grid_graph(7, 9)):
            d = all_pairs_distances(g)
            w = rng.uniform(0.0, 1.0, size=(5, g.n))
            w /= w.sum(axis=1, keepdims=True)
            batched = median_costs(g, d, w)
            for row, costs in zip(w, batched):
                assert np.array_equal(median_costs(g, d, row), costs)

    def test_median_costs_needs_a_layout(self):
        g = star_graph(5)
        with pytest.raises(ValueError, match="layout"):
            median_costs(g, all_pairs_distances(g), np.full(5, 0.2))


class TestConsistentSet:
    def test_path_toward_endpoint(self):
        g = path_graph(3)
        d = all_pairs_distances(g)
        cs = consistent_set(g, d, 1, Answer(kind="neighbor", vertex=0))
        assert cs.members == {0}

    def test_path_away(self):
        g = path_graph(3)
        d = all_pairs_distances(g)
        cs = consistent_set(g, d, 0, Answer(kind="neighbor", vertex=1))
        assert cs.members == {1, 2}

    def test_yes_reply(self):
        g = star_graph(5)
        d = all_pairs_distances(g)
        cs = consistent_set(g, d, 3, Answer(kind="yes"))
        assert cs.members == {3}

    def test_non_neighbor_rejected(self):
        g = path_graph(4)
        d = all_pairs_distances(g)
        with pytest.raises(ProtocolError):
            consistent_set(g, d, 0, Answer(kind="neighbor", vertex=3))

    def test_every_non_query_vertex_covered(self):
        # union over neighbor replies at q covers all of V minus q
        rng = np.random.default_rng(8)
        for _ in range(40):
            g = gnm_graph(12, 24, rng)
            d = all_pairs_distances(g)
            for q in range(g.n):
                covered = set()
                for u in g.adjacency[q]:
                    covered |= consistent_set(g, d, q, Answer(kind="neighbor", vertex=u)).members
                assert covered >= set(range(g.n)) - {q}


class TestGraphConstruction:
    def test_rejects_self_loop(self):
        with pytest.raises(GraphFormatError):
            Graph.from_edges(3, [(0, 1), (1, 1), (1, 2)])

    def test_rejects_disconnected(self):
        with pytest.raises(GraphFormatError, match="disconnected"):
            Graph.from_edges(4, [(0, 1), (2, 3)])

    def test_disconnected_names_the_smallest_unreachable_vertex(self):
        # 0-1-3 is reached; 2 and 4 are not, and 2 is named
        with pytest.raises(GraphFormatError, match="vertex 2 unreachable from vertex 0"):
            Graph.from_edges(5, [(0, 1), (1, 3), (2, 4)])

    def test_adjacency_sorted_and_symmetric(self):
        g = Graph.from_edges(4, [(3, 0), (0, 1), (1, 2), (2, 3)])
        for u in range(4):
            assert list(g.adjacency[u]) == sorted(g.adjacency[u])
            for v in g.adjacency[u]:
                assert u in g.adjacency[v]


class TestLoader:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# a comment\n4 3\n0 1\n\n1 2\n2 3\n")
        g = load_graph(path)
        assert g.n == 4
        assert g.adjacency[1] == (0, 2)

    def test_self_loop_names_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3 3\n0 1\n1 1\n1 2\n")
        with pytest.raises(GraphFormatError, match=":3"):
            load_graph(path)

    def test_out_of_range_names_line(self, tmp_path):
        path = tmp_path / "bad2.txt"
        path.write_text("3 2\n0 1\n1 7\n")
        with pytest.raises(GraphFormatError, match=":3"):
            load_graph(path)

    def test_disconnected_rejected(self, tmp_path):
        # the message starts with the path, whose directory pytest names
        # after this test, so the match names the header line too
        path = tmp_path / "disc.txt"
        path.write_text("4 2\n0 1\n2 3\n")
        message = f"{path}:1: 2 edges leave 4 vertices disconnected"
        with pytest.raises(GraphFormatError, match=re.escape(message)):
            load_graph(path)

    def test_too_few_edges_for_the_header_fail_at_the_header(self, tmp_path):
        # n - 1 edges are the fewest that connect n vertices; a header with
        # fewer fails before any vertex is allocated, however large its n
        path = tmp_path / "few.txt"
        path.write_text("# big\n1000000000000 0\n")
        with pytest.raises(GraphFormatError, match=re.escape(f"{path}:2: 0 edges leave")):
            load_graph(path)
        path.write_text("0 0\n")
        with pytest.raises(GraphFormatError, match=re.escape(f"{path}:1: header needs n >= 1")):
            load_graph(path)

    def test_a_disconnected_graph_names_the_file(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("4 3\n0 1\n1 0\n2 3\n")
        with pytest.raises(GraphFormatError, match=re.escape(f"{path}: graph is disconnected")):
            load_graph(path)

    def test_bytes_that_are_not_utf8_name_their_line(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_bytes(b"# caf\xe9 comment\n2 1\n0 1\xff\n")
        with pytest.raises(GraphFormatError, match=re.escape(f"{path}:3: non-integer vertex id")):
            load_graph(path)

    def test_edge_count_mismatch(self, tmp_path):
        path = tmp_path / "short.txt"
        path.write_text("3 3\n0 1\n1 2\n")
        with pytest.raises(GraphFormatError, match="promises"):
            load_graph(path)


class TestGenerators:
    def test_shapes(self):
        assert path_graph(5).n == 5
        assert len(cycle_graph(6).adjacency[0]) == 2
        assert len(star_graph(9).adjacency[0]) == 8
        assert grid_graph(3, 4).n == 12

    def test_grid_square_factorization(self):
        g = generate_graph("grid", 1024)
        assert g.grid_shape == (32, 32)

    def test_random_generators_connected(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            n = int(rng.integers(2, 40))
            t = random_tree(n, rng)
            assert t._first_unreachable() is None
            if n >= 4:
                g = gnm_graph(n, min(2 * n, n * (n - 1) // 2), rng)
                assert g._first_unreachable() is None

    def test_unknown_name(self):
        with pytest.raises(GraphFormatError):
            generate_graph("torus", 9)


def list_gnm_graph(n, m, rng, max_tries=200):
    """The list-of-all-pairs generator gnm_graph replaced, kept as its
    reference: same rng call, pairs indexed in lexicographic order."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for _ in range(max_tries):
        chosen = rng.choice(len(pairs), size=m, replace=False)
        try:
            return Graph.from_edges(n, [pairs[int(i)] for i in chosen])
        except GraphFormatError:
            continue
    raise GraphFormatError("no connected graph")


class TestGnm:
    @pytest.mark.parametrize("n", [2, 4, 5, 12, 31, 64])
    def test_decoded_pairs_equal_the_pair_list(self, n):
        for seed in range(6):
            m = int(np.random.default_rng(seed).integers(n - 1, n * (n - 1) // 2 + 1))
            new = gnm_graph(n, m, np.random.default_rng([seed, n]))
            old = list_gnm_graph(n, m, np.random.default_rng([seed, n]))
            assert new.adjacency == old.adjacency

    def test_default_generator_unchanged(self):
        # --gen gnm is the pair-list draw at gnm_edges(n) edges
        for seed in range(5):
            new = generate_graph("gnm", 40, np.random.default_rng(seed))
            old = list_gnm_graph(40, gnm_edges(40), np.random.default_rng(seed))
            assert new.adjacency == old.adjacency

    def test_default_edge_count_is_the_connectivity_threshold(self):
        for n in (2, 3, 4, 10, 1000, 10_000):
            expected = min(math.ceil(n * math.log(n) / 2) + n, n * (n - 1) // 2)
            assert gnm_edges(n) == expected
        assert gnm_edges(1) == 0

    @pytest.mark.parametrize("n", [1000, 10_000])
    def test_default_generator_connects_at_cli_sizes(self, n):
        # at m = 2n a connected draw almost never happens from n ~ 300 on
        g = generate_graph("gnm", n, np.random.default_rng([7, n]))
        assert g.n == n and sum(map(len, g.adjacency)) == 2 * gnm_edges(n)

    def test_builds_at_ten_thousand_vertices(self):
        # the pair list alone would be 5e7 tuples, several GB
        tracemalloc.start()
        start = time.perf_counter()
        try:
            g = gnm_graph(10_000, 60_000, np.random.default_rng(1))
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.n == 10_000 and sum(map(len, g.adjacency)) == 120_000
        assert elapsed < 30.0
        assert peak < 200 * 2**20

    def test_rejects_bad_edge_counts(self):
        rng = np.random.default_rng(0)
        for n, m in ((5, 3), (5, 11)):
            with pytest.raises(GraphFormatError, match="n-1 <= m"):
                gnm_graph(n, m, rng)


@pytest.mark.parametrize(
    "g", [path_graph(9), grid_graph(6, 7), grid_graph(5, 1), grid_graph(1, 6), star_graph(8)]
)
def test_reply_sets_equal_the_bfs_definition(g):
    # N(q, u) = {x : d(u, x) = d(q, x) - 1}, from closed-form grid rows and
    # tree intervals, against BFS rows
    d = all_pairs_distances(g)
    for q in range(g.n):
        for u in g.adjacency[q]:
            bfs = graph_module._bfs_row(g.adjacency, u) == graph_module._bfs_row(g.adjacency, q) - 1
            assert np.array_equal(graph_module.reply_set(g, d, q, u), bfs)
    if g.grid_shape is not None:
        assert d.rows_computed == 0


GRID_SHAPES = [(32, 32), (5, 7), (7, 5), (1, 9), (9, 1), (3, 3)]


@pytest.mark.parametrize("rows, cols", GRID_SHAPES)
@pytest.mark.parametrize("kind", ["uniform", "small-integers", "log-normal"])
def test_grid_medians_are_the_cost_argmin_bit_for_bit(rows, cols, kind):
    # uniform rows split exactly in half, small integers tie often, and
    # log-normal weights spread over about 2^-40 to 2^40
    g = grid_graph(rows, cols)
    d = all_pairs_distances(g)
    rng = np.random.default_rng([rows, cols, len(kind)])
    for _ in range(60):
        k = int(rng.integers(1, 33))
        if kind == "uniform":
            w = np.ones((k, g.n))
        elif kind == "small-integers":
            w = rng.integers(0, 4, size=(k, g.n)).astype(float)
            w[:, int(rng.integers(g.n))] += 1.0
        else:
            w = np.exp2(rng.normal(0.0, 14.0, size=(k, g.n)))
        w /= w.sum(axis=1, keepdims=True)
        expected = median_costs(g, d, w).argmin(axis=1)
        assert np.array_equal(graph_module.grid_medians(g, w), expected)
