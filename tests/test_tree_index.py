"""Trees as preorder intervals: medians, reply sets and truthful replies
against the distance-row computations they replace."""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisysearch import graph as graph_module
from noisysearch import harness
from noisysearch.graph import (
    Graph,
    all_pairs_distances,
    load_graph,
    random_tree,
    reply_set,
    star_graph,
    weighted_median,
    weighted_medians,
)
from noisysearch.harness import ExperimentConfig, run_experiment
from noisysearch.mathcore import Distribution
from noisysearch.oracle import _closer_neighbors
from noisysearch.weights import init_from_distribution


def caterpillar(spine: int, legs: int) -> Graph:
    """A path of spine vertices, each with legs leaves hanging off it."""
    edges = [(i, i + 1) for i in range(spine - 1)]
    edges += [(i, spine + i * legs + j) for i in range(spine) for j in range(legs)]
    return Graph.from_edges(spine * (1 + legs), edges)


def loaded_tree(tmp_path, rng) -> Graph:
    # ids shuffled so vertex 0 is no special root and children come in any order
    g = random_tree(40, rng)
    perm = rng.permutation(g.n)
    edges = [(perm[u], perm[v]) for u in range(g.n) for v in g.adjacency[u] if u < v]
    path = tmp_path / "tree.txt"
    path.write_text(f"{g.n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges))
    return load_graph(path)


def tree_family(tmp_path, rng):
    yield from (random_tree(int(rng.integers(2, 80)), rng) for _ in range(30))
    yield from (star_graph(n) for n in (2, 3, 17, 64))
    yield caterpillar(12, 3)
    yield caterpillar(5, 0)
    yield loaded_tree(tmp_path, rng)


def bfs_reply_set(d, q, u):
    return d.row(u) == d.row(q) - 1


def far_from_half_split(d, rel) -> bool:
    tree = d.tree
    prefix = np.concatenate([[0.0], np.cumsum(rel[tree.order])])
    masses = prefix[tree.end] - prefix[tree.start]
    return bool(np.all(np.abs(masses - 0.5) > 1e-6))


class TestTreeDetection:
    def test_trees_get_an_index_and_other_graphs_none(self):
        rng = np.random.default_rng(1)
        assert all_pairs_distances(random_tree(30, rng)).tree is not None
        assert all_pairs_distances(star_graph(9)).tree is not None
        path = all_pairs_distances(graph_module.path_graph(9)).tree
        assert path.order.tolist() == list(range(9))  # rooted at 0: the identity
        for g in (
            graph_module.grid_graph(1, 9),  # a grid keeps its prefix sums
            graph_module.cycle_graph(9),
            graph_module.gnm_graph(12, 20, rng),
        ):
            assert all_pairs_distances(g).tree is None

    def test_index_is_a_preorder(self):
        g = caterpillar(4, 2)
        tree = all_pairs_distances(g).tree
        assert tree.order.tolist() == [0, 1, 2, 3, 10, 11, 8, 9, 6, 7, 4, 5]
        assert tree.parent[0] == -1 and tree.end[0] == g.n
        for v in range(1, g.n):
            p = tree.parent[v]
            assert tree.start[p] < tree.start[v] < tree.end[v] <= tree.end[p]


def dfs_index(g: Graph):
    """The stack-walk DFS TreeIndex was once built by, kept as its
    reference: (order, start, end, parent), rooted at 0, children in id order."""
    n, adj = g.n, g.adjacency
    parent, order, stack = [-1] * n, [], [0]
    while stack:
        v = stack.pop()
        order.append(v)
        kids = [u for u in adj[v] if u != parent[v]]
        for u in kids:
            parent[u] = v
        stack.extend(reversed(kids))
    size = [1] * n
    for v in reversed(order[1:]):
        size[parent[v]] += size[v]
    start = [0] * n
    for i, v in enumerate(order):
        start[v] = i
    return order, start, [s + k for s, k in zip(start, size)], parent


def relabelled(g: Graph, rng) -> Graph:
    """g with its vertex ids shuffled."""
    perm = rng.permutation(g.n)
    return Graph.from_edges(
        g.n, [(perm[u], perm[v]) for u in range(g.n) for v in g.adjacency[u] if u < v]
    )


class TestIndexAgainstTheDfs:
    @pytest.mark.parametrize("relabel", [False, True], ids=["generated", "relabelled"])
    def test_every_array_equals_the_dfs_reference(self, relabel):
        # a generated tree takes the identity as its parents-first order; a
        # relabelled one, with a vertex whose neighbours are all above it,
        # the BFS order
        rng = np.random.default_rng(31)
        trees = [graph_module.path_graph(n) for n in (1, 2, 3, 50)]
        trees += [star_graph(n) for n in (2, 3, 40)]
        trees += [random_tree(n, rng) for n in (2, 3, 17, 200, 2048)]
        checked = 0
        for g in trees:
            if relabel:
                g = relabelled(g, rng)
                if all(min(g.adjacency[v]) < v for v in range(1, g.n)):
                    continue
                checked += 1
            tree = graph_module.TreeIndex(g)
            order, start, end, parent = dfs_index(g)
            assert tree.order.tolist() == order
            assert tree.start.tolist() == start and tree.end.tolist() == end
            assert tree.parent.tolist() == parent
            assert tree.end_at.tolist() == [end[v] for v in order]
            for q, target in rng.integers(0, g.n, size=(200, 2)).tolist():
                if q != target:
                    # the neighbour of q on target's side: a child whose
                    # subtree holds target, or the parent of a q that does not
                    u = tree.toward(q, target)
                    inside = parent[u] == q
                    v = u if inside else q
                    assert u in g.adjacency[q]
                    assert (start[v] <= start[target] < end[v]) == inside
        assert checked >= 5 or not relabel


class TestIntervalMedian:
    def test_equals_descent_from_the_heaviest_vertex(self, tmp_path):
        rng = np.random.default_rng(21)
        checked = 0
        for g in tree_family(tmp_path, rng):
            d = all_pairs_distances(g)
            for _ in range(8):
                w = rng.uniform(1e-6, 1.0, size=g.n) ** 3
                st = init_from_distribution(Distribution.from_weights(w))
                rel = st.relative
                if not far_from_half_split(d, rel):
                    continue
                expected = graph_module._descend(g, d, rel, int(np.argmax(rel)))
                assert weighted_median(g, d, st) == expected
                checked += 1
        assert checked > 150

    @pytest.mark.parametrize(
        "edges, n",
        [
            ([(i, i + 1) for i in range(9)], 10),  # a path with no layout hint
            ([(0, i) for i in range(1, 4)] + [(0, 4)] + [(4, i) for i in range(5, 8)], 8),
            ([(0, 1)], 2),
        ],
    )
    def test_exact_half_split_still_gives_a_median(self, edges, n):
        g = Graph.from_edges(n, edges)
        d = all_pairs_distances(g)
        st = init_from_distribution(Distribution.uniform(n))
        q = weighted_median(g, d, st)
        for u in g.adjacency[q]:
            assert float(st.relative[bfs_reply_set(d, q, u)].sum()) <= 0.5 + 1e-9


@st.composite
def tree_with_rows(draw):
    """A random tree, star or path and a few weight rows over its vertex
    ids; small integer weights make exact half splits common."""
    kind = draw(st.sampled_from(["random-tree", "star", "path"]))
    n = draw(st.integers(2, 40))
    if kind == "random-tree":
        g = random_tree(n, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    else:
        g = star_graph(n) if kind == "star" else graph_module.path_graph(n)
    cells = st.integers(0, 3).map(float) | st.floats(1e-9, 1.0)
    rows = draw(st.lists(st.lists(cells, min_size=n, max_size=n), min_size=1, max_size=4))
    w = np.array(rows) + 1e-300  # no row sums to 0
    return g, w / w.sum(axis=1, keepdims=True)


@settings(max_examples=100, deadline=None)
@given(case=tree_with_rows())
def test_preorder_cores_equal_the_vertex_order_entry_points(case):
    g, rel = case
    d = all_pairs_distances(g)
    tree = d.tree
    pre = rel[:, tree.order]
    medians = tree.order[tree.medians(pre)]
    assert medians.tolist() == weighted_medians(g, d, rel).tolist()
    for row, q in zip(rel, medians.tolist()):
        # a median: at an exact half split either end of the middle edge
        for u in g.adjacency[q]:
            assert float(row[bfs_reply_set(d, q, u)].sum()) <= 0.5 + 1e-9
    for q in range(g.n):
        for u in g.adjacency[q]:
            assert np.array_equal(reply_set(g, d, q, u), bfs_reply_set(d, q, u))


@settings(max_examples=100, deadline=None)
@given(case=tree_with_rows(), total=st.sampled_from([1.0, 0.5, 1.5, 3.0]))
def test_median_walk_equals_the_scan_of_every_subtree(case, total):
    # the deepest preorder position whose subtree mass, from the same
    # prefix sums, is above _MAJORITY; totals other than 1 take medians'
    # own scan
    g, rel = case
    tree = all_pairs_distances(g).tree
    pre = rel[:, tree.order] * total
    prefix = np.zeros((len(pre), g.n + 1))
    np.cumsum(pre, axis=1, out=prefix[:, 1:])
    mass = prefix[:, tree.end_at] - prefix[:, :-1]
    scan = g.n - 1 - np.argmax(mass[:, ::-1] > graph_module._MAJORITY, axis=1)
    assert tree.medians(pre).tolist() == scan.tolist()


class TestIntervalReplies:
    def test_reply_sets_equal_the_distance_rows(self, tmp_path):
        rng = np.random.default_rng(23)
        for g in tree_family(tmp_path, rng):
            d = all_pairs_distances(g)
            for q in range(g.n):
                for u in g.adjacency[q]:
                    assert np.array_equal(reply_set(g, d, q, u), bfs_reply_set(d, q, u))

    def test_truthful_reply_equals_the_distance_rows(self, tmp_path):
        rng = np.random.default_rng(24)
        for g in tree_family(tmp_path, rng):
            d = all_pairs_distances(g)
            for target in range(g.n):
                to_target = d.row(target)
                for q in range(g.n):
                    if q == target:
                        continue
                    expected = [u for u in g.adjacency[q] if to_target[u] == to_target[q] - 1]
                    assert _closer_neighbors(q, target, g, d) == expected


class TestNoRowsOnTrees:
    @pytest.mark.parametrize("gen", ["random-tree", "star"])
    @pytest.mark.parametrize("scenario", ["graph-adversarial", "graph-lv-adv", "graph-lv-distr"])
    def test_tree_runs_compute_no_row(self, monkeypatch, gen, scenario):
        held = []

        def capture(g):
            held.append(graph_module.all_pairs_distances(g))
            return held[-1]

        def no_bfs(adj, src):
            raise AssertionError("a BFS row was computed on a tree")

        monkeypatch.setattr(harness, "all_pairs_distances", capture)
        monkeypatch.setattr(graph_module, "_bfs_row", no_bfs)
        stats = run_experiment(
            ExperimentConfig(
                scenario=scenario, n=48, gen=gen, p=0.3, delta=0.2, trials=12, seed=5,
                lie_choice="adversarial-heaviest",
                keep_transcripts=True,
            )
        )
        assert stats.trials == 12
        (d,) = held
        assert d.rows_computed == 0 and d.cached_bytes == 0

    def test_loaded_long_path_builds_its_index(self, tmp_path):
        n = 100_000
        path = tmp_path / "path.txt"
        path.write_text(f"{n} {n - 1}\n" + "".join(f"{i} {i + 1}\n" for i in range(n - 1)))
        g = load_graph(path)
        d = all_pairs_distances(g)
        tree = d.tree
        assert tree is not None and tree.end[0] == n and tree.start[n - 1] == n - 1
        st = init_from_distribution(Distribution.uniform(n))
        # either end of the middle edge, as rounding in the prefix sums decides
        assert weighted_median(g, d, st) in (n // 2 - 1, n // 2)
        assert d.rows_computed == 0

    def test_hundred_thousand_vertex_tree_run(self, monkeypatch):
        held = []

        def capture(g):
            held.append(graph_module.all_pairs_distances(g))
            return held[-1]

        monkeypatch.setattr(harness, "all_pairs_distances", capture)
        began = time.perf_counter()
        stats = run_experiment(
            ExperimentConfig(
                scenario="graph-lv-adv", n=100_000, gen="random-tree", p=0.3, delta=0.2,
                trials=2, seed=7, workers=1,
            )
        )
        elapsed = time.perf_counter() - began
        assert stats.trials == 2 and stats.flagged_trials == 0
        assert held[0].rows_computed == 0
        assert elapsed < 10.0
