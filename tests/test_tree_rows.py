"""The step-function tree rows (tree_rows.TreeRows) against dense weight rows.

A light row on a tree is the prior times a step function over preorder
positions; its products and sums round apart from a dense row's in the last
bits, so every check here has a tolerance. Random sequences of subtree
cuts, complement cuts, yeses, half-weight noes and thaws (a row frozen at
its top and rejoining with that vertex set), at the rows' medians and at
random vertices, run on the step functions, whose reads are over vertex
ids, and, as the engine's dense update did them, on dense rows in preorder
columns: entries and totals agree within 1e-12 relative; the medians are
TreeIndex.medians' unless a subtree mass is within 1e-12 of _MAJORITY; the
heavy flags agree unless the top share is within 1e-12 of HEAVY_SHARE; a
no at q takes the half-weight branch alike unless q's weight is within
1e-12 of 1/2 (where the two rows part, the dense one takes the step
function's value); and an adversarial lie's reply masses agree within
1e-12.
"""

import math

import numpy as np
import pytest

from noisysearch.graph import _MAJORITY, TreeIndex, path_graph, random_tree, star_graph
from noisysearch.graph_search import HEAVY_SHARE, _heavy_row
from noisysearch.tree_rows import TreeRows

P = 0.3
TREES = {
    "path-1": lambda: path_graph(1),
    "path-2": lambda: path_graph(2),
    "star": lambda: star_graph(17),
    "random-tree": lambda: random_tree(300, np.random.default_rng(4)),
    "path-2048": lambda: path_graph(2048),
}


def prior_of(tree, kind):
    """The start weights in the tree's preorder columns."""
    n = len(tree.order)
    if kind == "uniform":
        return np.full(n, 1.0 / n)
    skewed = np.arange(1, n + 1, dtype=np.float64) ** 2
    return (skewed / skewed.sum())[tree.order]


def interval_mask(tree, v, u):
    """N(v, u) as a mask over preorder positions."""
    lo, hi, inside = tree.reply_interval(v, u)
    mask = np.zeros(len(tree.order), dtype=bool)
    mask[lo:hi] = True
    return mask if inside else ~mask


def dense_update(row, q, u, tree, p=P):
    """Fold reply u at position q into a dense preorder row in place, as the
    engine's dense update did; returns the total before the divide."""
    keep, w_q, v = 1.0 - p, row[q], int(tree.order[q])
    if u == v:
        row *= p
        row[q] = w_q * keep
    elif w_q >= 0.5:
        row *= keep
        row[q] = w_q * p
    else:
        row *= np.where(interval_mask(tree, v, u), keep, p)
    total = row.sum()
    row /= total
    return total


def near_majority(tree, row):
    """Whether some subtree of the row holds within 1e-12 of _MAJORITY."""
    prefix = np.concatenate([[0.0], np.cumsum(row)])
    masses = prefix[tree.end_at] - prefix[:-1]
    return bool(np.any(np.abs(masses - _MAJORITY) <= 1e-12))


def check_reads(rows, dense, tree):
    """Every read of the step-function rows, which are over vertex ids,
    against the dense rows; returns the heavy flags and the tops' and the
    medians' positions."""
    for i, row in enumerate(dense):
        np.testing.assert_allclose(rows.row(i)[tree.order], row, rtol=1e-12, atol=0.0)
    flags, tops = rows.tops()
    cols = tree.start[tops]
    for i, row in enumerate(dense):
        share = row.max()
        if abs(share - HEAVY_SHARE) > 1e-12:
            assert flags[i] == (share > HEAVY_SHARE)
        if flags[i]:
            assert cols[i] == int(np.argmax(row))
    vertices = rows.medians()
    assert len(vertices) == len(dense)
    qs = tree.start[vertices]
    expected = tree.medians(np.array(dense))
    for i, row in enumerate(dense):
        q = int(qs[i])
        if not near_majority(tree, row):
            assert q == expected[i]
        v = int(vertices[i])
        wrong = [v, *tree_neighbours(tree, v)]
        masses = [row[q], *(row[interval_mask(tree, v, u)].sum() for u in wrong[1:])]
        np.testing.assert_allclose(rows.reply_masses(i, v, wrong), masses, rtol=1e-12, atol=0.0)
    return flags, cols, qs


def tree_neighbours(tree, v):
    kids = tree.order[tree.parent[tree.order] == v].tolist()
    return kids if tree.parent[v] < 0 else [int(tree.parent[v]), *kids]


def thaw_dense(row, col, rest):
    """The dense row of a heavy run frozen at col and thawed at rest, and
    the frozen row's rest0."""
    frozen = row.copy()
    frozen[col] = 0.0
    rest0 = frozen.sum()
    out = frozen * (rest / rest0 if rest0 > 0.0 else 0.0)
    out[col] = 1.0 - rest
    return out, rest0


def run(tree, prior, steps, rng, k=3):
    """steps passes of random replies, with thaws, on k rows both ways,
    most at the rows' medians and some at random vertices; returns how
    many of each reply kind ran. prior is in preorder columns, as the
    dense rows are."""
    rows = TreeRows(tree, prior[tree.start], k, P)
    dense = [prior.copy() for _ in range(k)]
    kinds = {"yes": 0, "half": 0, "subtree": 0, "complement": 0, "thaw": 0, "split half": 0}
    n = len(prior)
    for _ in range(steps):
        flags, cols, _ = check_reads(rows, dense, tree)
        gone, thawed, moved = [], [], []
        for i, row in enumerate(dense):
            if n > 1 and (flags[i] or rng.random() < 0.1):
                col = int(cols[i]) if flags[i] else int(np.argmax(row))
                h = int(tree.order[col])
                frozen = rows.freeze(i, h)
                # a thaw comes at a share of HEAVY_SHARE or below
                rest = 0.5 if rng.random() < 0.3 else float(rng.uniform(1.0 - HEAVY_SHARE, 0.95))
                out, rest0 = thaw_dense(row, col, rest)
                assert math.isclose(frozen.rest0, rest0, rel_tol=1e-12)
                held = _heavy_row(frozen.row, frozen.rest0, rest, h)
                np.testing.assert_allclose(held[tree.order], out, rtol=1e-12, atol=0.0)
                gone.append(i)
                thawed.append(frozen.thaw(rest))
                moved.append(out)
                kinds["thaw"] += 1
        rows.regroup(gone, thawed)
        dense = [row for i, row in enumerate(dense) if i not in gone] + moved
        vertices = rows.medians()
        at = rng.random(len(vertices)) < 0.2
        vertices[at] = rng.integers(n, size=int(at.sum()))
        qs = tree.start[vertices].tolist()
        # q's weight as the rows read it: a dense row is built as the
        # walk and the update read one weight, (factor * prior) / norm
        at_q = [float(rows.row(i)[v]) for i, v in enumerate(vertices.tolist())]
        replies = []
        for v, w_q in zip(vertices.tolist(), at_q):
            u = int(rng.choice([v, *tree_neighbours(tree, v)]))
            replies.append(u)
            if u == v:
                kinds["yes"] += 1
            elif w_q >= 0.5:
                kinds["half"] += 1
            else:
                kinds["subtree" if tree.parent[u] == v else "complement"] += 1
        totals = rows.update(vertices, replies)
        for i, (row, q, u, w_q) in enumerate(zip(dense, qs, replies, at_q)):
            parted = u != int(tree.order[q]) and (row[q] >= 0.5) != (w_q >= 0.5)
            total = dense_update(row, q, u, tree)
            if parted:
                # q holds half the weight in exact arithmetic, and rounding
                # sent the two rows down the two branches of a no there
                assert abs(w_q - 0.5) <= 1e-12
                dense[i] = rows.row(i)[tree.order]
                kinds["split half"] += 1
            else:
                assert math.isclose(totals[i], total, rel_tol=1e-12)
    check_reads(rows, dense, tree)
    return kinds


@pytest.mark.parametrize("kind", ["uniform", "skewed"])
@pytest.mark.parametrize("name", sorted(TREES))
def test_random_replies_and_thaws_match_dense_rows(name, kind):
    g = TREES[name]()
    tree = TreeIndex(g)
    seen = run(tree, prior_of(tree, kind), 25 if g.n > 1000 else 60, np.random.default_rng(9))
    if g.n > 2:
        assert seen["subtree"] and seen["yes"] and seen["thaw"]
        # a star's median is its centre unless a leaf holds half the weight
        assert seen["complement"] or name == "star"


@pytest.mark.parametrize("kind", ["uniform", "skewed"])
@pytest.mark.parametrize("name", sorted(TREES))
def test_reply_masses_at_any_vertex_equal_the_masked_sums(name, kind):
    # a lie reads a row's reply masses at the vertex asked, which need not
    # be its median: read them at the median and at random vertices, both
    # after a walk (the median's weight is the walk's) and before one
    tree = TreeIndex(TREES[name]())
    n = len(tree.order)
    prior = prior_of(tree, kind)
    rows = TreeRows(tree, prior[tree.start], 1, P)
    rng = np.random.default_rng(11)
    for step in range(40):
        median = int(rows.medians()[0]) if step % 2 else None
        pre = rows.row(0)[tree.order]
        for v in {median, *rng.integers(n, size=6).tolist()} - {None}:
            replies = [v, *tree_neighbours(tree, v)]
            masses = [pre[tree.start[v]], *(pre[interval_mask(tree, v, u)].sum() for u in replies[1:])]
            got = rows.reply_masses(0, v, replies)
            np.testing.assert_allclose(got, masses, rtol=1e-12, atol=0.0)
        v = median if median is not None and rng.random() < 0.5 else int(rng.integers(n))
        rows.update(np.array([v]), [int(rng.choice([v, *tree_neighbours(tree, v)]))])


def test_every_reply_kind_is_exercised():
    # half-weight noes need a q holding half the weight: on path(2) under
    # a uniform prior every first query has one
    seen = {}
    for name in ("path-2", "star", "random-tree"):
        tree = TreeIndex(TREES[name]())
        for key, count in run(tree, prior_of(tree, "uniform"), 40, np.random.default_rng(2)).items():
            seen[key] = seen.get(key, 0) + count
    seen.pop("split half")
    assert all(seen.values()), seen


def test_a_long_light_run_stays_normalised():
    # 10^5 updates of one row kept light (each reply keeps the lightest
    # reply set): its total grows past 2**64 every few dozen updates, and
    # a row that is not divided back to 1 overflows within a few thousand
    tree = TreeIndex(star_graph(4))
    prior = prior_of(tree, "uniform")
    rows = TreeRows(tree, prior[tree.start], 1, P)
    dense = prior.copy()
    log2_total = dense_log2 = 0.0
    for step in range(100_000):
        rows.tops()
        vs = rows.medians()
        v = int(vs[0])
        wrong = [v, *tree_neighbours(tree, v)]
        u = wrong[int(np.argmin(rows.reply_masses(0, v, wrong)))]
        log2_total += math.log2(rows.update(vs, [u])[0])
        dense_log2 += math.log2(dense_update(dense, int(tree.start[v]), u, tree))
        if step % 10_000 == 0:
            np.testing.assert_allclose(rows.row(0)[tree.order], dense, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(rows.row(0)[tree.order], dense, rtol=1e-12, atol=0.0)
    assert math.isclose(rows.row(0).sum(), 1.0, rel_tol=1e-12)
    assert math.isclose(log2_total, dense_log2, rel_tol=1e-12)


@pytest.mark.parametrize("kind", ["uniform", "skewed"])
def test_a_query_away_from_the_median_reads_its_weight_at_the_rows_norm(kind):
    # replies at random vertices, most of them not the median, on one row:
    # its norm wanders far from 1 between divides, and the update must
    # read q's weight relative to it to take the half-weight branch as the
    # dense row does
    tree = TreeIndex(random_tree(64, np.random.default_rng(6)))
    prior = prior_of(tree, kind)
    rows = TreeRows(tree, prior[tree.start], 1, P)
    dense = prior.copy()
    rng = np.random.default_rng(8)
    for v in rng.integers(64, size=3000).tolist():
        u = int(rng.choice([v, *tree_neighbours(tree, v)]))
        q = int(tree.start[v])
        w_q = float(rows.row(0)[v])
        if u != v and (w_q >= 0.5) != (dense[q] >= 0.5):
            # q holds half the weight in exact arithmetic (see run)
            assert abs(w_q - 0.5) <= 1e-12
            rows.update(np.array([v]), [u])
            dense = rows.row(0)[tree.order]
            continue
        total = rows.update(np.array([v]), [u])[0]
        assert math.isclose(total, dense_update(dense, q, u, tree), rel_tol=1e-12)
    np.testing.assert_allclose(rows.row(0)[tree.order], dense, rtol=1e-12, atol=0.0)


def test_exact_half_path_takes_either_end_of_the_middle_edge():
    # a plain path of 100 000 vertices under a uniform prior: the middle
    # vertex's subtree holds exactly half, so rounding picks the end
    n = 100_000
    tree = TreeIndex(path_graph(n))
    rows = TreeRows(tree, np.full(n, 1.0 / n), 2, P)
    flags, _ = rows.tops()
    vs = rows.medians().tolist()
    assert flags == [False, False]
    # a path rooted at vertex 0: preorder positions are vertex ids
    assert set(vs) <= {n // 2 - 1, n // 2}
    assert [rows.reply_masses(i, v, [v])[0] for i, v in enumerate(vs)] == [1.0 / n, 1.0 / n]


@pytest.mark.parametrize(
    "make",
    {
        "path": lambda: path_graph(2048),
        "star": lambda: star_graph(17),
        "random-tree": lambda: random_tree(2048, np.random.default_rng(7)),
    }.items(),
    ids=lambda item: item[0],
)
def test_a_uniform_prior_is_held_as_ones(make):
    # the prior over its constant is all ones, so its prefix sums are the
    # preorder positions and its rounding errors zeros, exactly
    tree = TreeIndex(make[1]())
    n = len(tree.order)
    rows = TreeRows(tree, np.full(n, 1.0 / n), 1, P)
    assert rows._hi == list(range(n + 1))
    assert rows._lo == [0.0] * (n + 1)
