"""The factored grid rows (grid_rows.GridRows) against dense weight rows.

A light row on a grid is two line vectors, a scalar and a few points; its
products round apart from a dense row's in the last bits, so every check
here has a tolerance. Random sequences of row and column cuts, yeses,
half-weight noes and thaws (a heavy row rejoining with its top vertex set)
run on the factored rows and, as the engine's dense update does them, on
dense rows: entries agree within 1e-12 relative; the medians are the dense
cost argmin unless the two least costs are within 1e-9 relative; the heavy
flags agree unless the top share is within 1e-12 of HEAVY_SHARE; and an
adversarial lie's reply masses agree within 1e-12. search holds a grid's
light rows this way only under a uniform prior.
"""

import math

import numpy as np
import pytest

from noisysearch import graph_search
from noisysearch.graph import grid_graph, median_costs, reply_set
from noisysearch.graph_search import HEAVY_SHARE, _heavy_row, lv_distributional_plan, search
from noisysearch.grid_rows import GridRows
from noisysearch.mathcore import Distribution, NoiseParams
from noisysearch.oracle import GraphOracle, NoisePolicy

P = 0.3
SHAPES = [(1, 1), (1, 9), (9, 1), (6, 7), (32, 32)]


def dense_update(row, q, reply, g, p=P):
    """Fold a reply into a dense row in place as the engine's dense update
    does; returns the total before the divide."""
    keep, w_q = 1.0 - p, row[q]
    if reply == q:
        row *= p
        row[q] = w_q * keep
    elif w_q >= 0.5:
        row *= keep
        row[q] = w_q * p
    else:
        row *= np.where(reply_set(g, q, reply), keep, p)
    total = row.sum()
    row /= total
    return total


def check_reads(rows, dense, g):
    """Every read of the factored rows against the dense rows."""
    assert rows.m == len(dense)
    for i, row in enumerate(dense):
        np.testing.assert_allclose(rows.row(i), row, rtol=1e-12, atol=0.0)
    flags, cols = rows.tops()
    for i, row in enumerate(dense):
        share = row.max()
        if abs(share - HEAVY_SHARE) > 1e-12:
            assert flags[i] == (share > HEAVY_SHARE)
        if flags[i]:
            assert cols[i] == int(np.argmax(row))
    qs = rows.medians()
    at_q = rows.weights_at(np.arange(rows.m), qs)
    for i, row in enumerate(dense):
        q = int(qs[i])
        costs = median_costs(g, row)
        least = np.sort(costs)[:2]
        if len(least) == 1 or least[1] - least[0] > 1e-9 * least[0]:
            assert q == int(np.argmin(costs))
        else:
            assert costs[q] <= least[0] * (1.0 + 1e-9)
        assert math.isclose(at_q[i], row[q], rel_tol=1e-12)
        wrong = [q, *g.adjacency[q]]
        expected = [row[q], *(row[reply_set(g, q, u)].sum() for u in g.adjacency[q])]
        np.testing.assert_allclose(rows.reply_masses(i, q, wrong), expected, rtol=1e-12, atol=0.0)
    return qs


@pytest.mark.parametrize("shape", SHAPES)
def test_factored_rows_follow_the_dense_update(shape):
    g = grid_graph(*shape)
    rng = np.random.default_rng([shape[0], shape[1], 7])
    prior = np.full(g.n, 1.0 / g.n)
    k, steps = 5, 40 if g.n > 100 else 80
    rows = GridRows(shape, k, P)
    dense = [prior.copy() for _ in range(k)]
    # a few vertices that keep hearing yes, so points merge
    pool = rng.choice(g.n, size=min(3, g.n), replace=False)
    for _ in range(steps):
        medians = check_reads(rows, dense, g)
        i = int(rng.integers(rows.m))
        col = int(np.argmax(dense[i]))
        frozen = dense[i].copy()
        frozen[col] = 0.0
        # a heavy row rejoins, its top vertex set and the rest rescaled (a
        # row with nothing outside its top never does: its rest stays 0)
        if rng.random() < 0.1 and frozen.sum() > 0.0:
            rest = float(rng.uniform(0.05, 0.95))
            expected = _heavy_row(frozen, float(frozen.sum()), rest, col)
            held = rows.freeze(i, col)
            np.testing.assert_allclose(held.row, frozen, rtol=1e-12, atol=0.0)
            assert math.isclose(held.rest0, frozen.sum(), rel_tol=1e-12)
            rows.regroup([i], [held.thaw(rest)])
            dense = dense[:i] + dense[i + 1 :] + [expected]
            continue
        qs, replies = [], []
        for i, row in enumerate(dense):
            top = int(np.argmax(row))
            roll = rng.random()
            if row[top] >= 0.5 and g.adjacency[top] and roll < 0.3:
                # a no at a vertex holding half the weight
                q, reply = top, int(rng.choice(g.adjacency[top]))
            elif roll < 0.6 or not g.adjacency[int(medians[i])]:
                q = int(rng.choice(pool)) if rng.random() < 0.7 else int(medians[i])
                reply = q
            else:
                q = int(medians[i])
                reply = int(rng.choice(g.adjacency[q]))
            qs.append(q)
            replies.append(reply)
        totals = rows.update(np.array(qs), replies)
        for i, (row, q, reply) in enumerate(zip(dense, qs, replies)):
            total = dense_update(row, q, reply, g)
            assert math.isclose(totals[i], total, rel_tol=1e-12)
    check_reads(rows, dense, g)


@pytest.mark.parametrize("shape", SHAPES)
def test_reply_masses_at_any_vertex_equal_the_masked_sums(shape):
    # a lie reads a row's reply masses at the vertex asked, which need not
    # be its median: read them at the medians and at random vertices, with
    # replies at both folded in between
    g = grid_graph(*shape)
    rows = GridRows(shape, 2, P)
    rng = np.random.default_rng([shape[0], shape[1], 11])
    for _ in range(30):
        qs = rows.medians()
        for i in range(rows.m):
            row = rows.row(i)
            for q in {int(qs[i]), *rng.integers(g.n, size=6).tolist()}:
                replies = [q, *g.adjacency[q]]
                expected = [row[q], *(row[reply_set(g, q, u)].sum() for u in replies[1:])]
                got = rows.reply_masses(i, q, replies)
                np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0.0)
        vs = np.where(rng.random(rows.m) < 0.5, qs, rng.integers(g.n, size=rows.m))
        rows.update(vs, [int(rng.choice([v, *g.adjacency[v]])) for v in vs.tolist()])


def test_points_that_merge_keep_every_factor():
    # yeses at one vertex, a yes at another between them, and a no at the
    # first once it holds half the weight fold into two points
    g = grid_graph(6, 7)
    rows = GridRows((6, 7), 1, P)
    row = np.full(g.n, 1.0 / g.n)
    for q, reply in [(17, 17), (3, 3), *[(17, 17)] * 5, (17, 10)]:
        held_half = row[q] >= 0.5
        rows.update(np.array([q]), [reply])
        dense_update(row, q, reply, g)
        np.testing.assert_allclose(rows.row(0), row, rtol=1e-12, atol=0.0)
    assert held_half
    assert sorted(v for v in rows._pv[0].tolist() if v >= 0) == [3, 17]


def test_a_long_light_run_keeps_its_lines_normalised():
    # 10^5 cuts at the middle of a 6x7 grid, each toward a random side: an
    # unnormalised line would underflow within about a thousand steps
    g = grid_graph(6, 7)
    q = 2 * 7 + 3
    sides = g.adjacency[q]
    factors = [np.where(reply_set(g, q, u), 1.0 - P, P) for u in sides]
    rows = GridRows((6, 7), 1, P)
    row = np.full(g.n, 1.0 / g.n)
    log2_total = ref_log2_total = 0.0
    qs = np.array([q])
    for j in np.random.default_rng(4).integers(len(sides), size=100_000).tolist():
        log2_total += math.log2(rows.update(qs, [sides[j]])[0])
        row *= factors[j]
        total = row.sum()
        row /= total
        ref_log2_total += math.log2(total)
    np.testing.assert_allclose(rows.row(0), row, rtol=1e-12, atol=0.0)
    assert math.isclose(log2_total, ref_log2_total, rel_tol=1e-9)


def test_a_point_below_one_on_the_lines_top_cell_is_read_off_the_row(monkeypatch):
    # Cuts toward q from every side lift it above half the weight, and a
    # no at q as it holds half sets a point below 1 there: the lines' top cell
    # then weighs more than q does, and the top share comes from the row
    # built densely. Cuts toward q's right-hand neighbour x from every side
    # then lift x above half the weight, off the points.
    g = grid_graph(6, 7)
    q, x = 17, 18
    rows = GridRows((6, 7), 1, P)
    row = np.full(g.n, 1.0 / g.n)
    built = []
    real_row = GridRows.row
    monkeypatch.setattr(GridRows, "row", lambda self, i: built.append(i) or real_row(self, i))
    steps = [(u, q) for u in (10, 24, 16, 18) * 3 + (10,)] + [(q, 10)]
    steps += [(u, x) for u in (11, 25, 19, 17) * 4]
    read_off_the_row = 0
    for at, reply in steps:
        rows.update(np.array([at]), [reply])
        dense_update(row, at, reply, g)
        built.clear()
        flags, cols = rows.tops()
        read_off_the_row += bool(built)
        assert flags[0] == (row.max() > HEAVY_SHARE)
        if flags[0]:
            assert cols[0] == int(np.argmax(row))
    assert read_off_the_row and flags[0] and cols[0] == x


@pytest.mark.parametrize("kind", ["uniform", "skewed"])
@pytest.mark.parametrize("shape", SHAPES)
def test_search_holds_a_grid_as_lines_only_under_a_uniform_prior(shape, kind, monkeypatch):
    # GridRows holds no prior: a grid under a non-uniform one runs on the
    # dense store, whose arithmetic the reference loop checks exactly
    g = grid_graph(*shape)
    masses = np.full(g.n, 1.0)
    if kind == "skewed":
        masses = np.arange(1, g.n + 1, dtype=np.float64) ** 2
    mu = Distribution(masses / masses.sum())
    built = []
    dense_rows = graph_search._DenseRows
    for store in (GridRows, dense_rows):
        init = store.__init__
        monkeypatch.setattr(
            store, "__init__", lambda *args, store=store, init=init: built.append(store) or init(*args)
        )
    plan = lv_distributional_plan(mu, NoiseParams.from_p(P), 0.2)
    rng = np.random.default_rng([shape[0], shape[1], 3])
    targets = rng.choice(g.n, size=3, p=mu.masses).tolist()
    oracles = [
        GraphOracle(g, t, NoisePolicy(p=P), np.random.default_rng([shape[0], shape[1], t]))
        for t in targets
    ]
    got = search(g, NoiseParams.from_p(P), plan, oracles)
    # a one-vertex grid's only prior is uniform
    uniform = kind == "uniform" or g.n == 1
    assert built == [GridRows if uniform else dense_rows]
    for t in got:
        assert 0 <= t.declared < g.n and t.query_count <= plan.max_steps
