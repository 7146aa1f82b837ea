"""Graph structure, on-demand distance rows, weighted medians, and reply sets."""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .weights import CompatibleSet, WeightState

__all__ = [
    "GraphFormatError",
    "Graph",
    "DistanceMatrix",
    "TreeIndex",
    "all_pairs_distances",
    "weighted_median",
    "weighted_medians",
    "grid_medians",
    "marginal_medians",
    "reply_set",
    "consistent_set",
    "load_graph",
    "read_fields",
    "path_graph",
    "cycle_graph",
    "star_graph",
    "grid_graph",
    "random_tree",
    "gnm_graph",
    "gnm_edges",
    "generate_graph",
    "GENERATORS",
]


class GraphFormatError(ValueError):
    """Malformed, self-looped, or disconnected graph input."""


@dataclass(frozen=True)
class Graph:
    """Undirected, unweighted, connected graph with sorted adjacency lists.

    grid_shape, (rows, cols), marks a grid whose vertex r * cols + c sits
    at row r and column c of the lattice, so its reply sets are half-planes
    in closed form and its medians O(n) by prefix sums. Loaded graphs never
    carry one.
    """

    n: int
    adjacency: tuple[tuple[int, ...], ...]
    grid_shape: tuple[int, int] | None = None

    @classmethod
    def from_edges(cls, n: int, edges, grid_shape: tuple[int, int] | None = None) -> "Graph":
        if n < 1:
            raise GraphFormatError(f"graph needs at least one vertex, got n={n}")
        neighbors: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphFormatError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise GraphFormatError(f"self-loop at vertex {u}")
            neighbors[u].add(v)
            neighbors[v].add(u)
        g = cls(
            n=n,
            adjacency=tuple(tuple(sorted(s)) for s in neighbors),
            grid_shape=grid_shape,
        )
        unreachable = g._first_unreachable()
        if unreachable is not None:
            raise GraphFormatError(
                f"graph is disconnected: vertex {unreachable} unreachable from vertex 0"
            )
        return g

    def _first_unreachable(self) -> int | None:
        levels = _bfs_levels(self.adjacency, 0)
        return levels.index(-1) if -1 in levels else None


# Bytes of distance rows one DistanceMatrix keeps; past it the oldest rows are
# dropped, so memory follows the rows a run touches instead of n^2.
ROW_CACHE_BYTES = 32 << 20
# Bytes of neighbour rows whose reply sets the median descent stacks at once
# (a hub of a graph that is not a tree may have ~n neighbours, and their
# reply sets must not become an n x n array).
_BLOCK_BYTES = 4 << 20
# A reply set must beat half the weight by this much before descent steps into
# it, so rounding in the mass sums cannot make it cycle.
_MAJORITY = 0.5 + 1e-12
# A trial whose top share is above this is carried as two numbers (see
# graph_search.search); weighted_medians takes that top vertex as the row's
# median.
HEAVY_SHARE = 0.5 + 1e-9


def _bfs_levels(adj: tuple[tuple[int, ...], ...], src: int) -> list[int]:
    """Hop counts from src over adjacency lists adj, -1 at every vertex src
    does not reach."""
    levels = [-1] * len(adj)
    levels[src] = 0
    frontier = [src]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if levels[v] < 0:
                    levels[v] = d
                    nxt.append(v)
        frontier = nxt
    return levels


def _bfs_row(adj: tuple[tuple[int, ...], ...], src: int) -> np.ndarray:
    out = np.array(_bfs_levels(adj, src), dtype=np.int32)
    if (out < 0).any():
        raise GraphFormatError("graph is disconnected")
    return out


class TreeIndex:
    """DFS preorder numbering of a tree, rooted at vertex 0, children in id order.

    order[i] is the vertex at preorder position i and start[v] the position
    of v; v's subtree is order[start[v]:end[v]], and parent[v] is -1 at the
    root. So every reply set of a tree is one preorder interval or its
    complement: N(q, u) is u's subtree when u is a child of q, and all but
    q's subtree when u is q's parent. Built in O(n) without recursion, so a
    path of any length is fine; rooted at vertex 0, a path's preorder is
    the identity.

    medians takes a weight matrix in preorder columns (column i weighs
    order[i]); weighted_medians gathers its vertex-order rows into them.
    The engine's light rows (tree_rows.TreeRows) hold each row as a step
    function over preorder positions and walk up the tree as medians does.
    """

    def __init__(self, g: Graph):
        n, adj = g.n, g.adjacency
        parent = [-1] * n
        order = []
        stack = [0]
        while stack:
            v = stack.pop()
            order.append(v)
            kids = [u for u in adj[v] if u != parent[v]]
            for u in kids:
                parent[u] = v
            stack.extend(reversed(kids))  # the smallest id is visited first
        size = [1] * n
        for v in reversed(order[1:]):
            size[parent[v]] += size[v]
        self.order = np.array(order, dtype=np.int64)
        self.start = np.empty(n, dtype=np.int64)
        self.start[self.order] = np.arange(n)
        self.end = self.start + np.array(size, dtype=np.int64)
        self.parent = np.array(parent, dtype=np.int64)
        # end of the subtree that begins at each preorder position
        self.end_at = self.end[self.order]
        # children grouped by parent, each group in preorder, for toward()
        kids = self.order[1:][np.argsort(self.parent[self.order[1:]], kind="stable")]
        kid_ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(self.parent[kids], minlength=n), out=kid_ptr[1:])
        self._order = order
        self._start = self.start.tolist()
        self._end = self.end.tolist()
        self._parent = parent
        self._kids = kids.tolist()
        self._kid_starts = self.start[kids].tolist()
        self._kid_ptr = kid_ptr.tolist()

    def reply_interval(self, q: int, u: int) -> tuple[int, int, bool]:
        """N(q, u) for a neighbour u of q as preorder positions (lo, hi,
        inside): the interval [lo, hi) when inside, else its complement."""
        inside = self._parent[u] == q
        v = u if inside else q
        return self._start[v], self._end[v], inside

    def medians(self, pre: np.ndarray) -> np.ndarray:
        """The preorder position of the median of each row of a (rows, n)
        weight matrix held in preorder columns: the deepest vertex whose
        subtree holds more than half of its row.

        The vertices whose subtree holds a majority form a path down from
        the root, and depth grows with preorder position along it, so the
        deepest is the one with the largest start. At it every child's
        subtree holds at most half and the rest of the tree less than half:
        a median. One cumsum per row gives every subtree mass, as the
        difference of two reads at its ends.

        A subtree's positions are one interval, and an interval holding
        more than half of a row whose total S is at most 2 * _MAJORITY
        contains the position where the prefix sum first exceeds S / 2
        (the prefix sums never fall, as the weights are not negative). So
        the median is the first vertex with a majority on the walk up from
        the vertex there, two reads per step. A row with another total
        (never one the engine normalised) has every subtree mass compared.
        Each row is summed on its own, so a row's median does not depend on
        the others.
        """
        rows, n = pre.shape
        prefix = np.zeros((rows, n + 1))
        np.cumsum(pre, axis=1, out=prefix[:, 1:])
        out = np.empty(rows, dtype=np.int64)
        start, end, parent, order = self._start, self._end, self._parent, self._order
        for i in range(rows):
            row = prefix[i]
            total = row[n]
            if not _MAJORITY < total <= 2 * _MAJORITY:
                mass = row[self.end_at] - row[:-1]
                out[i] = n - 1 - np.argmax(mass[::-1] > _MAJORITY)
                continue
            v = order[row.searchsorted(0.5 * total, side="right") - 1]
            while row[end[v]] - row[start[v]] <= _MAJORITY:
                v = parent[v]
            out[i] = start[v]
        return out

    def toward(self, q: int, target: int) -> int:
        """The neighbour of q one hop closer to target (q != target): the
        child whose interval holds the target, or else the parent."""
        s = self._start[target]
        if self._start[q] < s < self._end[q]:
            lo, hi = self._kid_ptr[q], self._kid_ptr[q + 1]
            return self._kids[bisect_right(self._kid_starts, s, lo, hi) - 1]
        return self._parent[q]


class DistanceMatrix:
    """Hop distances of one graph, computed one row at a time on first use.

    row(v) is the int32 vector d(v, .), one BFS. Rows are read-only and
    cached per instance up to ROW_CACHE_BYTES, oldest out first.
    rows_computed counts the rows built for the cache and cached_bytes what
    the cache holds now.

    tree is the graph's TreeIndex when it has m = n - 1 edges and no grid
    shape (paths, random trees, stars, loaded tree files), built
    on first use, and None otherwise (grids, even a one-row grid, keep their
    own prefix sums). Medians, truthful replies and reply sets on a tree
    read it instead of rows, and on a grid layout they are in closed form,
    so neither a tree run nor a grid run computes a row at all.
    """

    def __init__(self, g: Graph):
        self.graph = g
        self.rows_computed = 0
        self.cached_bytes = 0
        self._rows: OrderedDict[int, np.ndarray] = OrderedDict()

    @cached_property
    def tree(self) -> TreeIndex | None:
        g = self.graph
        if g.grid_shape is not None or sum(map(len, g.adjacency)) != 2 * (g.n - 1):
            return None
        return TreeIndex(g)

    def row(self, v: int) -> np.ndarray:
        row = self._rows.get(v)
        if row is None:
            row = _bfs_row(self.graph.adjacency, int(v))
            row.flags.writeable = False
            self.rows_computed += 1
            while self._rows and self.cached_bytes + row.nbytes > ROW_CACHE_BYTES:
                self.cached_bytes -= self._rows.popitem(last=False)[1].nbytes
            self._rows[v] = row
            self.cached_bytes += row.nbytes
        return row


def all_pairs_distances(g: Graph) -> DistanceMatrix:
    """Distances of g; no row is computed until one is asked for."""
    return DistanceMatrix(g)


def _line_costs(w: np.ndarray, work: np.ndarray | None = None) -> np.ndarray:
    """Sum of |i - v| * w[i] for every v, along the last axis, O(n) per
    row: cost(0) = sum i * w[i], and a step from v to v + 1 moves away from
    the prefix through v and toward the rest, so it adds
    2 * sum(w[<=v]) - total. work, a (3, *w.shape) array, holds the prefix
    sums and the result when given, so no array the size of w but one
    product is allocated; w is read before the result is written, so
    work[2] may be w itself."""
    if work is None:
        work = np.empty((3, *w.shape))
    cw, out = work[0], work[2]
    np.add.accumulate(w, axis=-1, out=cw)
    first = np.add.reduce(w * np.arange(w.shape[-1], dtype=np.float64), axis=-1)
    np.multiply(cw[..., :-1], 2.0, out=out[..., 1:])
    out[..., 1:] -= cw[..., -1:]
    out[..., 0] = first
    return np.add.accumulate(out, axis=-1, out=out)


def median_costs(g: Graph, d: DistanceMatrix, relative: np.ndarray) -> np.ndarray:
    """Weighted distance cost of every vertex, cost(v) = sum_u d(u,v) w(u),
    by prefix sums over the row and column marginals of a grid layout;
    other graphs are rejected (a path's median is its tree's, d.tree).

    relative is one weight vector or a (rows, n) stack of them; each row
    gets its own costs, computed exactly as for that row alone. The
    engine's grid medians (grid_medians) need only its two cost lines.
    """
    if g.grid_shape is None:
        raise ValueError("median_costs needs a grid layout")
    rows, cols = g.grid_shape
    w2 = relative.reshape(*relative.shape[:-1], rows, cols)
    row_cost = _line_costs(w2.sum(axis=-1))
    col_cost = _line_costs(w2.sum(axis=-2))
    return (row_cost[..., :, None] + col_cost[..., None, :]).reshape(relative.shape)


def grid_medians(g: Graph, relative: np.ndarray) -> np.ndarray:
    """median_costs(g, d, relative).argmin(axis=1) of a (k, n) weight
    matrix on a grid layout, bit for bit, from the two cost lines alone:
    marginal_medians of its row and column marginals."""
    rows, cols = g.grid_shape
    k = len(relative)
    w2 = relative.reshape(k, rows, cols)
    marginals = np.zeros((k, 2, max(rows, cols)))
    marginals[:, 0, :rows] = w2.sum(axis=-1)
    marginals[:, 1, :cols] = w2.sum(axis=-2)
    return marginal_medians(marginals, rows, cols)


def marginal_medians(
    marginals: np.ndarray, rows: int, cols: int, work: np.ndarray | None = None
) -> np.ndarray:
    """The cost argmin, ties to the smallest id, of each of k weight rows on
    a rows x cols grid layout, given only their marginals: a (k, 2, L)
    array with the row marginals in [:, 0, :rows], the column marginals in
    [:, 1, :cols] and zeros after them. cost(r * cols + c) = R[r] + C[c].

    R and C are the line costs of the two marginals, as in median_costs,
    taken in one _line_costs call (work is its scratch, and the costs may
    overwrite the marginals when work[2] is marginals): a zero added to a
    sum of weights leaves it as it was, so the prefix sums and totals at
    the real positions are those of the unpadded lines. A rounded sum never
    falls when an addend grows, so the least flat cost fl(R[r] + C[c]) is
    m = fl(min R + min C), and a row r holds a cell at m exactly when
    fl(R[r] + min C) = m: the first such row is the argmin of
    fl(R + min C). In that row the least flat cost is m again, so the
    first column at m is the argmin of fl(R[r] + C). That cell is the first
    at m in id order: the argmin with its smallest-id ties, in
    O(rows + cols) a row.
    """
    k = len(marginals)
    costs = _line_costs(marginals, work)
    row_cost, col_cost = costs[:, 0, :rows], costs[:, 1, :cols]
    col_min = np.minimum.reduce(col_cost, axis=1)
    r = (row_cost + col_min[:, None]).argmin(axis=1)
    c = (row_cost[np.arange(k), r][:, None] + col_cost).argmin(axis=1)
    return r * cols + c


def _descend(g: Graph, d: DistanceMatrix, rel: np.ndarray, q: int) -> int:
    """From q, step into the neighbour with the heaviest reply set while
    that set holds more than half the weight.

    Moving from q to u brings the reply set N(q,u) one hop closer and
    everything else at most one hop further, so a step into a set of mass
    w lowers the weighted distance cost by at least 2w - 1 > 0 and no
    vertex is visited twice.
    """
    block = max(1, _BLOCK_BYTES // (4 * g.n))
    for _ in range(g.n):
        nbrs = g.adjacency[q]
        for i in range(0, len(nbrs), block):
            chunk = nbrs[i : i + block]
            mass = np.stack([reply_set(g, d, q, u) for u in chunk]) @ rel
            j = int(np.argmax(mass))
            if mass[j] > _MAJORITY:
                q = chunk[j]
                break
        else:
            return q
    return q


def weighted_median(g: Graph, d: DistanceMatrix, w: WeightState) -> int:
    """A vertex at which every neighbour reply set holds at most half the weight.

    Reply sets are N(q,u) = {x : d(u,x) = d(q,x) - 1}. A vertex holding
    strictly more than half the weight is returned at once: every reply
    set at it misses that vertex. On grid layouts the result is the
    minimiser of the weighted distance cost, ties to the smallest id,
    found by prefix sums over its row and column cost lines
    (grid_medians). On a tree (d.tree, paths included) it is the
    deepest vertex, in the preorder rooted at vertex 0, whose subtree holds
    more than half the weight: the weighted centroid, which is the cost
    minimiser (at an exact half split either end of the middle edge is
    one, and this takes the end nearer the root). On
    every other graph it is where descent from the heaviest vertex stops:
    a local minimiser of the cost. Which of several valid vertices comes
    back (at an exact half split, say) depends on the tree's root or the
    descent path, not on the vertex ids. weighted_medians gives the same
    vertex for the same weights.
    """
    return int(weighted_medians(g, d, w.relative[None, :])[0])


def weighted_medians(g: Graph, d: DistanceMatrix, relative: np.ndarray) -> np.ndarray:
    """weighted_median of every row of a (rows, n) weight matrix whose
    columns are vertex ids.

    One argmax per row finds the heavy vertices; the other rows share
    grid_medians on grid layouts (the two cost lines of every row, no cost
    matrix) and, on trees, one gather into preorder and TreeIndex.medians,
    and descend one by one elsewhere.
    """
    tops = relative.argmax(axis=1)
    light = relative[np.arange(len(tops)), tops] <= HEAVY_SHARE
    if not light.any():
        return tops
    qs = tops.copy()
    tree = d.tree
    if tree is None and g.grid_shape is None:
        for i in np.flatnonzero(light).tolist():
            qs[i] = _descend(g, d, relative[i], int(tops[i]))
        return qs
    sub = relative if light.all() else relative[light]
    if tree is None:
        qs[light] = grid_medians(g, sub)
    else:
        qs[light] = tree.order[tree.medians(np.take(sub, tree.order, axis=1))]
    return qs


def reply_set(g: Graph, d: DistanceMatrix, q: int, u: int) -> np.ndarray:
    """N(q,u) = {x : d(u,x) = d(q,x) - 1} as a boolean mask over vertex ids,
    for a neighbour u of q.

    On a grid layout it is the half-plane of grid rows above or below q's
    (u = q -/+ cols) or of columns left or right of it; on a tree it is
    u's preorder interval when u is a child of q and the complement of q's
    interval when u is q's parent. Neither reads a distance row; elsewhere
    it compares the rows of u and q.
    """
    if g.grid_shape is not None:
        cols = g.grid_shape[1]
        vertical = abs(u - q) == cols
        # the grid row or column of each vertex, against q's
        ids = np.arange(g.n)
        line, at = (ids // cols, q // cols) if vertical else (ids % cols, q % cols)
        return line < at if u < q else line > at
    tree = d.tree
    if tree is None:
        return d.row(u) == d.row(q) - 1
    lo, hi, inside = tree.reply_interval(q, u)
    # lo <= start < hi as one unsigned comparison: below lo wraps to huge
    in_v = (tree.start - lo).view(np.uint64) < hi - lo
    return in_v if inside else ~in_v


def consistent_set(g: Graph, d: DistanceMatrix, q: int, reply) -> CompatibleSet:
    """Vertices for which the reply at query q could have been truthful.

    A yes reply is consistent with q alone. A neighbor reply u is
    consistent with every vertex having u on some shortest path from q,
    i.e. the reply set N(q,u) (see reply_set).
    """
    from .oracle import Answer, ProtocolError  # cycle-free: oracle imports nothing from here

    if isinstance(reply, Answer):
        if reply.kind == "yes":
            return CompatibleSet.singleton(g.n, q)
        if reply.kind != "neighbor":
            raise ProtocolError(f"graph reply must be yes/neighbor, got {reply.kind}")
        u = reply.vertex
    else:
        u = int(reply)
        if u == q:
            return CompatibleSet.singleton(g.n, q)
    if u is None or u not in g.adjacency[q]:
        raise ProtocolError(f"reply vertex {u} is not a neighbor of query {q}")
    return CompatibleSet(reply_set(g, d, q, u))


# ---------------------------------------------------------------------------
# Loading and generation
# ---------------------------------------------------------------------------

# Draws gnm_graph makes before it gives up on a connected graph.
GNM_TRIES = 200


def read_fields(path):
    """(line number, whitespace-split fields) of each line of a UTF-8 text
    file that is not blank or a '#' comment. A byte that is not UTF-8 reads
    as a lone surrogate, which no number parses, so a caller's parse error
    names its line."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if line and not line.startswith("#"):
                yield lineno, line.split()


def load_graph(path) -> Graph:
    """Read a graph file: header "n m", then m lines "u v", 0-based ids.

    Blank lines and lines starting with '#' are ignored. A header with
    fewer than n - 1 edges (no connected graph), self-loops, out-of-range
    ids, malformed lines, and disconnected graphs are rejected with the
    file and, where one exists, the offending line named.
    """
    header: tuple[int, int] | None = None
    edges: list[tuple[int, int]] = []
    for lineno, parts in read_fields(path):
        if header is None:
            if len(parts) != 2:
                raise GraphFormatError(f"{path}:{lineno}: expected header 'n m'")
            try:
                header = (int(parts[0]), int(parts[1]))
            except ValueError as exc:
                raise GraphFormatError(f"{path}:{lineno}: non-integer header") from exc
            if header[0] < 1:
                raise GraphFormatError(f"{path}:{lineno}: header needs n >= 1, got {header[0]}")
            if header[1] < header[0] - 1:
                raise GraphFormatError(
                    f"{path}:{lineno}: {header[1]} edges leave {header[0]} vertices disconnected"
                )
            continue
        if len(parts) != 2:
            raise GraphFormatError(f"{path}:{lineno}: expected edge 'u v'")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise GraphFormatError(f"{path}:{lineno}: non-integer vertex id") from exc
        n = header[0]
        if not (0 <= u < n and 0 <= v < n):
            raise GraphFormatError(f"{path}:{lineno}: vertex id out of range [0, {n})")
        if u == v:
            raise GraphFormatError(f"{path}:{lineno}: self-loop {u} {v}")
        edges.append((u, v))
    if header is None:
        raise GraphFormatError(f"{path}: empty graph file")
    n, m = header
    if len(edges) != m:
        raise GraphFormatError(f"{path}: header promises {m} edges, found {len(edges)}")
    try:
        return Graph.from_edges(n, edges)
    except GraphFormatError as exc:
        raise GraphFormatError(f"{path}: {exc}") from exc


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise GraphFormatError("cycle needs n >= 3")
    edges = [(i, (i + 1) % n) for i in range(n)]
    return Graph.from_edges(n, edges)


def star_graph(n: int) -> Graph:
    """Center is vertex 0, leaves are 1..n-1."""
    if n < 2:
        raise GraphFormatError("star needs n >= 2")
    return Graph.from_edges(n, [(0, i) for i in range(1, n)])


def grid_graph(rows: int, cols: int) -> Graph:
    if rows < 1 or cols < 1:
        raise GraphFormatError("grid needs positive dimensions")
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return Graph.from_edges(rows * cols, edges, grid_shape=(rows, cols))


def random_tree(n: int, rng: np.random.Generator) -> Graph:
    """Random recursive tree: vertex i attaches to a uniform earlier vertex."""
    edges = [(int(rng.integers(0, i)), i) for i in range(1, n)]
    return Graph.from_edges(n, edges)


def gnm_graph(n: int, m: int, rng: np.random.Generator) -> Graph:
    """Uniform n-vertex m-edge graph conditioned on connectivity.

    Each try draws m distinct indices into the n(n-1)/2 pairs (u, v),
    u < v, in lexicographic order, and decodes them arithmetically, so no
    list of all pairs is built.
    """
    pairs = n * (n - 1) // 2
    if m < n - 1 or m > pairs:
        raise GraphFormatError(f"gnm needs n-1 <= m <= n(n-1)/2, got m={m}")
    # offsets[u] is the index of the first pair (u, u + 1)
    u_ids = np.arange(max(n - 1, 0), dtype=np.int64)
    offsets = u_ids * (2 * n - u_ids - 1) // 2
    for _ in range(GNM_TRIES):
        chosen = rng.choice(pairs, size=m, replace=False)
        us = np.searchsorted(offsets, chosen, side="right") - 1
        vs = us + 1 + (chosen - offsets[us])
        try:
            return Graph.from_edges(n, zip(us.tolist(), vs.tolist()))
        except GraphFormatError:
            continue
    raise GraphFormatError(f"no connected graph with n={n}, m={m} after {GNM_TRIES} tries")


def gnm_edges(n: int) -> int:
    """Edge count of --gen gnm: min(ceil(n ln n / 2) + n, n(n-1)/2).

    n ln n / 2 edges is the Erdos-Renyi connectivity threshold; the extra n
    edges leave about n e^-2m/n = e^-2 isolated vertices in expectation, so
    most draws are connected at any n.
    """
    return min(math.ceil(n * math.log(max(n, 1)) / 2) + n, n * (n - 1) // 2)


def _square_factor(n: int) -> tuple[int, int]:
    r = int(np.sqrt(n))
    while r > 1 and n % r != 0:
        r -= 1
    return r, n // r


def generated_layout(name: str, n: int) -> tuple[int, tuple[int, int] | None]:
    """The edge count and grid shape (None off a grid) of generate_graph(name,
    n) before it is built; with n - 1 edges and no grid shape it is a tree."""
    if name == "grid":
        rows, cols = _square_factor(n)
        return 2 * n - rows - cols, (rows, cols)
    return {"cycle": n, "gnm": gnm_edges(n)}.get(name, n - 1), None


def generate_graph(name: str, n: int, rng: np.random.Generator | None = None) -> Graph:
    """Build a named generator graph on n vertices (CLI --gen dispatch)."""
    if name == "path":
        return path_graph(n)
    if name == "cycle":
        return cycle_graph(n)
    if name == "star":
        return star_graph(n)
    if name == "grid":
        rows, cols = _square_factor(n)
        return grid_graph(rows, cols)
    if name == "random-tree":
        if rng is None:
            raise GraphFormatError("random-tree generator needs a seeded rng")
        return random_tree(n, rng)
    if name == "gnm":
        if rng is None:
            raise GraphFormatError("gnm generator needs a seeded rng")
        return gnm_graph(n, gnm_edges(n), rng)
    raise GraphFormatError(f"unknown graph generator {name!r}; choose from {sorted(GENERATORS)}")


GENERATORS = ("path", "cycle", "star", "grid", "random-tree", "gnm")
