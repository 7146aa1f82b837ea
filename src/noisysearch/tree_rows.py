"""The light weight rows of a graph-search chunk on a tree, held as the
prior times a step function over preorder positions.

On a tree every neighbour reply set N(q, u) is one preorder interval or
its complement (graph.TreeIndex), and a yes, or a no at a vertex holding
half the weight, treats q's one position apart from the rest. So a light
row, in the tree's preorder columns, weighs position x as

    w(x) = prior[x] * f[j] / norm        for starts[j] <= x < starts[j + 1]

with one factor per segment of a step function whose breakpoints are the
interval ends the row's replies have touched, and a norm per row. Under a
uniform prior every prior[x] is 1 and the factors carry the 1/n, so the
prior's prefix sums are the positions themselves, exact. Each row keeps
its segment starts, its factors, each segment's prior mass and its masses
at the segment starts, the total last (cum). The chunk shares the prior's
prefix sums P over preorder positions, so the row's mass before position
y is one bisect of the starts and one multiply-add:

    prefix(y) = cum[j] + f[j] * (P[y] - P[starts[j]])

P is held as two lists under every prior, a running sum and its running
rounding error (exact positions and zeros under a uniform prior, whose
shape is all ones), so the difference of two reads is accurate relative
to the mass between them, however small that mass is next to P.

A median is a walk up from the half-mass position, as TreeIndex.medians
takes it, with two prefix reads a step; a vertex above half the weight is
always that median, so the same walk gives the heavy flag. An update
splits the row at two breakpoints at most and scales the run of segments
inside its reply set by the ratio of its two factors, and the row's new
total becomes its norm: a row's factors do not sum to 1, so its masses
are re-accumulated only from the run's start, and it is divided back to
a total of 1 only when that total leaves [2**-64, 2**64]. A row that
starts or thaws has norm 1, so its weights are read as they are, as a
dense row's would be. So a row's cost grows with its light steps, not
with n; a row is built densely, over vertex ids, only where a caller
reads it whole. Vertices go in and out as vertex ids; positions stay
inside.
"""

from __future__ import annotations

import functools
from bisect import bisect_right
from itertools import accumulate
from operator import mul

import numpy as np

from .graph import _MAJORITY, HEAVY_SHARE, TreeIndex
from .mathcore import DomainError

__all__ = ["TreeRows", "TreeFrozen"]

# a row whose total leaves (_LOW, _HIGH) is divided back to a total of 1
_LOW, _HIGH = 2.0**-64, 2.0**64


class _Row:
    """One light row: segment starts, factors and prior masses (sizes),
    cum, the masses at the segment starts with the total last, and norm,
    which weights and masses are read relative to; q and at_q are its
    median position and the weight there once a walk found them, else q is
    None."""

    __slots__ = ("starts", "factors", "sizes", "cum", "norm", "q", "at_q")

    def __init__(self, starts: list[int], factors: list[float], sizes: list[float]):
        self.starts, self.factors, self.sizes = starts, factors, sizes
        self.cum = [0.0, *accumulate(map(mul, factors, sizes))]
        self.norm = 1.0
        self.q = None


class TreeRows:
    """The light rows of one chunk on a tree (see the module doc).

    tree is the graph's TreeIndex, prior the start weights over vertex ids,
    k the number of rows and p the update's noise rate (kept weights scale
    by 1-p and the rest by p). A row whose top share is above
    graph.HEAVY_SHARE leaves for a heavy run. The live rows are numbered in
    the order the engine keeps them. Every vertex, row and weight that goes
    in or out is over vertex ids; preorder positions stay inside."""

    def __init__(self, tree: TreeIndex, prior: np.ndarray, k: int, p: float):
        self.tree, self.p = tree, p
        self.n = n = len(prior)
        # a constant prior's shape is all ones, and the factors carry prior[0]
        unit = float(prior[0]) if (prior == prior[0]).all() else 1.0
        self._shape = np.asarray(prior, dtype=np.float64)[tree.order] / unit
        self._w = self._shape.tolist()
        hi, lo = _prefix_sums(self._shape)
        self._hi, self._lo = hi.tolist(), lo.tolist()
        self._end_at = tree.end_at.tolist()
        # the preorder position of each position's parent (-1 at the root)
        up = np.full(n, -1, dtype=np.int64)
        up[1:] = tree.start[tree.parent[tree.order[1:]]]
        self._up = up.tolist()
        size = self._span(0, n)
        self._rows = [_Row([0], [unit], [size]) for _ in range(k)]

    @classmethod
    def build(cls, g, d, prior: np.ndarray, k: int, p: float) -> "TreeRows":
        return cls(d.tree, prior, k, p)

    @staticmethod
    def row_words(n: int, shape=None) -> int:
        return n  # as a dense row (see graph_search.CHUNK_BYTES)

    @staticmethod
    def chunk_bytes(n: int, k: int, shape=None) -> int:
        """The preorder index (graph.TreeIndex: 241 bytes a vertex at n =
        2048, 256 at 2**17), five n-entry lists and three n-word rows (147 to
        180 bytes a vertex at n = 2048), and 2 KiB a row for its step function."""
        return 256 * n + 176 * n + 2048 * k

    def _span(self, a: int, b: int) -> float:
        """The prior's mass over positions a..b-1."""
        return (self._hi[b] - self._hi[a]) + (self._lo[b] - self._lo[a])

    # -- reads ---------------------------------------------------------

    def _walk(self, row: _Row) -> None:
        """Set row.q to the row's median position, the deepest whose
        subtree holds more than _MAJORITY, and row.at_q to its weight: the
        walk of TreeIndex.medians, up from the position where the prefix
        mass first exceeds half the total, two prefix reads a step (one
        product when the subtree lies in one segment)."""
        starts, factors, cum = row.starts, row.factors, row.cum
        hi, lo, end_at, up = self._hi, self._lo, self._end_at, self._up
        s = len(starts)
        norm = row.norm
        half, bar = 0.5 * cum[s], _MAJORITY * norm
        j = bisect_right(cum, half, 0, s) - 1
        a = starts[j]
        b = starts[j + 1] if j + 1 < s else self.n
        # the first position x of segment j with prefix(x + 1) > half
        target = hi[a] + lo[a] + (half - cum[j]) / factors[j]
        x = bisect_right(hi, target, a + 1, b) - 1
        while True:
            e = end_at[x]
            j = bisect_right(starts, x) - 1
            if j + 1 == s or e <= starts[j + 1]:
                mass = factors[j] * ((hi[e] - hi[x]) + (lo[e] - lo[x]))
            else:
                k = bisect_right(starts, e - 1, j) - 1
                sj, sk = starts[j], starts[k]
                mass = (cum[k] + factors[k] * ((hi[e] - hi[sk]) + (lo[e] - lo[sk]))) - (
                    cum[j] + factors[j] * ((hi[x] - hi[sj]) + (lo[x] - lo[sj]))
                )
            if mass > bar:
                break
            x = up[x]
        row.q = x
        row.at_q = factors[j] * self._w[x] / norm

    def tops(self) -> tuple[list[bool], np.ndarray]:
        """Per row, whether its top share is above the heavy share, and
        its median vertex, which holds that share when it is. The walks
        are kept for medians()."""
        walk = self._walk
        flags, cols = [], []
        for row in self._rows:
            walk(row)
            flags.append(row.at_q > HEAVY_SHARE)
            cols.append(row.q)
        return flags, self.tree.order[cols]

    def medians(self) -> np.ndarray:
        """The median vertex of every row, walked only for the rows that
        joined since tops()."""
        cols = []
        for row in self._rows:
            if row.q is None:
                self._walk(row)
            cols.append(row.q)
        return self.tree.order[cols]

    def _weight(self, row: _Row, x: int) -> float:
        """Row's weight at position x."""
        f = row.factors[bisect_right(row.starts, x) - 1]
        return f * self._w[x] / row.norm

    def _mass(self, row: _Row, a: int, b: int) -> float:
        """Row's mass over positions a..b-1, before the divide by its norm,
        summed segment by segment, so that it is accurate relative to itself
        (a difference of prefix reads is accurate only relative to the
        total)."""
        if a >= b:
            return 0.0
        starts, factors = row.starts, row.factors
        j = bisect_right(starts, a) - 1
        k = bisect_right(starts, b - 1, j) - 1
        if j == k:
            return factors[j] * self._span(a, b)
        inner = sum(map(mul, factors[j + 1 : k], row.sizes[j + 1 : k]))
        return factors[j] * self._span(a, starts[j + 1]) + inner + factors[k] * self._span(starts[k], b)

    def reply_masses(self, i: int, v: int, replies: list[int]) -> list[float]:
        """The mass of each reply's set at vertex v in row i: v's own
        weight for a yes, else the subtree's for a child and the mass
        outside v's subtree for the parent."""
        row, tree = self._rows[i], self.tree
        norm = row.norm
        out = []
        for u in replies:
            if u == v:
                out.append(self._weight(row, int(tree.start[v])))
                continue
            a, b, inside = tree.reply_interval(v, u)
            if inside:
                out.append(self._mass(row, a, b) / norm)
            else:
                out.append((self._mass(row, 0, a) + self._mass(row, b, self.n)) / norm)
        return out

    def row(self, i: int) -> np.ndarray:
        """Row i built densely, over vertex ids."""
        row = self._rows[i]
        return self._dense(row.starts, row.factors) / row.norm

    def _dense(self, starts: list[int], factors: list[float]) -> np.ndarray:
        """The step function of starts and factors times the prior, dense
        over vertex ids."""
        counts = np.diff(np.array([*starts, self.n]))
        out = np.repeat(np.array(factors), counts) * self._shape
        return out[self.tree.start]

    # -- updates -------------------------------------------------------

    def _split(self, row: _Row, y: int) -> int:
        """Make position y (0 <= y <= n) a segment start, or the end; returns
        the index of the segment that starts there (len(starts) at n)."""
        starts = row.starts
        if y >= self.n:
            return len(starts)
        j = bisect_right(starts, y) - 1
        sj = starts[j]
        if sj == y:
            return j
        j += 1
        end = starts[j] if j < len(starts) else self.n
        hi, lo = self._hi, self._lo
        starts.insert(j, y)
        row.factors.insert(j, row.factors[j - 1])
        sizes = row.sizes
        sizes[j - 1] = (hi[y] - hi[sj]) + (lo[y] - lo[sj])
        sizes.insert(j, (hi[end] - hi[y]) + (lo[end] - lo[y]))
        return j

    def _scale(self, row: _Row, a: int, b: int, inside: float, outside: float) -> float:
        """Scale positions a..b-1 of row by inside and the rest by outside;
        returns the row's total after, relative to its norm before, which
        the total becomes. Only the run a..b-1 is scaled, by inside /
        outside, and the masses are re-accumulated from its start (see the
        module doc)."""
        j = self._split(row, a)
        k = self._split(row, b)
        f, sizes, cum = row.factors, row.sizes, row.cum
        ratio = inside / outside
        f[j:k] = [x * ratio for x in f[j:k]]
        start = cum[j - 1] + f[j - 1] * sizes[j - 1] if j else 0.0
        cum = cum[:j]
        cum.extend(accumulate(map(mul, f[j:], sizes[j:]), initial=start))
        total = cum[-1]
        if not total > 0.0:
            raise DomainError("update annihilated all weight mass")
        before = row.norm
        if not _LOW < total < _HIGH:
            row.factors = [x / total for x in f]
            cum = [x / total for x in cum]
        row.cum, row.norm = cum, cum[-1]
        row.q = None
        return outside * total / before

    def update(self, qs: np.ndarray, replies: list[int]) -> np.ndarray:
        """Fold reply replies[i] at vertex qs[i] into row i, for every row,
        as heavy_filter and bayesian_update would: kept weights scale by
        1-p, the rest by p. A yes keeps {q}, a no at a q holding half the
        weight keeps all but q, and any other reply keeps its preorder
        interval or the complement of one. The weight at q is the walk's
        when q is the row's median. Returns each row's total before it is
        divided back to 1."""
        p, keep = self.p, 1.0 - self.p
        interval = self.tree.reply_interval
        totals = []
        positions = self.tree.start[qs].tolist()
        for row, v, q, u in zip(self._rows, qs.tolist(), positions, replies):
            if u == v:
                totals.append(self._scale(row, q, q + 1, keep, p))
            elif (row.at_q if q == row.q else self._weight(row, q)) >= 0.5:
                totals.append(self._scale(row, q, q + 1, p, keep))
            else:
                a, b, inside = interval(v, u)
                totals.append(self._scale(row, a, b, *((keep, p) if inside else (p, keep))))
        return np.array(totals)

    # -- leaving and rejoining -------------------------------------------

    def freeze(self, i: int, h: int) -> "TreeFrozen":
        """Row i as a heavy run keeps it, with vertex h its top."""
        return TreeFrozen(self, self._rows[i], h)

    def regroup(self, gone: list[int], thawed: list[_Row]) -> None:
        """Drop the rows in gone and append the thawed rows (each as
        TreeFrozen.thaw gives it), keeping the order of the others."""
        if gone:
            drop = set(gone)
            self._rows = [row for i, row in enumerate(self._rows) if i not in drop]
        self._rows.extend(thawed)


def _prefix_sums(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The running sums of w from 0 (n + 1 entries) and, beside them, the
    running sum of each addition's rounding error (two-sum), so that
    hi[b] - hi[a] + (lo[b] - lo[a]) is the sum of w[a:b] to a few units in
    its last place."""
    hi = np.zeros(len(w) + 1)
    np.cumsum(w, out=hi[1:])
    before, after = hi[:-1], hi[1:]
    moved = after - before
    err = (before - (after - moved)) + (w - moved)
    lo = np.zeros(len(w) + 1)
    np.cumsum(err, out=lo[1:])
    return hi, lo


class TreeFrozen:
    """A tree row frozen when vertex h, its top, turned heavy: its
    segments, with h's position col one of its own and the factors divided
    by the row's norm, rest0, the weight outside h (summed segment by
    segment), and row, the row over vertex ids with 0 at h, built on first
    use."""

    def __init__(self, rows: TreeRows, row: _Row, h: int):
        self.rows, self.h = rows, h
        self.col = col = int(rows.tree.start[h])
        self.k = rows._split(row, col)
        rows._split(row, col + 1)
        norm = row.norm
        self.starts, self.sizes = row.starts, row.sizes
        self.factors = [x / norm for x in row.factors]
        masses = list(map(mul, self.factors, self.sizes))
        masses[self.k] = 0.0
        self.rest0 = sum(masses)

    @functools.cached_property
    def row(self) -> np.ndarray:
        row = self.rows._dense(self.starts, self.factors)
        row[self.h] = 0.0
        return row

    def thaw(self, rest: float) -> _Row:
        """The row of the heavy row at the share rest, as TreeRows.regroup
        takes it: every factor scaled by rest / rest0, and col's set so h
        holds 1 - rest."""
        ratio = rest / self.rest0 if self.rest0 > 0.0 else 0.0
        factors = [x * ratio for x in self.factors]
        factors[self.k] = (1.0 - rest) / self.rows._w[self.col]
        return _Row(list(self.starts), factors, list(self.sizes))
