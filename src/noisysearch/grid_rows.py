"""The light weight rows of a graph-search chunk on a grid layout, held
as two line vectors and a few points.

On a rows x cols grid every neighbour reply set N(q, u) is a half-plane of
grid rows or of grid columns, so a light update scales a row line or a
column line, and only a yes or a no at a vertex holding half the weight
treats one vertex apart from the rest. Row i of a chunk weighs vertex
v = r * cols + c as

    w(v) = s[i] * (a[i, r] * b[i, c]) * f_i(v)

with a row line a and a column line b, each kept summing to 1, a scalar s
that makes the row sum to 1, and a point factor f_i(v), which is 1 except
at the row's few points: slot j of row i holds vertex pv[i, j] and factor
pf[i, j] (-1 and 1.0 when the slot is free). A yes at q scales the row by p and q by
(1-p)/p more; a no at a q holding half the weight scales the row by 1-p
and q by p/(1-p); a thawed heavy row sets its top vertex to a value. The
points of a chunk live in two arrays that widen when a row needs a slot.

The reads of a pass come from lines and points: the row and column
marginals (graph.marginal_medians takes the medians from them), the top
share, the weight at a median where it may be half the row's, and an
adversarial lie's half-plane masses. A row is built densely only where a
caller reads it whole. The rows start from a uniform prior; a chunk under
any other prior is held densely (graph_search._DenseRows).

Layout: the two lines of row i are lines[i, 0, :rows] and
lines[i, 1, :cols] of one (k, 2, L + 1) array, L = max(rows, cols); the
entries past a line's end are 0, and so is the last one, which a free
point slot reads, so its weight and its correction are exact zeros. One
numpy call then serves both lines, and the marginals share the layout.
Every reduction runs along a row's own axes and a free slot adds an exact
zero or multiplies by an exact one, so a row's arithmetic does not depend
on the chunk it is in.
"""

from __future__ import annotations

import functools

import numpy as np

from .graph import HEAVY_SHARE, marginal_medians
from .mathcore import DomainError

__all__ = ["GridRows", "GridFrozen", "POINT_SLOTS", "close_gaps"]

# point slots a chunk starts with; a row that needs more widens them all
POINT_SLOTS = 4

# the marginals and cost lines of a pass are built for as many rows at a
# time as take this many bytes (six words a line entry)
MEDIAN_BLOCK_BYTES = 1 << 18

# the reductions of a pass are ufunc calls, not the array methods, whose
# Python wrappers cost more than a small array's arithmetic
_any = np.logical_or.reduce

# what a reply does to a row: a yes, a no at a vertex holding half the
# weight, or a cut before or after q's grid row (up, down) or column
YES, HALF, UP, DOWN, LEFT, RIGHT = range(6)


def close_gaps(buf: np.ndarray, gone: list[int], m: int) -> None:
    """Drop the rows in gone (ascending) from the first m rows of buf, each
    run between two gaps moving down in one memmove over buf's flat cells."""
    flat, size = buf.reshape(-1), buf[0].size
    for shift, (i, end) in enumerate(zip(gone, gone[1:] + [m]), 1):
        flat[(i + 1 - shift) * size : (end - shift) * size] = flat[(i + 1) * size : end * size]


class GridRows:
    """The light rows of one chunk on a grid layout (see the module doc).

    shape is (rows, cols), k the number of rows, each starting from the
    uniform prior, and p the update's noise rate: kept weights scale by
    1-p and the rest by p. A row whose top share is above
    graph.HEAVY_SHARE leaves for a heavy run. The live rows are the first
    m of buffers made for k, numbered in the order the engine keeps them;
    a pass builds its marginals and cost lines in one scratch array made
    once for MEDIAN_BLOCK_BYTES worth of rows, so it allocates no array of
    the chunk's size."""

    def __init__(self, shape: tuple[int, int], k: int, p: float):
        self.rows, self.cols = rows, cols = shape
        self.m = k
        self.width = width = max(rows, cols) + 1
        self._lines = np.zeros((k, 2, width))
        self._lines[:, 0, :rows] = 1.0 / rows
        self._lines[:, 1, :cols] = 1.0 / cols
        self._s = np.ones(k)
        self._pv = np.full((k, POINT_SLOTS), -1, dtype=np.intp)
        self._pf = np.ones((k, POINT_SLOTS))
        self._pidx = self._slot_index(self._pv)
        # whether a row may hold a vertex at half the weight or more
        self._maybe = np.ones(k, dtype=bool)
        self._at = np.arange(k)
        # the medians of up to _block rows at a time: their marginals, then
        # their cost lines, in one scratch array (see medians)
        self._block = min(k, max(1, MEDIAN_BLOCK_BYTES // (48 * width)))
        self._scratch = np.empty((3, self._block, 2, width))
        self._ids = np.arange(width)
        # per reply kind: the factors of the lines before the split and
        # from it on, the split's offset from q's line, and q's point factor
        keep = 1.0 - p
        lo = [(p, 1), (keep, 1), (keep, 1), (p, 1), (1, keep), (1, p)]
        hi = [(p, 1), (keep, 1), (p, 1), (keep, 1), (1, p), (1, keep)]
        self._lo_hi = np.array([lo, hi], dtype=float).transpose(1, 2, 0)[..., None, :]
        self._off = np.array([(0, 0), (0, 0), (0, 0), (1, 0), (0, 0), (0, 1)])
        self._point = np.array([keep / p, p / keep, 1, 1, 1, 1])
        # the kind of a reply u at q, by u - q (below 0 from the end);
        # above and below win when cols is 1
        self._kinds = np.full(2 * cols + 1, YES)
        self._kinds[[-1, 1]] = LEFT, RIGHT
        self._kinds[[-cols, cols]] = UP, DOWN
        self._divisor, self._modulus = np.array([cols, 1]), np.array([rows, cols])
        self._line_starts = np.array([0, width])
        self._base = None

    @classmethod
    def build(cls, g, prior: np.ndarray, k: int, p: float) -> "GridRows":
        return cls(g.grid_shape, k, p)

    @staticmethod
    def row_words(n: int, shape: tuple[int, int]) -> int:
        """Its two lines, its scalar and POINT_SLOTS points (vertex, factor)."""
        return shape[0] + shape[1] + 1 + 2 * POINT_SLOTS

    @staticmethod
    def chunk_bytes(n: int, k: int, shape: tuple[int, int]) -> int:
        """Three arrays of 2 (max(shape) + 1) words a row (its lines, a pass's
        factors and masks), the median scratch and three n-word rows."""
        return 48 * (max(shape) + 1) * k + MEDIAN_BLOCK_BYTES + 24 * n

    def _slot_index(self, pv: np.ndarray) -> np.ndarray:
        """The flat positions in a row's lines of each slot's row and
        column entries, side by side; a free slot's both read the last,
        zero, entry of its line."""
        rows_at, cols_at = np.divmod(pv, self.cols)
        free = pv < 0
        last = self.width - 1
        return np.concatenate(
            [np.where(free, last, rows_at), self.width + np.where(free, last, cols_at)], axis=-1
        )

    # -- reads ---------------------------------------------------------

    def _point_base(self) -> np.ndarray:
        """Each slot's weight without its point factor, s included (0 for a
        free slot); kept until the rows change."""
        if self._base is None:
            self._base = self._s[: self.m, None] * self._line_products()
        return self._base

    def _line_products(self) -> np.ndarray:
        """a[r] * b[c] at each slot's vertex."""
        m, width = self.m, self.width
        slots = self._pv.shape[1]
        got = self._lines[:m].reshape(m, 2 * width)[self._at[:m, None], self._pidx[:m]]
        return got[:, :slots] * got[:, slots:]

    def row(self, i: int) -> np.ndarray:
        """Row i built densely, over vertex ids."""
        at = slice(i, i + 1)
        return _dense_rows(
            (self.rows, self.cols), self._lines[at], self._s[at], self._pv[at], self._pf[at]
        )[0]

    def tops(self) -> tuple[list[bool], np.ndarray]:
        """Per row, whether its top share is above the heavy share, and
        the vertex holding it when it is (other entries, or all when no
        row is heavy, say nothing).

        Off the points the heaviest vertex is the cell of the two lines'
        maxima. When a point with a factor below 1 sits on that cell, the
        rest of the row holds at most s minus that cell's line weight; only
        if that could be over one half is the row built to find its top."""
        m = self.m
        lines, s, pv, pf, at = self._lines[:m], self._s[:m], self._pv[:m], self._pf[:m], self._at[:m]
        weights = self._point_base() * pf
        point_top = np.maximum.reduce(weights, axis=1)
        peak = np.maximum.reduce(lines, axis=2)
        line_top = s * (peak[:, 0] * peak[:, 1])
        # line_top bounds every vertex off the points, so a row in which
        # neither reaches one half holds no vertex at half the weight
        maybe = self._maybe[:m]
        np.greater_equal(np.maximum(line_top, point_top), 0.5, out=maybe)
        if not _any(maybe):
            return [False] * m, None
        flags = point_top > HEAVY_SHARE
        cols = pv[at, weights.argmax(axis=1)]
        over = line_top > HEAVY_SHARE
        if _any(over):
            top = lines.argmax(axis=2)
            cell = top[:, 0] * self.cols + top[:, 1]
            on_cell = np.multiply.reduce(np.where(pv == cell[:, None], pf, 1.0), axis=1)
            plain = over & (on_cell == 1.0)
            cols = np.where(plain, cell, cols)
            unsure = over & ~plain & ~flags & (s - line_top > 0.5)
            flags |= plain
            for i in unsure.nonzero()[0].tolist():
                row = self.row(i)
                cols[i] = t = int(np.argmax(row))
                flags[i] = row[t] > HEAVY_SHARE
        return flags.tolist(), cols

    def marginals(self, lo: int, hi: int, out: np.ndarray) -> np.ndarray:
        """The row marginals ([:, 0, :rows]) and column marginals
        ([:, 1, :cols]) of rows lo..hi-1, in the layout of the lines and
        zero after each line's end, written into out."""
        # the lines sum to 1, so s * a is the row marginal off the points
        np.multiply(self._lines[lo:hi], self._s[lo:hi, None, None], out=out)
        base = self._point_base()[lo:hi]
        moved = base * self._pf[lo:hi] - base
        pidx = self._pidx[lo:hi].reshape(hi - lo, 2, -1)
        np.add.at(out.reshape(hi - lo, -1), (self._at[: hi - lo, None, None], pidx), moved[:, None, :])
        return out

    def medians(self) -> np.ndarray:
        """The median vertex of every row."""
        m, step = self.m, self._block
        blocks = []
        for lo in range(0, m, step):
            hi = min(lo + step, m)
            # the cost lines overwrite the marginals (marginal_medians)
            work = self._scratch[:, : hi - lo]
            marginals = self.marginals(lo, hi, work[2])
            blocks.append(marginal_medians(marginals, self.rows, self.cols, work))
        return blocks[0] if len(blocks) == 1 else np.concatenate(blocks)

    def weights_at(self, rows: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """The weight of vertex vs[j] in row rows[j], for each j."""
        rc = vs[:, None] // self._divisor % self._modulus
        got = self._lines[rows].reshape(len(rows), -1)[self._at[: len(rows), None], rc + self._line_starts]
        base = got[:, 0] * got[:, 1]
        factor = np.multiply.reduce(np.where(self._pv[rows] == vs[:, None], self._pf[rows], 1.0), axis=1)
        return (self._s[rows] * base) * factor

    def reply_masses(self, i: int, q: int, replies: list[int]) -> list[float]:
        """The mass of each reply's set at vertex q in row i: q's own weight
        for a yes, else the half-plane of grid lines beyond q's toward the
        neighbour, summed off row i's marginals."""
        r, c = divmod(q, self.cols)
        (marginals,) = self.marginals(i, i + 1, np.empty((1, 2, self.width)))
        row_mass, col_mass = marginals[0, : self.rows], marginals[1, : self.cols]
        out = []
        for u in replies:
            if u == q:
                out.append(float(self.weights_at(np.array([i]), np.array([q]))[0]))
            elif abs(u - q) == self.cols:
                out.append(float(row_mass[:r].sum() if u < q else row_mass[r + 1 :].sum()))
            else:
                out.append(float(col_mass[:c].sum() if u < q else col_mass[c + 1 :].sum()))
        return out

    # -- updates -------------------------------------------------------

    def update(self, qs: np.ndarray, replies: list[int]) -> np.ndarray:
        """Fold reply replies[i] at vertex qs[i] into row i, for every row,
        as heavy_filter and bayesian_update would: kept weights scale by
        1-p, the rest by p. A yes keeps {q}, a no at a q holding half the
        weight keeps all but q, and any other reply keeps its half-plane:
        the lines before q's, or after it, in one axis. Only the rows that
        tops() found may hold half the weight have q's weight read. Returns
        each row's total before it is divided back to 1."""
        m = self.m
        kind = self._kinds[np.asarray(replies) - qs]
        maybe = self._maybe[:m].nonzero()[0]
        if len(maybe):
            half = maybe[self.weights_at(maybe, qs[maybe]) >= 0.5]
            kind[half[kind[half] != YES]] = HALF
        self._maybe[:m] = True
        # q's grid row and column
        split = qs[:, None] // self._divisor % self._modulus + self._off[kind]
        lo_hi = self._lo_hi[kind]
        self._lines[:m] *= np.where(self._ids < split[:, :, None], lo_hi[..., 0], lo_hi[..., 1])
        pts = (kind <= HALF).nonzero()[0]
        if len(pts):
            self._merge(pts, qs[pts], self._point[kind[pts]])
        return self._normalise()

    def _normalise(self) -> np.ndarray:
        """Scale both lines back to sum 1 and s so each row sums to 1;
        returns the totals the rows had."""
        m = self.m
        lines = self._lines[:m]
        sums = np.add.reduce(lines, axis=2)
        lines /= sums[:, :, None]
        base = self._line_products()
        # summed slot by slot, so free slots at the end add exact zeros
        moved = np.add.accumulate(base * self._pf[:m] - base, axis=1)[:, -1]
        # off the points a row holds s, as its lines sum to 1
        total = 1.0 + moved
        totals = self._s[:m] * (sums[:, 0] * sums[:, 1]) * total
        if not np.minimum.reduce(totals) > 0.0:
            raise DomainError("update annihilated all weight mass")
        s = self._s[:m]
        np.divide(1.0, total, out=s)
        self._base = s[:, None] * base
        return totals

    def _merge(self, rows: np.ndarray, vs: np.ndarray, factors: np.ndarray) -> None:
        """Multiply the point factor of vertex vs[j] in row rows[j] by
        factors[j], in the slot that holds it or a free one."""
        match = self._pv[rows] == vs[:, None]
        slot = match.argmax(axis=1)
        new = ~match.any(axis=1)
        if _any(new):
            rows_new, vs_new = rows[new], vs[new]
            free = self._pv[rows_new] < 0
            room = free.any(axis=1)
            at = free.argmax(axis=1)
            if not room.all():
                at[~room] = self._pv.shape[1]
                self._widen(2 * self._pv.shape[1])
            slot[new] = at
            self._pv[rows_new, at] = vs_new
            row_at, col_at = np.divmod(vs_new, self.cols)
            self._pidx[rows_new, at] = row_at
            self._pidx[rows_new, self._pv.shape[1] + at] = self.width + col_at
        self._pf[rows, slot] *= factors

    def _widen(self, slots: int) -> None:
        """Give every row at least that many point slots."""
        extra = slots - self._pv.shape[1]
        if extra > 0:
            k = len(self._pv)
            self._pv = np.hstack([self._pv, np.full((k, extra), -1, dtype=np.intp)])
            self._pf = np.hstack([self._pf, np.ones((k, extra))])
            self._pidx = self._slot_index(self._pv)

    # -- leaving and rejoining -------------------------------------------

    def freeze(self, i: int, h: int) -> "GridFrozen":
        """Row i as a heavy run keeps it, with vertex h its top."""
        return GridFrozen(self, i, h)

    def regroup(self, gone: list[int], thawed: list[tuple]) -> None:
        """Drop the rows in gone and append the thawed rows (each as
        GridFrozen.thaw gives it), keeping the order of the others."""
        if not gone and not thawed:
            return
        self._base = None
        m = self.m
        if gone:
            for buf in (self._lines, self._s, self._pv, self._pf, self._pidx, self._maybe):
                close_gaps(buf, gone, m)
            m -= len(gone)
        if thawed:
            self._widen(max(len(t[2]) for t in thawed))
            first = m
            for lines, s, pv, pf in thawed:
                self._lines[m], self._s[m], self._maybe[m] = lines, s, True
                self._pv[m], self._pf[m] = -1, 1.0
                self._pv[m, : len(pv)], self._pf[m, : len(pf)] = pv, pf
                m += 1
            self._pidx[first:m] = self._slot_index(self._pv[first:m])
        self.m = m


def _dense_rows(shape, lines, s, pv, pf) -> np.ndarray:
    """The rows whose lines are lines[i] built densely over vertex ids: the
    products of the two lines, times s and each point's factor (free
    slots, vertex -1, left out)."""
    rows, cols = shape
    out = (lines[:, 0, :rows, None] * lines[:, 1, None, :cols]).reshape(len(lines), -1)
    out *= s[:, None]
    at, slot = (pv >= 0).nonzero()
    out[at, pv[at, slot]] *= pf[at, slot]
    return out


class GridFrozen:
    """A grid row frozen when vertex h, its top, turned heavy: its lines,
    scalar and points, rest0, the weight outside h, and row, the row over
    vertex ids with 0 at h, built on first use.

    While h holds at most 3/4 of the row, rest0 is 1 minus h's weight,
    within a few units in the last place of a number above 1/4; above that
    it is the sum of row."""

    def __init__(self, rows: GridRows, i: int, h: int):
        self.shape = (rows.rows, rows.cols)
        self.lines, self.s = rows._lines[i].copy(), float(rows._s[i])
        self.pv, self.pf = rows._pv[i].copy(), rows._pf[i].copy()
        self.h = h
        top = self._base(self.s) * self.pf[self.pv == h].prod()
        self.rest0 = 1.0 - float(top) if top <= 0.75 else float(self.row.sum())

    def _base(self, s: float) -> float:
        """h's weight at the scalar s, without its point factor."""
        r, c = divmod(self.h, self.shape[1])
        return s * (self.lines[0, r] * self.lines[1, c])

    @functools.cached_property
    def row(self) -> np.ndarray:
        row = _dense_rows(
            self.shape, self.lines[None], np.array([self.s]), self.pv[None], self.pf[None]
        )[0]
        row[self.h] = 0.0
        return row

    def thaw(self, rest: float) -> tuple:
        """The factored row of the heavy row at the share rest, as
        GridRows.regroup takes it (lines, s, point vertices, point
        factors): s scaled by rest / rest0, and h's point factor set so h
        holds 1 - rest."""
        s = self.s * (rest / self.rest0 if self.rest0 > 0.0 else 0.0)
        pv, pf = self.pv.copy(), self.pf.copy()
        slots = np.flatnonzero(pv == self.h)
        if not len(slots):
            slots = np.flatnonzero(pv < 0)
            if not len(slots):
                slots = [len(pv)]
                pv, pf = np.append(pv, np.full(len(pv), -1)), np.append(pf, np.ones(len(pf)))
            pv[slots[0]] = self.h
        pf[slots[0]] = (1.0 - rest) / self._base(s)
        return self.lines, s, pv, pf
