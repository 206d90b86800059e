"""Row-wise numpy kernels behind the GPD likelihood machinery.

The profile trick: for a fixed ratio tau = shape/scale, the log-likelihood
is maximized in closed form by shape k(tau) = mean(log1p(tau * y)) with
scale k/tau, so the two-parameter fit reduces to a one-dimensional search
over tau (Grimshaw 1993). Kernels return the *negative* profile
log-likelihood, +inf outside the feasible region.

A threshold scan searches hundreds of small excess samples, and one
likelihood evaluation on 10-400 points costs more in per-call overhead
than in arithmetic. So the samples are searched together: :class:`Rows`
holds a block of them, one per row, and :func:`drive` runs one search
coroutine per row in lockstep, answering every row's pending request with
one vectorized kernel call per step. A request asks for the row's sum of
log1p(tau*y) at the row's own tau (or, for the derivative, for three such
sums); the kernel coroutines below turn the sums into likelihood values
with scalar arithmetic. :meth:`Rows.profile_nll_grid` does the same for a
grid of taus per row, lazily: it evaluates a coarse subset, then only the
points that a concavity bound cannot rule out as the row's minimum, and
the minimum's neighbours.

Each row is stored after one leading zero and padded with zeros to the
width of its row group; np.add.reduceat sums each row over exactly its own
elements, starting at the leading zero, which is the order ``y.sum()``
uses. So a row's sums, and with them every iterate of its search, are
bit-identical to those of the same sample fitted alone: a fit never
depends on which rows share its block or its group.
"""

import math

import numpy as np

from .errors import PotriskError

__all__ = [
    "BACKEND",
    "BLOCK_ELEMENTS",
    "Row",
    "Rows",
    "drive",
    "evaluate",
    "gpd_nll",
    "profile_nll",
    "profile_nll_deriv",
]

# The kernels are numpy only; perfbench records this in its provenance.
BACKEND = "numpy"

# Elements per kernel scratch buffer (2**13 doubles = 64 KiB), and the unit
# of every block size. fit_samples gives a block up to BLOCK_ELEMENTS //
# gpd._GRID_POINTS (96) samples, however long, while their padded rows fit
# a data buffer of 8 * BLOCK_ELEMENTS elements; a longer sample gets a
# block of its own. Per-block costs (the tau grids, the bound and neighbour
# rounds, every drive step) are then paid once per 96 candidates of a long
# tail, not once per 1-5 as when a block held BLOCK_ELEMENTS elements at
# its widest row. A kernel pass runs one row group (at most BLOCK_ELEMENTS
# elements, or one longer row) at a time through the scratch buffers, so
# its arithmetic stays in cache. Buffers are allocated once per
# fit_samples call and reused, since a numpy array above glibc's 128 KiB
# mmap threshold gets fresh pages on every allocation and costs about
# three times as much per element; the data buffer is past it, but only
# its touched pages are resident. With this layout, 2**14 (192-row blocks,
# a 2**17-element data buffer) measured within the noise of 2**13 in six
# alternating in-process runs of the three perfbench workloads' fits
# (2-core Xeon VM, spread about 10%).
BLOCK_ELEMENTS = 1 << 13

# profile_nll_grid first evaluates every _GRID_STRIDE-th point of a row
# and its last point. Strides of 6 and 8 evaluated more points in all, on
# all three perfbench workloads: the bounds from a coarser start rule out
# less.
_GRID_STRIDE = 4

# Rows per bound check of profile_nll_grid: about 2,000 grid points, a
# quarter of a full block's, so that its temporaries stay near 0.3 MB.
_BOUND_ROWS = 24

_EPS = math.ulp(1.0)

# Request kinds a search coroutine yields, with its tau.
SUM = 0
DERIV = 1


class Row:
    """Per-row constants of a loaded sample, as Python floats."""

    __slots__ = ("n", "total", "mean", "m2", "y_max", "y_min")

    def __init__(self, n, total, total_sq, y_max, y_min):
        self.n = n
        self.total = total
        self.mean = total / n
        self.m2 = total_sq / n
        self.y_max = y_max
        self.y_min = y_min


class _Group:
    """Consecutive rows of a block, stored as one zero-padded rectangle of the data buffer."""

    __slots__ = ("offset", "width", "sizes", "start", "stop", "y", "t", "w", "t_flat", "w_flat", "segments")

    def __init__(self, offset, width):
        self.offset = offset
        self.width = width
        self.sizes = []

    def build(self, data, t, w, start) -> None:
        """Point the group's views at the data and scratch buffers; its rows begin at row ``start``."""
        rows = len(self.sizes)
        used = rows * self.width
        self.start, self.stop = start, start + rows
        self.y = data[self.offset : self.offset + used].reshape(rows, self.width)
        self.t, self.w = (buf[:used].reshape(rows, self.width) for buf in (t, w))
        # The scratch views hold one element past the rows so that the last
        # segment has an end.
        self.t_flat, self.w_flat = t[: used + 1], w[: used + 1]
        # Row i's segment runs from its leading zero over its data; every
        # other segment covers padding and is dropped.
        starts = np.arange(rows, dtype=np.intp) * self.width
        self.segments = np.empty(2 * rows, dtype=np.intp)
        self.segments[0::2] = starts
        self.segments[1::2] = starts + 1 + np.asarray(self.sizes, dtype=np.intp)


class Rows:
    """A block of samples, one sample per row, in reusable buffers.

    :meth:`add` copies each sample into one data buffer as it arrives, and
    :meth:`load` finishes the block. The rows are kept in groups of
    consecutive rows: each group is a rectangle of the data buffer, as wide
    as its first row plus the leading zero, and holds rows while they are
    no wider than that and the rectangle stays within ``BLOCK_ELEMENTS``
    elements (a wider row has a group of its own). :meth:`sums` makes each
    pass one group at a time, through scratch buffers sized to the largest
    group, so that the arithmetic of a pass runs in cache however many rows
    the block holds.
    """

    def __init__(self):
        self._y = self._t = self._w = np.empty(0)
        self._rows = []
        self.clear()

    def clear(self) -> None:
        """Empty the block; the buffers are kept for the next one."""
        self.count = 0
        self._used = 0
        self._groups = []

    def _joins(self, size) -> bool:
        """Whether a row of ``size`` points goes into the last group."""
        if not self._groups:
            return False
        g = self._groups[-1]
        return size < g.width and (len(g.sizes) + 1) * g.width <= BLOCK_ELEMENTS

    def has_room(self, size) -> bool:
        """Whether a sample of ``size`` points still fits in the data buffer's 8 * BLOCK_ELEMENTS elements."""
        grow = self._groups[-1].width if self._joins(size) else size + 1
        return self._used + grow <= 8 * BLOCK_ELEMENTS

    def add(self, sample: np.ndarray) -> None:
        """Copy ``sample`` (a nonempty 1-d float array) into the block as its next row."""
        size = sample.size
        if not self._joins(size):
            self._groups.append(_Group(self._used, size + 1))
        g = self._groups[-1]
        start = g.offset + len(g.sizes) * g.width
        self._used = start + g.width
        if self._used + 1 > self._y.size:
            data = np.zeros(max(self._used + 1, 8 * BLOCK_ELEMENTS + 1))
            data[:start] = self._y[:start]
            self._y = data
        self._y[start] = 0.0
        self._y[start + 1 : start + 1 + size] = sample
        self._y[start + 1 + size : self._used] = 0.0
        g.sizes.append(size)
        self.count += 1

    def load(self) -> list[Row]:
        """Finish the block: build the group views and segments; return the Rows of its samples."""
        scratch = max(len(g.sizes) * g.width for g in self._groups) + 1
        if scratch > self._t.size:
            self._t, self._w = (np.zeros(max(scratch, BLOCK_ELEMENTS + 1)) for _ in range(2))
        self._build(self._groups)
        sizes = [size for g in self._groups for size in g.sizes]
        segments = np.concatenate([g.segments + g.offset for g in self._groups])
        data = segments + np.tile([1, 0], self.count)
        flat = self._y[: self._used + 1]
        totals_sq = np.empty(self.count)
        # The squares of samples above about 1e154 overflow; a row whose
        # sums overflow stops in its search.
        with np.errstate(over="ignore"):
            for g in self._groups:
                np.multiply(g.y, g.y, out=g.t)
                totals_sq[g.start : g.stop] = np.add.reduceat(g.t_flat, g.segments)[::2]
            totals = np.add.reduceat(flat, segments)[::2]
        maxima = np.maximum.reduceat(flat, data)[::2]
        minima = np.minimum.reduceat(flat, data)[::2]
        columns = (sizes, totals.tolist(), totals_sq.tolist(), maxima.tolist(), minima.tolist())
        self._rows = [Row(*r) for r in zip(*columns)]
        return self._rows

    def _build(self, groups) -> None:
        start = 0
        for g in groups:
            g.build(self._y, self._t, self._w, start)
            start = g.stop
        self._groups = groups
        self.count = start

    def profile_nll_grid(self, taus: np.ndarray) -> np.ndarray:
        """:func:`profile_nll` of every row at the points of its row of ``taus`` that matter.

        Each row of ``taus`` is sorted. Returns the values where they were
        evaluated and nan elsewhere, and at every repeat of a point. The
        values come from the same sums and math.log as profile_nll, so each
        is bit-identical to a one-point evaluation. The least finite value
        of a row, its position, and its nearest finite neighbours on each
        side are always evaluated, and are those of the full grid.

        Every _GRID_STRIDE-th point and the last are evaluated first. Then
        every other point is evaluated unless a bound proves its value
        above the least value found, by more than the rounding of the
        sums: k(tau) = mean(log1p(tau*y)) is concave with k(0) = 0 and
        k'(0) = mean(y), so between two evaluated points k lies above
        their chord, and it lies below the chords of the neighbouring
        pairs extended and below tau*mean(y). Given k, the profile NLL
        n*(log(k/tau) + k + 1) increases with k for tau > 0 and is concave
        in k for tau < 0, so the bounds on k bound it from below. Last, the
        least value's finite neighbours are evaluated until they are
        known. Each round of evaluations costs one pass of :meth:`sums`
        per point of its busiest row.
        """
        count, size = taus.shape
        n = np.array([row.n for row in self._rows], dtype=float)
        f = np.full(taus.shape, math.nan)
        # k where the value is finite, padded with nan on both sides so that
        # a missing neighbour (column -1 or size) reads as nan.
        k = np.full((count, size + 2), math.nan)
        skip = np.zeros(taus.shape, dtype=bool)
        skip[:, 1:] = taus[:, 1:] == taus[:, :-1]
        for i, j in zip(*np.nonzero((taus == 0.0) & ~skip)):
            f[i, j] = self._rows[i].n * (math.log(self._rows[i].mean) + 1.0)
            k[i, j + 1] = 0.0
        column = np.arange(size)
        todo = ((column % _GRID_STRIDE == 0) | (column == size - 1)) & (taus != 0.0) & ~skip
        means = np.array([row.mean for row in self._rows])
        with np.errstate(all="ignore"):
            self._grid_values(taus, todo, n, k, f)
            # The least value only falls as points are added, so a point
            # that one bound check rules out stays ruled out. The check
            # takes _BOUND_ROWS rows at a time, which bounds its memory.
            todo = _neighbours_pending(f, skip)
            for i in range(0, count, _BOUND_ROWS):
                rows = slice(i, i + _BOUND_ROWS)
                todo[rows] |= _not_ruled_out(taus[rows], n[rows], means[rows], k[rows], f[rows], skip[rows])
            while todo.any():
                self._grid_values(taus, todo, n, k, f)
                todo = _neighbours_pending(f, skip)
        return f

    def _grid_values(self, taus, todo, n, k, f) -> None:
        """Evaluate k and the profile NLL at the ``todo`` points, one pass per point of a row."""
        rows, cols = np.nonzero(todo)
        counts = np.count_nonzero(todo, axis=1)
        slots = np.arange(rows.size) - np.repeat(np.cumsum(counts) - counts, counts)
        passes = np.zeros((self.count, counts.max()))
        passes[rows, slots] = tau = taus[rows, cols]
        sums = np.column_stack([self.sums(column, False)[0] for column in passes.T])
        y_max = np.array([row.y_max for row in self._rows])
        n = n[rows]
        kk = sums[rows, slots] / n
        r = kk / tau
        ok = (tau * y_max[rows] > -1.0) & (r > 0.0) & np.isfinite(r)
        logs = np.fromiter(map(math.log, r[ok]), dtype=float, count=np.count_nonzero(ok))
        r.fill(math.inf)
        r[ok] = n[ok] * (logs + kk[ok] + 1.0)
        f[rows, cols] = r
        k[rows[ok], cols[ok] + 1] = kk[ok]

    def keep(self, positions) -> None:
        """Compact the block to the rows at ``positions`` (ascending), in order.

        Each group keeps its place in the data buffer and moves its kept
        rows to its front; a group with none left is dropped.
        """
        groups, i = [], 0
        for g in self._groups:
            local = []
            while i < len(positions) and positions[i] < g.stop:
                local.append(positions[i] - g.start)
                i += 1
            if not local:
                continue
            if len(local) < len(g.sizes):
                g.y[: len(local)] = g.y[local]
                g.sizes = [g.sizes[j] for j in local]
            groups.append(g)
        self._build(groups)

    def sums(self, tau: np.ndarray, deriv: bool):
        """Per-row sums at one tau per row.

        Returns (l, None, None) with l the sums of log1p(tau*y), or with
        ``deriv`` (l, w, w - l) where w sums t/(1 + t) and the last sums
        t/(1 + t) - log1p(t), t = tau*y; each an array over the rows.
        """
        l = np.empty(self.count)
        w_sums, d_sums = (np.empty(self.count), np.empty(self.count)) if deriv else (None, None)
        for g in self._groups:
            rows = slice(g.start, g.stop)
            t = g.t
            np.multiply(g.y, tau[rows, None], out=t)
            if deriv:
                np.add(t, 1.0, out=g.w)
                np.divide(t, g.w, out=g.w)
            np.log1p(t, out=t)
            l[rows] = np.add.reduceat(g.t_flat, g.segments)[::2]
            if deriv:
                w_sums[rows] = np.add.reduceat(g.w_flat, g.segments)[::2]
                np.subtract(g.w, t, out=g.w)
                d_sums[rows] = np.add.reduceat(g.w_flat, g.segments)[::2]
        return l, w_sums, d_sums


def _not_ruled_out(taus, n, means, k, f, skip) -> np.ndarray:
    """The unevaluated grid points whose bound does not rule them out (see Rows.profile_nll_grid).

    ``k`` holds k where ``f`` is finite, with a nan column on each side.
    """
    size = taus.shape[1]
    column = np.arange(size)
    known = np.isfinite(f)
    # The nearest known points on each side of each unevaluated point j:
    # a2 < a1 < j < b1 < b2, as columns (-1 or size where there is none).
    a1 = np.maximum.accumulate(np.where(known, column, -1), axis=1).ravel()
    b1 = np.minimum.accumulate(np.where(known, column, size)[:, ::-1], axis=1)[:, ::-1].ravel()
    j = np.flatnonzero(np.isnan(f) & ~skip)
    row = j // size
    base = row * size
    ja1, jb1 = a1[j], b1[j]
    ja2 = np.where(ja1 > 0, a1[base + np.maximum(ja1 - 1, 0)], -1)
    jb2 = np.where(jb1 < size - 1, b1[base + np.minimum(jb1 + 1, size - 1)], size)
    padded = row * (size + 2) + 1
    t_all, k_all = np.pad(taus, ((0, 0), (1, 1))).ravel(), k.ravel()
    t = taus.ravel()[j]
    n = n[row]
    # A computed k is within about n ulps of its exact value (a sum of n
    # terms of one sign), so every bound on k is widened by a multiple of
    # that, relative to the terms that form it.
    rel = 4.0 * (n + 4.0) * _EPS

    def line(c1, c2):
        t1, t2 = t_all[padded + c1], t_all[padded + c2]
        w = (t - t1) / (t2 - t1)
        lo, hi = (1.0 - w) * k_all[padded + c1], w * k_all[padded + c2]
        return lo + hi, rel * (np.abs(lo) + np.abs(hi))

    chord, err = line(ja1, jb1)
    k_lo = chord - err
    tangent = t * means[row]
    k_hi = tangent + rel * np.abs(tangent)
    for c1, c2 in ((ja2, ja1), (jb1, jb2)):
        chord, err = line(c1, c2)
        k_hi = np.fmin(k_hi, chord + err)
    log_lo, log_hi = np.log(k_lo / t), np.log(k_hi / t)
    g_lo = n * (log_lo + k_lo + 1.0)
    bound = np.where(t > 0.0, g_lo, np.minimum(g_lo, n * (log_hi + k_hi + 1.0)))
    magnitude = n * (np.maximum(np.abs(log_lo) + np.abs(k_lo), np.abs(log_hi) + np.abs(k_hi)) + 1.0)
    least = np.min(np.where(known, f, math.inf), axis=1)
    todo = np.zeros(taus.shape, dtype=bool)
    todo.ravel()[j] = ~(bound - least[row] > rel * magnitude)
    return todo


def _neighbours_pending(f, skip) -> np.ndarray:
    """The points still to evaluate to know each row's least value's nearest finite neighbours.

    ``f`` holds the evaluated values and nan elsewhere; ``skip`` marks the
    nan points that are never evaluated (repeats). On each side of the
    least value, the first point that is finite or not yet evaluated is
    its neighbour, or must be evaluated to find it.
    """
    size = f.shape[1]
    column = np.arange(size)
    pending = np.isnan(f) & ~skip
    known = np.isfinite(f)
    best = np.argmin(np.where(known, f, math.inf), axis=1)[:, None]
    stop = pending | known
    left = np.where(stop & (column < best), column, -1).max(axis=1)
    right = np.where(stop & (column > best), column, size).min(axis=1)
    todo = np.zeros(f.shape, dtype=bool)
    for side in (left, right):
        i = np.nonzero((side >= 0) & (side < size))[0]
        todo[i, side[i]] = pending[i, side[i]]
    return todo


def profile_nll(row: Row, tau: float):
    """Negative profile log-likelihood of ``row`` at ``tau``, +inf when infeasible.

    A coroutine: it yields (SUM, tau) when it needs the row's sum of
    log1p(tau*y). Since y > 0, min(tau*y) is tau*y_max for tau < 0.
    """
    n = row.n
    if tau == 0.0:
        return n * (math.log(row.mean) + 1.0)
    if tau * row.y_max <= -1.0:
        return math.inf
    k = (yield SUM, tau) / n
    r = k / tau
    if not (r > 0.0) or not math.isfinite(r):
        return math.inf
    return n * (math.log(r) + k + 1.0)


def profile_nll_deriv(row: Row, tau: float):
    """Derivative of the negative profile log-likelihood in tau (a coroutine).

    Equal to n * (k'/k - 1/tau + k'). The first two terms cancel
    catastrophically near tau = 0, so they are evaluated as
    (tau*k' - k) / (tau*k) with the numerator accumulated per element.
    Each term t/(1+t) - log1p(t) is O(t^2) but is formed as the difference
    of two rounded O(t) values, so it loses about log10(1/|t|) digits near
    tau = 0 (ROADMAP item 3). Returns nan when tau is infeasible.
    """
    n = row.n
    if tau == 0.0:
        m1 = row.mean
        return n * (m1 - row.m2 / (2.0 * m1))
    if tau * row.y_max <= -1.0:
        return math.nan
    l, w, d = yield DERIV, tau
    k = l / n
    kp = (w / n) / tau
    try:
        g = (d / n) / (tau * k)
    except ZeroDivisionError:  # tau*k underflows for a subnormal tau
        g = np.float64(d / n) / (tau * k)
    return n * (g + kp)


def gpd_nll(row: Row, xi: float, sigma: float):
    """Negative GPD log-likelihood at (xi, sigma), +inf when infeasible (a coroutine)."""
    n = row.n
    if not (sigma > 0.0):
        return math.inf
    if xi == 0.0:
        return n * math.log(sigma) + row.total / sigma
    c = xi / sigma
    if c * row.y_max <= -1.0:
        return math.inf
    return n * math.log(sigma) + (1.0 + 1.0 / xi) * (yield SUM, c)


def drive(rows: Rows, searches: list) -> list:
    """Run one coroutine per row of ``rows`` in lockstep.

    Search i works on row i. It yields (SUM, tau) or (DERIV, tau) and is
    sent back what :meth:`Rows.sums` gives for its row: the log1p sum for
    SUM, the three sums for DERIV. Each step answers every unfinished
    search with one kernel call; the block is compacted when half of its
    rows have finished. Returns each search's return value, or the
    PotriskError it raised.
    """
    results = [None] * len(searches)
    live = []  # [search index, row position, coroutine, request]

    def advance(entry, value) -> bool:
        try:
            entry[3] = entry[2].send(value)
            return True
        except StopIteration as stop:
            results[entry[0]] = stop.value
        except PotriskError as exc:
            results[entry[0]] = exc
        return False

    with np.errstate(all="ignore"):
        for i, search in enumerate(searches):
            entry = [i, i, search, None]
            if advance(entry, None):
                live.append(entry)
        while live:
            if len(live) <= rows.count // 2:
                rows.keep([entry[1] for entry in live])
                for pos, entry in enumerate(live):
                    entry[1] = pos
            taus = [0.0] * rows.count
            deriv = False
            for entry in live:
                kind, tau = entry[3]
                taus[entry[1]] = tau
                deriv = deriv or kind == DERIV
            sums = rows.sums(np.array(taus), deriv)
            l, w, d = (s if s is None else s.tolist() for s in sums)
            still = []
            for entry in live:
                p = entry[1]
                if advance(entry, l[p] if entry[3][0] == SUM else (l[p], w[p], d[p])):
                    still.append(entry)
            live = still
    return results


def evaluate(kernel, y, *args):
    """Value of one kernel coroutine on one sample, e.g. evaluate(profile_nll, y, tau)."""
    rows = Rows()
    rows.add(np.ascontiguousarray(y, dtype=float))
    (row,) = rows.load()
    (value,) = drive(rows, [kernel(row, *args)])
    return value
