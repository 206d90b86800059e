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
grid of taus per row, lazily: bounds from a few bins of each sorted sample
rule out nearly every point as the row's minimum, so that it evaluates
about three points per row, the minimum and its neighbours.

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
    "profile_nll_from_sum",
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

# profile_nll_grid bounds k(tau) from bins of each sorted row of width w:
# its top 1, 2, 4, ... values while a bin holds fewer than w/_BINS (they
# decide k near the feasibility edge), then _BINS or fewer bins. 8 took
# more time for the same grid points on all perfbench workloads.
_BINS = 4

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
        self.passes = self.elements = 0  # calls of sums, elements computed in them
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

        Every point first gets a floor under its computed value, from
        bounds on k(tau) = mean(log1p(tau*y)) over bins of the row's sorted
        sample (:meth:`_order_bins`, :func:`_bounds`). Round one evaluates
        each row's point of least estimate, round two every point whose
        floor is not above the least value found, and the last rounds the
        least value's finite neighbours. A round costs one pass of
        :meth:`sums` per point of its busiest row.
        """
        count, size = taus.shape
        n = np.array([row.n for row in self._rows], dtype=float)
        f = np.full(taus.shape, math.nan)
        skip = np.zeros(taus.shape, dtype=bool)
        skip[:, 1:] = taus[:, 1:] == taus[:, :-1]
        for i, j in zip(*np.nonzero((taus == 0.0) & ~skip)):
            f[i, j] = self._rows[i].n * (math.log(self._rows[i].mean) + 1.0)
        bins = self._order_bins()
        floor, guess = np.empty(taus.shape), np.empty(taus.shape)
        step = max(1, BLOCK_ELEMENTS // (size * bins.shape[2]))
        with np.errstate(all="ignore"):
            for i in range(0, count, step):
                rows = slice(i, i + step)
                _, _, floor[rows], guess[rows] = _bounds(taus[rows], bins[:, rows], n[rows, None])
            pending = np.isnan(f) & ~skip
            best = np.argmin(np.where(pending & ~np.isnan(guess), guess, math.inf), axis=1)
            self._grid_values(taus, pending & (np.arange(size) == best[:, None]), n, f)
            least = np.min(np.where(np.isfinite(f), f, math.inf), axis=1)
            self._grid_values(taus, np.isnan(f) & ~skip & ~(floor > least[:, None]), n, f)
            while (todo := _neighbours_pending(f, skip)).any():
                self._grid_values(taus, todo, n, f)
        return f

    def _order_bins(self) -> np.ndarray:
        """The bins (see _BINS) of each row's order statistics: 5 x rows x bins, padded with zero bins.

        A group's rows, sorted with their zeros first, share the bins of its
        width, cut where their values start; the first bin, all zeros, adds
        nothing and is dropped. Per bin: its count c, least and greatest
        values a and b, the sum of y - a and the root of half the sum of (y - a)**2.
        """
        stops = [_bin_stops(g.width)[:-1] for g in self._groups]
        bins = np.zeros((5, self.count, max(s.size for s in stops)))
        for g, stop in zip(self._groups, stops):
            rows, width = len(g.sizes), g.width
            cuts = np.column_stack([np.tile(stop, (rows, 1)), width - np.asarray(g.sizes)])
            cuts = (np.sort(cuts, axis=1) + np.arange(0, rows * width, width)[:, None]).ravel()
            s = np.sort(g.y, axis=1).ravel()
            counts = np.diff(cuts, append=s.size)
            d = s - np.repeat(s[cuts], counts)
            e = np.frexp(s[width - 1 :: width])[1]  # in units of 2**e no square overflows
            squares = np.square(np.ldexp(d, -np.repeat(e, width)))
            root = np.ldexp(np.sqrt(0.5 * np.add.reduceat(squares, cuts)), np.repeat(e, stop.size + 1))
            table = counts, s[cuts], s[cuts + counts - 1], np.add.reduceat(d, cuts), root
            bins[:, g.start : g.stop, : stop.size] = np.reshape(table, (5, rows, -1))[:, :, 1:]
        return bins

    def _grid_values(self, taus, todo, n, f) -> None:
        """Evaluate the profile NLL at the ``todo`` points, one pass per point of a row."""
        if not todo.any():
            return
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
        """Per-row sums at one tau per row; a group whose taus are all 0 is not computed.

        Returns (l, None, None) with l the sums of log1p(tau*y), or with
        ``deriv`` (l, w, w - l) where w sums t/(1 + t) and the last sums
        t/(1 + t) - log1p(t), t = tau*y; each an array over the rows.
        """
        l = np.empty(self.count)
        w_sums, d_sums = (np.empty(self.count), np.empty(self.count)) if deriv else (None, None)
        self.passes += 1
        for g in self._groups:
            rows = slice(g.start, g.stop)
            if not tau[rows].any():  # every tau is +-0: log1p(tau*y) = t/(1 + t) = tau
                l[rows] = tau[rows]
                if deriv:
                    w_sums[rows], d_sums[rows] = tau[rows], 0.0
                continue
            self.elements += g.t.size
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


def _bin_stops(n) -> np.ndarray:  # the bounds of the bins of n values, ascending from 0 to n
    stops, size = [n], 1  # bin ends, from the top
    while size < n / _BINS:
        stops.append(stops[-1] - size)
        size *= 2
    parts = min(stops[-1], -(-stops[-1] * _BINS // n))
    return np.array([stops[-1] * i // parts for i in range(parts)] + stops[::-1])


def _bounds(taus, bins, n):
    """Bounds on k = sum(log1p(tau*y))/n and on the profile NLL as computed, at each point of ``taus``.

    ``bins`` come from :meth:`Rows._order_bins`, ``n`` holds the rows'
    sizes. Over a bin [a, b], l(y) = log1p(tau*y) is concave, so it lies
    above its chord; by Taylor's theorem at a it lies within
    l(a) + l'(a)*(y - a) - q*(y - a)**2/2, q between the values of
    -l'' = (tau/(1 + tau*y))**2 at a and b. Summed over a bin, the chord
    and the larger Taylor form bound its sum from below, the other form
    from above. Both are widened by 8(w + 4) ulps (w the row's width) of
    the sum of the terms' sizes, a size being the larger of |l| and
    |t/(1 + t)|, which is what a rounding of t = tau*y costs near t = -1.
    Given k, the profile NLL n*(log(k/tau) + k + 1) increases with k for
    tau > 0 and is concave in k for tau < 0, so its floor is its least
    value at the two bounds, widened by the rounding of its terms.
    Returns (k_lo, k_hi, floor, guess), guess the NLL at the middle of
    the unwidened bounds.
    """
    # In units of a power of two near each row's largest value, which
    # changes no rounding and keeps tau/(1 + tau*y) from overflowing.
    e = np.frexp(bins[2].max(axis=1))[1][:, None]
    c = bins[0].T[:, :, None]
    a, b, d1, root = (np.ldexp(x, -e).T[:, :, None] for x in bins[1:])
    t = np.ldexp(taus, e)[None]
    ta, tb = t * a, t * b
    la, lb = np.log1p(ta), np.log1p(tb)
    ua, ub = (np.divide(t, x + 1.0, out=x) for x in (ta, tb))  # in place, as are the squares
    qa, qb = (np.square(x, out=x) for x in (ua * root, ub * root))
    slope = np.divide(d1, b - a, out=np.zeros(d1.shape), where=b > a)
    base, first = c * la, ua * d1
    lo = (base + np.maximum(slope * (lb - la), first - np.maximum(qa, qb))).sum(axis=0)
    hi = (base + first - np.minimum(qa, qb)).sum(axis=0)
    size = (c * np.maximum(lb, -b * ub)).sum(axis=0)
    rel = 8.0 * (bins[0].sum(axis=1)[:, None] + 4.0) * _EPS
    k_lo, k_hi, k_mid = (lo - rel * size) / n, (hi + rel * size) / n, (lo + hi) / (2.0 * n)
    log_lo, log_hi = np.log(k_lo / taus), np.log(k_hi / taus)
    g_lo = n * (log_lo + k_lo + 1.0)
    bound = np.where(taus > 0.0, g_lo, np.minimum(g_lo, n * (log_hi + k_hi + 1.0)))
    magnitude = n * (np.maximum(np.abs(log_lo) + np.abs(k_lo), np.abs(log_hi) + np.abs(k_hi)) + 1.0)
    return k_lo, k_hi, bound - rel * magnitude, n * (np.log(k_mid / taus) + k_mid + 1.0)


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
    if tau * row.y_max <= -1.0:
        return math.inf
    l = 0.0 if tau == 0.0 else (yield SUM, tau)
    return profile_nll_from_sum(row, tau, l)


def profile_nll_from_sum(row: Row, tau: float, l: float) -> float:
    """:func:`profile_nll` at a feasible ``tau``, given the row's sum ``l`` of log1p(tau*y)."""
    n = row.n
    if tau == 0.0:
        return n * (math.log(row.mean) + 1.0)
    k = l / n
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
    tau = 0 (ROADMAP item 3). Returns (derivative, l), l the row's sum of
    log1p(tau*y) (0 at tau = 0), from which :func:`profile_nll_from_sum`
    gives the profile NLL at tau without another pass; (nan, nan) when
    tau is infeasible.
    """
    n = row.n
    if tau == 0.0:
        m1 = row.mean
        return n * (m1 - row.m2 / (2.0 * m1)), 0.0
    if tau * row.y_max <= -1.0:
        return math.nan, math.nan
    l, w, d = yield DERIV, tau
    k = l / n
    kp = (w / n) / tau
    try:
        g = (d / n) / (tau * k)
    except ZeroDivisionError:  # tau*k underflows for a subnormal tau
        g = np.float64(d / n) / (tau * k)
    return n * (g + kp), l


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
