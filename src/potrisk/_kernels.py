"""Row-wise numpy kernels behind the GPD likelihood machinery.

The profile trick: for a fixed ratio tau = shape/scale, the log-likelihood
is maximized in closed form by shape k(tau) = mean(log1p(tau * y)) with
scale k/tau, so the two-parameter fit reduces to a one-dimensional search
over tau (Grimshaw 1993). Kernels return the *negative* profile
log-likelihood, +inf outside the feasible region.

A threshold scan searches hundreds of small excess samples, and one
likelihood evaluation on 10-400 points costs more in per-call overhead
than in arithmetic. So the samples are searched together: :class:`Rows`
holds a block of them, one per row, and its kernels evaluate every row
at the row's own tau in one pass (the profile score,
:meth:`Rows.profile_nll_deriv`), or the profile NLL at a grid of taus per
row, lazily (:meth:`Rows.profile_nll_grid`): bounds from a few bins of
each sample rule out nearly every point as the row's minimum, so that it
evaluates about three points per row. The kernel passes and the bounds
write into scratch buffers, made once per fit_samples call or per block
and reused, the bounds' in chunks of rows (see ``BLOCK_ELEMENTS``), so
that what they cost is arithmetic rather than allocation.

Every sample comes sorted ascending (a threshold scan cuts each one from
its tail sorted once) and is stored times 2**-e, e the exponent of its
largest value: its values lie in (0, 1) and its mean is at least 1/(2n),
so none of its squares, sums, grid points or bounds overflows, and a
power-of-two scaling that keeps a sample normal changes only e. Taus are
in row units, so tau*y and every sum are those of the sample's units. A
block's rows lie back to back, each as one leading zero followed by its
values, so each row's least value follows its leading zero.
np.add.reduceat sums each row over exactly its own elements, from the
leading zero on, which is the order ``y.sum()`` uses. So a row's sums,
and with them every iterate of its search, are bit-identical to those of
the same sample fitted alone: a fit depends neither on which rows share
its block or its chunk, nor on the order in which its values came.
"""

import math

import numpy as np

__all__ = [
    "BACKEND",
    "BLOCK_ELEMENTS",
    "Rows",
    "chunks",
    "least_and_neighbours",
    "profile_nll_from_sum",
]

# The kernels are numpy only; perfbench records this in its provenance.
BACKEND = "numpy"

# Elements per kernel scratch buffer (2**13 doubles = 64 KiB), and the unit
# of every block size. fit_samples gives a block up to 8 * (BLOCK_ELEMENTS //
# gpd._GRID_POINTS) (1,072) samples, however long, while their rows fit a
# data buffer of 16 * BLOCK_ELEMENTS elements (which binds first on a scan,
# at about 510 candidates); a longer sample gets a block of its own.
# Per-block costs (the bound and neighbour rounds of the grid, every step of
# the score solve, whose fixed cost hardly depends on the row count) are
# then paid once per tail of the bundled data, or per 9 candidates of 14,000
# points (long_history). A kernel pass runs one chunk of consecutive rows
# (at most BLOCK_ELEMENTS elements in all, or one longer row; the GoF's
# blocks are the same chunks) at a time through the scratch buffers, so its
# arithmetic stays in cache, and the temporaries of the tau grids are made
# in chunks of rows of about BLOCK_ELEMENTS elements.
# Buffers are allocated once per fit_samples call and reused, since a numpy
# array above glibc's 128 KiB mmap threshold gets fresh pages on every
# allocation and costs about three times as much per element; the data
# buffer is past it, but only its touched pages are resident. Doubling the
# data buffer from 8 * BLOCK_ELEMENTS cut the long_history scans by 16% and
# tail_scan's by 2% in alternating in-process runs (2-core Xeon VM); raising
# the row cap from 96 cut paper_analyze by about 10% (perfbench).
#
# The bin bounds of the lazy grid run in chunks of rows whose arrays of bins
# x points hold about 2 * BLOCK_ELEMENTS elements, and write their six such
# arrays into one scratch buffer (768 KiB at most) made once per block; the
# bins' own temporaries go through the kernel scratch buffers. Against
# fresh arrays in chunks of BLOCK_ELEMENTS this cut Rows._floors to
# 0.74-0.77, 0.77-0.83 and 0.88-0.90 of its time on the blocks of the
# perfbench workloads (alternating in-process runs, same VM). Chunks of 3
# or 4 * BLOCK_ELEMENTS saved about 0.07 more of that time, but raised the
# peak RSS of paper_analyze by about 0.7 and 1.2 MB, against 0.4 MB.
BLOCK_ELEMENTS = 1 << 13

# profile_nll_grid bounds k(tau) from bins of each sorted row, cut as those
# of its chunk's widest row of w values and leading zero: its top 1, 2, 4,
# ... values while a bin holds fewer than w/_BINS (they decide k near the
# feasibility edge), then _BINS or fewer bins. 8 took more time for the
# same grid points on all perfbench workloads.
_BINS = 4

_EPS = math.ulp(1.0)

class Rows:
    """A block of samples, each sorted ascending, one per row, in reusable buffers.

    :meth:`add` copies each sample into one data buffer as it arrives, and
    :meth:`load` finishes the block. The rows lie back to back, each as one
    leading zero followed by its values, and :meth:`load` cuts the block
    into :func:`chunks`. :meth:`sums` makes each pass one chunk at a time,
    through scratch buffers sized to the largest chunk, so that the
    arithmetic of a pass runs in cache however many rows the block holds.

    :meth:`load` sets each row's constants ``n``, ``e``, and in row units
    ``mean``, ``y_max``, ``y_min`` and ``score0`` (the score at tau = 0).
    """

    def __init__(self):
        self._y = np.empty(0)
        self._scratch = (np.empty(0),) * 2
        self.passes = self.elements = 0  # calls of sums, elements computed in them
        self.clear()

    def clear(self) -> None:
        """Empty the block; the buffers are kept for the next one."""
        self.count = 0
        self._used = 0
        self._starts = []  # each row's leading zero in the data buffer
        self._maxima = []  # each row's largest value, sample[-1]

    def has_room(self, size) -> bool:
        """Whether a sample of ``size`` points still fits in the data buffer's 16 * BLOCK_ELEMENTS elements."""
        return self._used + size + 1 <= 16 * BLOCK_ELEMENTS

    def add(self, sample: np.ndarray) -> None:
        """Copy ``sample`` into the block as its next row, in row units, after its leading zero.

        ``sample`` is a nonempty 1-d array of positive floats sorted
        ascending, which is not checked.
        """
        start = self._used
        self._used = end = start + sample.size + 1
        if end > self._y.size:
            data = np.empty(max(end, 16 * BLOCK_ELEMENTS))
            data[:start] = self._y[:start]
            self._y = data
        self._starts.append(start)
        self._maxima.append(sample[-1])
        self._y[start] = 0.0
        np.ldexp(sample, -math.frexp(sample[-1])[1], out=self._y[start + 1 : end])
        self.count += 1

    def load(self) -> np.ndarray:
        """Finish the block: cut its chunks and set the row constants; return the rows' sizes."""
        self._starts = starts = np.array([*self._starts, self._used])  # and the end of the last row
        self._widths = widths = np.diff(starts)
        self._chunks = chunks(widths.tolist())
        largest = max(starts[j] - starts[i] for i, j in self._chunks)
        if largest > self._scratch[0].size:
            self._scratch = tuple(np.empty(max(largest, BLOCK_ELEMENTS)) for _ in range(2))
        self.n = widths - 1.0
        self.y_max, self.e = np.frexp(self._maxima)
        self.y_min = self._y[starts[:-1] + 1]  # the value after each leading zero
        self.mean = np.add.reduceat(self._y[: self._used], starts[:-1]) / self.n
        totals_sq = np.empty(self.count)
        for i, j in self._chunks:
            y, t, _ = self._chunk(i, j)
            np.multiply(y, y, out=t)
            totals_sq[i:j] = np.add.reduceat(t, starts[i:j] - starts[i])
        self.score0 = self.n * (self.mean - totals_sq / self.n / (2.0 * self.mean))
        return self.n

    def _chunk(self, i, j):
        """The data of rows i to j - 1, and views of the same size of the two scratch buffers."""
        lo, hi = self._starts[i], self._starts[j]
        return (self._y[lo:hi], *(buf[: hi - lo] for buf in self._scratch))

    def profile_nll_grid(self, taus: np.ndarray):
        """The profile NLL of every row (+inf where infeasible) at the points of its row of ``taus`` that matter.

        Each row of ``taus`` is sorted. Returns the values, and the sums of
        log1p(tau*y) they came from (0 at tau = 0), where they were evaluated,
        and nan elsewhere and at every repeat of a point. Each value and sum
        is bit-identical to a one-point evaluation. The least finite value of
        a row, its position, and its nearest finite neighbours on each side
        are always evaluated, and are those of the full grid.

        Every point first gets a floor under its computed value, from
        bounds on k(tau) = mean(log1p(tau*y)) over bins of the row's sorted
        sample (:meth:`_order_bins`, :func:`_bounds`). Round one evaluates
        each row's point of least estimate, round two every point whose
        floor is not above the least value found, and the last rounds the
        least value's finite neighbours. A round costs one pass of
        :meth:`sums` per point of its busiest row.
        """
        size = taus.shape[1]
        n = self.n
        skip = np.zeros(taus.shape, dtype=bool)
        skip[:, 1:] = taus[:, 1:] == taus[:, :-1]
        zero = (taus == 0.0) & ~skip
        pending = ~(zero | skip)
        floor, best = self._floors(taus, pending)
        f, l = np.full(taus.shape, math.nan), np.full(taus.shape, math.nan)
        i, j = np.nonzero(zero)
        l[i, j] = 0.0
        f[i, j] = profile_nll_from_sum(n[i], self.mean[i], taus[i, j], l[i, j])
        with np.errstate(all="ignore"):
            self._grid_values(taus, pending & (np.arange(size) == best[:, None]), n, f, l)
            least = np.min(f, axis=1, where=np.isfinite(f), initial=math.inf)
            self._grid_values(taus, np.isnan(f) & ~skip & ~(floor > least[:, None]), n, f, l)
            del floor  # the neighbour rounds' arrays take its place
            while (todo := _neighbours_pending(f, skip)).any():
                self._grid_values(taus, todo, n, f, l)
        return f, l

    def _floors(self, taus, pending):
        """The floor of :func:`_bounds` at every point of ``taus``, and each row's ``pending`` point of least estimate.

        The bounds are made in chunks of rows whose arrays of bins x points
        hold about ``2 * BLOCK_ELEMENTS`` elements, so that they stay in
        cache, through one scratch buffer that every chunk writes over; it
        and the bins are freed before the caller makes its arrays of values.
        """
        bins = self._order_bins()
        count, size = taus.shape
        floor, best = np.empty(taus.shape), np.empty(count, dtype=np.intp)
        per_row = size * bins.shape[2]
        step = max(1, 2 * BLOCK_ELEMENTS // per_row)
        scratch = np.empty(6 * min(step, count) * per_row)
        with np.errstate(all="ignore"):
            for i in range(0, count, step):
                rows = slice(i, i + step)
                _, _, floor[rows], guess = _bounds(taus[rows], bins[:, rows], self.n[rows, None], scratch)
                best[rows] = np.argmin(np.where(pending[rows] & ~np.isnan(guess), guess, math.inf), axis=1)
        return floor, best

    def _order_bins(self) -> np.ndarray:
        """The bins (see _BINS) of each row's order statistics: 5 x rows x bins, padded with zero bins.

        A chunk's rows are cut at the bin stops of its widest row, measured
        from each row's end; a cut that falls before a row's first value is
        moved to that value, and the bins it empties read their greatest
        value from the row's leading zero. Per bin: its count c, least and
        greatest values a and b, the sum of y - a and the root of half the
        sum of (y - a)**2, with y - a and its square made in the scratch
        buffers.
        """
        widest = [int(self._widths[i:j].max()) for i, j in self._chunks]
        stops = [_bin_stops(width)[:-1] for width in widest]
        bins = np.zeros((5, self.count, max(s.size for s in stops)))
        for (i, j), width, stop in zip(self._chunks, widest, stops):
            s, t, w = self._chunk(i, j)
            starts = self._starts[i : j + 1] - self._starts[i]
            first = starts[:-1, None] + 1
            cuts = np.maximum(starts[1:, None] - width + stop, first)
            # each row's leading zero is a bin of its own, dropped below
            cuts = np.hstack([first - 1, cuts]).ravel()
            counts = np.diff(cuts, append=s.size)
            d = np.subtract(s, np.repeat(s[cuts], counts), out=t)
            root = np.sqrt(0.5 * np.add.reduceat(np.square(d, out=w), cuts))
            table = counts, s[cuts], s[cuts + counts - 1], np.add.reduceat(d, cuts), root
            bins[:, i:j, : stop.size] = np.reshape(table, (5, j - i, -1))[:, :, 1:]
        return bins

    def _grid_values(self, taus, todo, n, f, l) -> None:
        """Evaluate the profile NLL ``f`` and its sum ``l`` at the ``todo`` points, one pass per point of a row."""
        if not todo.any():
            return
        rows, cols = np.nonzero(todo)
        counts = np.count_nonzero(todo, axis=1)
        slots = np.arange(rows.size) - np.repeat(np.cumsum(counts) - counts, counts)
        passes = np.zeros((self.count, counts.max()))
        passes[rows, slots] = tau = taus[rows, cols]
        sums = np.column_stack([self.sums(column, False)[0] for column in passes.T])
        l[rows, cols] = sums[rows, slots]
        f[rows, cols] = profile_nll_from_sum(n[rows], self.mean[rows], tau, l[rows, cols])

    def sums(self, tau: np.ndarray, deriv: bool):
        """Per-row sums at one tau per row, t = tau*y; a chunk is computed only from its first to its last row whose tau is not 0.

        Returns a tuple of arrays over the rows: (l,), l the sums of
        log1p(t); or with ``deriv``, for the profile score and its two
        derivatives, (l, w, d, s2, s3), where w sums s = t/(1 + t), d sums
        s - log1p(t), and s2 and s3 sum s**2 and s**3. Each row is summed
        from its leading zero on. At tau = +-0 each term is tau or 0, which
        is what a computed row sums to.
        """
        out = np.empty((5 if deriv else 1, self.count))
        self.passes += 1
        for a, b in self._chunks:
            taus = tau[a:b]
            busy = np.flatnonzero(taus)
            if busy.size < taus.size:  # every term at tau = +-0: log1p(t) = s = s**3 = tau, s - log1p(t) = s**2 = 0
                out[:, a:b] = taus
                out[2:4, a:b] = 0.0
                if not busy.size:
                    continue
            i, j = a + busy[0], a + busy[-1] + 1
            y, t, w = self._chunk(i, j)
            segments = self._starts[i:j] - self._starts[i]
            self.elements += y.size
            np.multiply(y, tau[i] if j - i == 1 else np.repeat(tau[i:j], self._widths[i:j]), out=t)
            if deriv:
                np.add(t, 1.0, out=w)
                np.divide(t, w, out=w)
            np.log1p(t, out=t)
            out[0, i:j] = np.add.reduceat(t, segments)
            if deriv:
                out[1, i:j] = np.add.reduceat(w, segments)
                np.subtract(w, t, out=t)
                out[2, i:j] = np.add.reduceat(t, segments)
                np.multiply(w, w, out=t)
                out[3, i:j] = np.add.reduceat(t, segments)
                np.multiply(t, w, out=t)
                out[4, i:j] = np.add.reduceat(t, segments)
        return tuple(out)

    def profile_nll_deriv(self, tau: np.ndarray):
        """Every row's profile score (the derivative in tau of its profile NLL) at its own tau, and two derivatives, in one pass.

        The score is n * (k'/k - 1/tau + k'). Its first two terms cancel
        near tau = 0, so they are evaluated as (tau*k' - k) / (tau*k) with
        the numerator summed per element. Each of its terms t/(1+t) -
        log1p(t) is O(t^2) but is formed as the difference of two rounded
        O(t) values, so it loses about log10(1/|t|) digits near tau = 0
        (ROADMAP item 3). Returns (score, l, g2, g3, w, s2): l each row's
        sum of log1p(tau*y), from which :func:`profile_nll_from_sum` gives
        the NLL at tau, g2 and g3 the NLL's second and third derivatives,
        and w and s2 the sums of s and s**2 of :meth:`sums`. Up to a
        constant the NLL is n*log(l) - n*log(tau) + l, whose l has the
        derivatives w/tau, -s2/tau**2 and 2*s3/tau**3, so with r = w/l:

            g2 = (n/tau**2) * (1 - s2/l - r**2 - s2/n)
            g3 = (n/tau**3) * (2*s3/l + 3*r*s2/l + 2*r**3 - 2 + 2*s3/n)

        They share the score's cancellation near tau = 0. At tau = 0 the
        score is its limit ``score0``, l is 0, and g2 and g3 are not
        finite; where tau is infeasible the score is nan, and l nan or
        -inf.
        """
        with np.errstate(all="ignore"):
            l, w, d, s2, s3 = self.sums(tau, True)
            n = self.n
            score = n * ((d / n) / (tau * (l / n)) + (w / n) / tau)
            score = np.where(tau == 0.0, self.score0, score)
            r, q2 = w / l, s2 / l
            g2 = n / (tau * tau) * (1.0 - q2 - r * r - s2 / n)
            g3 = n / (tau * tau * tau) * (2.0 * (s3 / l) + 3.0 * r * q2 + 2.0 * (r * r * r) - 2.0 + 2.0 * (s3 / n))
        return score, l, g2, g3, w, s2


def chunks(widths) -> list:
    """Rows of ``widths`` elements cut into (first, end) runs of consecutive rows; [] for no rows.

    A run holds at most ``BLOCK_ELEMENTS`` elements in all, or one longer row.
    """
    runs, first, size = [], 0, 0
    for row, width in enumerate(widths):
        if size + width > BLOCK_ELEMENTS and row > first:
            runs.append((first, row))
            first, size = row, 0
        size += width
    return [*runs, (first, len(widths))] if len(widths) else runs


def _bin_stops(n) -> np.ndarray:  # the bounds of the bins of n values, ascending from 0 to n
    stops, size = [n], 1  # bin ends, from the top
    while size < n / _BINS:
        stops.append(stops[-1] - size)
        size *= 2
    parts = min(stops[-1], -(-stops[-1] * _BINS // n))
    return np.array([stops[-1] * i // parts for i in range(parts)] + stops[::-1])


def _bounds(taus, bins, n, scratch):
    """Bounds on k = sum(log1p(tau*y))/n and on the profile NLL as computed, at each point of ``taus``.

    ``bins`` come from :meth:`Rows._order_bins`, ``n`` holds the rows'
    sizes and ``scratch`` is :func:`_bin_sums`'. The bounds of
    :func:`_bin_sums` on the sums are widened by 8(n + 4) ulps of the sum
    of the terms' sizes, a size being the larger of |l| and |t/(1 + t)|,
    which is what a rounding of t = tau*y costs near t = -1. Given k, the
    profile NLL n*(log(k/tau) + k + 1) increases with k for tau > 0 and is
    concave in k for tau < 0, so its floor is its least value at the two
    bounds, widened by the rounding of its terms.
    Returns (k_lo, k_hi, floor, guess), guess the NLL at the middle of the
    unwidened bounds.
    """
    lo, hi, size = _bin_sums(taus, bins, scratch)
    rel = 8.0 * (n + 4.0) * _EPS
    k_lo, k_hi, k_mid = (lo - rel * size) / n, (hi + rel * size) / n, (lo + hi) / (2.0 * n)
    log_lo, log_hi = np.log(k_lo / taus), np.log(k_hi / taus)
    g_lo = n * (log_lo + k_lo + 1.0)
    bound = np.where(taus > 0.0, g_lo, np.minimum(g_lo, n * (log_hi + k_hi + 1.0)))
    magnitude = n * (np.maximum(np.abs(log_lo) + np.abs(k_lo), np.abs(log_hi) + np.abs(k_hi)) + 1.0)
    return k_lo, k_hi, bound - rel * magnitude, n * (np.log(k_mid / taus) + k_mid + 1.0)


def _bin_sums(taus, bins, scratch):
    """Lower and upper bounds on each row's sum of l(y) = log1p(tau*y) at each point of ``taus``, and its terms' size.

    Over a bin [a, b], l is concave, so it lies above its chord; by
    Taylor's theorem at a it lies within l(a) + l'(a)*(y - a) -
    q*(y - a)**2/2, q between the values of -l'' = (tau/(1 + tau*y))**2 at
    a and b. Summed over a bin, the chord and the larger Taylor form bound
    its sum from below, the other form from above; the size sums
    max(l(b), -b*l'(b)) over the bins. The terms live in six arrays of
    bins x rows x points, views of the 1-d ``scratch`` (of at least six
    times that many elements, whose values are not read): each step writes
    over a value that is no longer needed, and the b end's terms are made
    before the a end's.
    """
    c, a, b, d1, root = (x.T[:, :, None] for x in bins)
    t = taus[None]
    shape = (6, *b.shape[:2], taus.shape[1])
    u, lb, qb, la, qa, most = scratch[: math.prod(shape)].reshape(shape)
    np.multiply(t, b, out=u)
    np.log1p(u, out=lb)
    u += 1.0
    np.divide(t, u, out=u)  # l'(b)
    np.multiply(u, root, out=qb)
    np.square(qb, out=qb)
    np.multiply(-b, u, out=u)
    np.maximum(lb, u, out=u)
    size = np.multiply(c, u, out=u).sum(axis=0)
    ua = np.multiply(t, a, out=u)
    np.log1p(ua, out=la)
    ua += 1.0
    np.divide(t, ua, out=ua)  # l'(a)
    np.subtract(lb, la, out=lb)
    np.multiply(np.divide(d1, b - a, out=np.zeros(d1.shape), where=b > a), lb, out=lb)  # the chord's rise
    np.multiply(c, la, out=la)  # the sums of l(a)
    np.multiply(ua, root, out=qa)
    np.square(qa, out=qa)
    np.multiply(ua, d1, out=ua)  # and of the first-order terms
    np.maximum(qa, qb, out=most)
    least = np.minimum(qa, qb, out=qb)
    np.subtract(ua, most, out=most)
    np.maximum(lb, most, out=most)
    lo = np.add(la, most, out=most).sum(axis=0)
    np.add(la, ua, out=la)
    hi = np.subtract(la, least, out=la).sum(axis=0)
    return lo, hi, size


def _neighbours_pending(f, skip) -> np.ndarray:
    """The points still to evaluate to know each row's least value's nearest finite neighbours.

    ``f`` holds the evaluated values and nan elsewhere; ``skip`` marks the
    nan points that are never evaluated (repeats). On each side of the
    least value, the first point that is finite or not yet evaluated is
    its neighbour, or must be evaluated to find it.
    """
    size = f.shape[1]
    pending = np.isnan(f) & ~skip
    _, left, right = least_and_neighbours(f, pending | np.isfinite(f))
    todo = np.zeros(f.shape, dtype=bool)
    for side in (left, right):
        i = np.nonzero((side >= 0) & (side < size))[0]
        todo[i, side[i]] = pending[i, side[i]]
    return todo


def least_and_neighbours(f, stop):
    """Each row's column of its least finite value, and the nearest ``stop`` columns left and right (or -1, size)."""
    size = f.shape[1]
    column = np.arange(size, dtype=np.min_scalar_type(-size - 1))  # -1 to size, in the fewest bytes
    best = np.argmin(np.where(np.isfinite(f), f, math.inf), axis=1)
    left = np.where(stop & (column < best[:, None]), column, -1).max(axis=1)
    right = np.where(stop & (column > best[:, None]), column, size).min(axis=1)
    return best, left, right


def profile_nll_from_sum(n, mean, tau, l) -> np.ndarray:
    """The profile NLL n * (log(k/tau) + k + 1), k = l/n, of rows of sizes ``n`` and sums ``l`` of log1p(tau*y).

    At tau = 0 it is n * (log(mean) + 1). Where tau is infeasible, l is nan
    or -inf, k/tau is not a positive finite number, and the NLL is +inf.
    The logs are math.log's, which np.log need not match.
    """
    with np.errstate(all="ignore"):
        k = l / n
        r = k / tau
    ok = (r > 0.0) & np.isfinite(r)
    f = np.full(r.shape, math.inf)
    f[ok] = n[ok] * (_log(r[ok]) + k[ok] + 1.0)
    zero = tau == 0.0
    if np.count_nonzero(zero):
        f[zero] = n[zero] * (_log(mean[zero]) + 1.0)
    return f


def _log(x: np.ndarray) -> np.ndarray:
    return np.fromiter(map(math.log, x), dtype=float, count=x.size)
