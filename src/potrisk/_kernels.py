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
with scalar arithmetic, and :meth:`Rows.profile_nll_grid` does the same
for a whole grid of taus at once.

Each row is stored after one leading zero and padded with zeros to the
block's width; np.add.reduceat sums each row over exactly its own
elements, starting at the leading zero, which is the order ``y.sum()``
uses. So a row's sums, and with them every iterate of its search, are
bit-identical to those of the same sample fitted alone: a fit never
depends on which rows share its block.
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

# Elements per work buffer (2**13 doubles = 64 KiB). A block takes as many
# rows as fit at its widest row: the largest sample plus its leading zero,
# or the tau grid when that is wider; a longer sample gets a block, and
# buffers, of its own. Buffers are allocated once per fit_samples call and
# reused, since a numpy array above glibc's 128 KiB mmap threshold gets
# fresh pages on every allocation and costs about three times as much per
# element. On the bundled analysis (2-core Xeon VM), 2**14 measured +4%
# peak memory over fitting one sample at a time, for no gain in speed;
# 2**13 measures +2%.
BLOCK_ELEMENTS = 1 << 13

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


class Rows:
    """A block of samples in reusable work buffers, one sample per row."""

    def __init__(self):
        self._y = self._t = self._w = np.empty(0)
        self.count = 0
        self._width = 0
        self._segments = np.empty(0, dtype=np.intp)
        self._rows = []

    def load(self, samples) -> list[Row]:
        """Copy ``samples`` (1-d float arrays) into the block; return their Rows."""
        sizes = [s.size for s in samples]
        self.count = len(samples)
        self._width = max(sizes) + 1
        used = self.count * self._width
        if used + 1 > self._y.size:
            size = max(used + 1, BLOCK_ELEMENTS + 1)
            self._y, self._t, self._w = (np.zeros(size) for _ in range(3))
        self._y[: used + 1] = 0.0
        y = self._grid(self._y)
        for i, s in enumerate(samples):
            y[i, 1 : 1 + sizes[i]] = s
        self._set_segments(np.asarray(sizes, dtype=np.intp))
        data = self._segments + np.tile([1, 0], self.count)
        flat = self._y[: used + 1]
        np.multiply(y, y, out=self._grid(self._t))
        totals = self._row_sums(self._y)
        totals_sq = self._row_sums(self._t)
        maxima = np.maximum.reduceat(flat, data)[::2]
        minima = np.minimum.reduceat(flat, data)[::2]
        columns = (sizes, totals.tolist(), totals_sq.tolist(), maxima.tolist(), minima.tolist())
        self._rows = [Row(*r) for r in zip(*columns)]
        return self._rows

    def profile_nll_grid(self, taus: np.ndarray) -> np.ndarray:
        """:func:`profile_nll` of every row at each tau in its row of ``taus``.

        The same arithmetic, vectorized over a (rows, points) grid; the
        logarithms come from math.log, as in profile_nll, so that each
        value is bit-identical to a one-point evaluation.
        """
        n = np.array([row.n for row in self._rows], dtype=float)[:, None]
        y_max = np.array([row.y_max for row in self._rows])[:, None]
        k = np.zeros(taus.shape)
        with np.errstate(all="ignore"):
            for j, column in enumerate(taus.T):
                if column.any():  # a tau = 0 column is set from the row means below
                    k[:, j] = self.sums(column, False)[0]
            k /= n
            r = k / taus
        ok = (taus != 0.0) & (taus * y_max > -1.0) & (r > 0.0) & np.isfinite(r)
        logs = np.fromiter(map(math.log, r[ok]), dtype=float, count=np.count_nonzero(ok))
        r.fill(math.inf)
        r[ok] = np.broadcast_to(n, taus.shape)[ok] * (logs + k[ok] + 1.0)
        for i, j in zip(*np.nonzero(taus == 0.0)):
            r[i, j] = self._rows[i].n * (math.log(self._rows[i].mean) + 1.0)
        return r

    def keep(self, positions) -> None:
        """Compact the block to the rows at ``positions`` (ascending), in order."""
        y = self._grid(self._y)
        y[: len(positions)] = y[positions]
        sizes = self._segments[1::2] - self._segments[0::2] - 1
        self.count = len(positions)
        self._set_segments(sizes[positions])

    def sums(self, tau: np.ndarray, deriv: bool):
        """Per-row sums at one tau per row.

        Returns (l, None, None) with l the sums of log1p(tau*y), or with
        ``deriv`` (l, w, w - l) where w sums t/(1 + t) and the last sums
        t/(1 + t) - log1p(t), t = tau*y; each an array over the rows.
        """
        t = self._grid(self._t)
        np.multiply(self._grid(self._y), tau[:, None], out=t)
        if deriv:
            w = self._grid(self._w)
            np.add(t, 1.0, out=w)
            np.divide(t, w, out=w)
        np.log1p(t, out=t)
        if not deriv:
            return self._row_sums(self._t), None, None
        w_sums = self._row_sums(self._w)
        np.subtract(w, t, out=w)
        return self._row_sums(self._t), w_sums, self._row_sums(self._w)

    def _grid(self, buf: np.ndarray) -> np.ndarray:
        return buf[: self.count * self._width].reshape(self.count, self._width)

    def _set_segments(self, sizes: np.ndarray) -> None:
        # Row i's segment runs from its leading zero over its data; every
        # other segment covers padding and is dropped. The buffers hold
        # one element past the rows so that the last segment has an end.
        starts = np.arange(self.count, dtype=np.intp) * self._width
        self._segments = np.empty(2 * self.count, dtype=np.intp)
        self._segments[0::2] = starts
        self._segments[1::2] = starts + 1 + sizes

    def _row_sums(self, buf: np.ndarray) -> np.ndarray:
        flat = buf[: self.count * self._width + 1]
        return np.add.reduceat(flat, self._segments)[::2]


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
    (tau*k' - k) / (tau*k) with the numerator accumulated per element,
    where each term t/(1+t) - log1p(t) is O(t^2) and loses no accuracy.
    Returns nan when tau is infeasible.
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
    (row,) = rows.load([np.ascontiguousarray(y, dtype=float)])
    (value,) = drive(rows, [kernel(row, *args)])
    return value
