"""Mean-excess functions and candidate-threshold generation.

The empirical mean excess at u averages x - u over the observations that
exceed u; under a GPD tail it is linear in u with slope shape/(1 - shape),
so its trend diagnoses the tail regime. Candidate thresholds are the
observed order statistics themselves: a threshold between two data points
leaves the exceedance set unchanged and adds nothing.

Candidates and curve come from one sort. With x_k the first sorted value
above u and n_k the count from x_k on, the mean excess at u is
(x_k - u) + S_k/n_k, where S_k, the sum of x_j - x_k over j > k, is a
suffix sum of the gaps between sorted values, each weighted by the count
above it: no term is negative, so the sum cannot cancel.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParams, NoExceedances, TooFewObservations, ValidationError
from .gpd import GpdParams

__all__ = [
    "MeanExcessCurve",
    "candidate_thresholds",
    "mean_excess_curve",
    "mean_excess_empirical",
    "mean_excess_theoretical",
]


@dataclass(frozen=True)
class MeanExcessCurve:
    """Empirical mean-excess evaluations at increasing thresholds."""

    thresholds: np.ndarray
    mean_excesses: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        for name in ("thresholds", "mean_excesses", "counts"):
            arr = np.asarray(getattr(self, name))
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return int(self.thresholds.size)


def mean_excess_empirical(sample, u: float) -> tuple[float, int]:
    """Average excess over u and the exceedance count.

    The sum runs over exceedances only, estimating E(X - u | X > u).
    """
    x = np.asarray(sample, dtype=float)
    exceed = x[x > u]
    if exceed.size == 0:
        raise NoExceedances(f"no sample values exceed u={u}")
    return float(np.mean(exceed - u)), int(exceed.size)


def mean_excess_theoretical(params: GpdParams, u: float) -> float:
    """GPD mean excess (scale + shape*u) / (1 - shape)."""
    xi, sigma = params.shape, params.scale
    if xi >= 1.0:
        raise InvalidParams(f"mean excess requires shape < 1, got {xi}")
    if sigma + xi * u <= 0.0:
        raise InvalidParams(f"mean excess undefined: scale + shape*u = {sigma + xi * u}")
    return (sigma + xi * u) / (1.0 - xi)


def _sorted_counts(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sort ``x`` once: the sorted values, the distinct values, and the count above each."""
    xs = np.sort(x)
    last = np.ones(xs.size, dtype=bool)  # the last copy of each distinct value
    np.not_equal(xs[1:], xs[:-1], out=last[:-1])
    return xs, xs[last], xs.size - 1 - np.flatnonzero(last)


def candidate_thresholds(sample, min_exceedances: int) -> np.ndarray:
    """Distinct observed values u with at least ``min_exceedances`` points above.

    Sorted ascending. Because candidates are order statistics, the count
    above the k-th distinct value is exactly the number of larger
    observations.
    """
    return sorted_candidates(np.asarray(sample, dtype=float), min_exceedances)[1]


def sorted_candidates(x: np.ndarray, min_exceedances: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``x`` sorted, :func:`candidate_thresholds` of it, and the count above each candidate."""
    if x.size <= min_exceedances:
        raise TooFewObservations(
            f"sample size {x.size} must exceed min_exceedances={min_exceedances}"
        )
    xs, distinct, above = _sorted_counts(x)
    keep = above >= min_exceedances
    return xs, distinct[keep], above[keep]


def mean_excess_curve(sample) -> MeanExcessCurve:
    """Empirical mean-excess curve at every candidate threshold, in O(n log n).

    The thresholds are ``candidate_thresholds(sample, 1)``. After one sort,
    S_k = sum over m >= k of (x_{m+1} - x_m)*(n - 1 - m) is a reversed
    cumulative sum, and each row is (x_k - u) + S_k/(n - k), formed on x
    times 2**-e (e the exponent of its largest magnitude), where nothing
    overflows, and scaled back. Raises ValidationError when a value or the
    range of the values is not finite.
    """
    x = np.asarray(sample, dtype=float)
    if x.size < 3:
        raise TooFewObservations("mean-excess curve needs at least 3 observations")
    xs, distinct, above = _sorted_counts(x)
    if not np.isfinite(float(xs[-1]) - float(xs[0])):  # nan sorts last
        raise ValidationError("mean-excess curve needs finite values with a finite range")
    e = np.frexp(max(-xs[0], xs[-1]))[1]
    ys = np.ldexp(xs, -e)
    suffix = np.zeros(xs.size)
    suffix[:-1] = np.cumsum((np.diff(ys) * np.arange(xs.size - 1, 0, -1))[::-1])[::-1]
    thresholds, counts = distinct[above >= 1], above[above >= 1]
    first = xs.size - counts  # ys[first - 1] is the threshold
    means = np.ldexp((ys[first] - ys[first - 1]) + suffix[first] / counts, e)
    return MeanExcessCurve(thresholds=thresholds, mean_excesses=means, counts=counts)
