"""Tail risk measures and threshold selection.

Value-at-risk extrapolates the fitted GPD tail through the exceedance
frequency n_u/n; expected shortfall follows algebraically from the same
parameters. Threshold selection fits a GPD at every candidate threshold,
keeps the fits whose shape sign matches the expected tail regime, and
picks the candidate with the maximal VaR (ties broken toward the smaller
threshold, which keeps more data in the tail).

A scan is kept as columns from the fits to the writers (:class:`ThresholdScan`),
with one verdict code per row (see :mod:`potrisk.gof`); a :class:`RiskEstimate`
is built only where one is asked for, such as the selected row.
"""

import math
import sys
from dataclasses import dataclass, fields

import numpy as np

from .errors import (
    InvalidCounts,
    InvalidProbability,
    NoExceedances,
    NoSurvivingCandidates,
    NotApplicable,
    ShapeAtOrAboveOne,
    ValidationError,
)
from .excess import sorted_candidates
from .gof import ACCEPT, ALPHA_LEVELS, VERDICTS, GofReport, gof_reports, require_alpha
from .gpd import DEFAULT_MIN_EXCEEDANCES, GpdParams, fit_columns

__all__ = [
    "HEAVY_TAIL",
    "SHORT_TAIL",
    "RiskEstimate",
    "ScanDiagnostics",
    "ThresholdScan",
    "expected_shortfall",
    "require_alpha_filter",
    "scan_thresholds",
    "scan_with_alpha_filter",
    "value_at_risk",
]

HEAVY_TAIL = "heavy_tail_positive_xi"
SHORT_TAIL = "short_tail_negative_xi"

# Fitted shapes within this band of zero belong to neither sign regime.
_SIGN_EPS = 1e-8


@dataclass(frozen=True)
class RiskEstimate:
    u: float
    params: GpdParams
    n: int
    n_u: int
    p: float
    var: float
    es: float | None
    gof: GofReport | None = None


@dataclass(frozen=True)
class ScanDiagnostics:
    candidates_total: int
    fit_errors: int
    not_converged: int
    boundary_hits: int
    wrong_sign: int
    surviving: int


@dataclass(frozen=True, eq=False)
class ThresholdScan:
    """A scan's surviving candidates as columns, in ascending threshold order.

    Row r is the fit (shape[r], scale[r]) on the n_u[r] of the tail's n
    values above u[r], and its VaR at p. es[r] is its shortfall where
    has_es[r]; elsewhere es[r] is nan and the shortfall None. w2, a2 and
    codes hold each row's goodness of fit and verdict code, or are None
    for a scan without (the short tail). Scans are equal when every
    column is, bit for bit.
    """

    regime: str
    diagnostics: ScanDiagnostics
    selected_index: int
    n: int
    p: float
    u: np.ndarray
    shape: np.ndarray
    scale: np.ndarray
    n_u: np.ndarray
    var: np.ndarray
    es: np.ndarray
    has_es: np.ndarray
    w2: np.ndarray | None = None
    a2: np.ndarray | None = None
    codes: np.ndarray | None = None

    def __eq__(self, other):
        if not isinstance(other, ThresholdScan):
            return NotImplemented
        return all(_bits(getattr(self, f.name)) == _bits(getattr(other, f.name)) for f in fields(self))

    @property
    def estimates(self) -> tuple[RiskEstimate, ...]:
        return tuple(map(self._estimate, range(self.u.size)))

    @property
    def selected(self) -> RiskEstimate:
        return self._estimate(self.selected_index)

    def _estimate(self, r: int) -> RiskEstimate:
        columns = (self.u, self.shape, self.scale, self.n_u, self.var, self.es)
        u, shape, scale, n_u, var, es = (c[r].item() for c in columns)
        gof = None if self.codes is None else GofReport(self.w2[r].item(), self.a2[r].item(), shape, int(self.codes[r]))
        return RiskEstimate(u, GpdParams(shape, scale), self.n, n_u, self.p, var, es if self.has_es[r] else None, gof)


def _bits(value):
    """``value``, or an array's dtype, shape and bytes."""
    return (value.dtype, value.shape, value.tobytes()) if isinstance(value, np.ndarray) else value


def value_at_risk(u: float, params: GpdParams, n: int, n_u: int, p: float) -> float:
    """Level exceeded with probability p under the fitted tail model.

    u + (sigma/xi) * (((n/n_u) * p)^(-xi) - 1), with the exponential limit
    u + sigma*ln(n_u/(n*p)) at shape zero and wherever m/xi overflows, m
    the mantissa of sigma = m * 2**e. The product is formed from the
    mantissas of sigma and of the power minus one and scaled back once, so
    that it overflows only where the VaR does. Where the power overflows,
    the -1 is below its rounding, and the VaR is u + sign(xi) * 2**e *
    exp(log(m/|xi|) - xi*ln((n/n_u) * p)), the exp taken in units of 2**j
    where it would overflow. Where (n/n_u) * p is subnormal, its log is
    log(n/n_u) + log(p), since the product has lost digits. Raises
    ValidationError where the VaR is not a finite double.
    """
    if not 0.0 < p < 1.0:
        raise InvalidProbability(f"p must lie in (0, 1), got {p}")
    if not 0 < n_u <= n:
        raise InvalidCounts(f"need 0 < n_u <= n, got n_u={n_u}, n={n}")
    return _value_at_risk(u, params.shape, params.scale, n, n_u, p)


def _value_at_risk(u: float, xi: float, sigma: float, n: int, n_u: int, p: float) -> float:
    """:func:`value_at_risk` at shape ``xi`` and scale ``sigma``, of arguments that are not checked."""
    ratio = (n / n_u) * p
    log_ratio = math.log(ratio) if ratio >= sys.float_info.min else math.log(n / n_u) + math.log(p)
    m, e = math.frexp(sigma)
    if xi == 0.0 or not math.isfinite(m / xi):
        var = u - sigma * log_ratio
    else:
        exponent = -xi * log_ratio
        try:
            f, k = math.frexp(math.expm1(exponent))
        except OverflowError:  # the power is past the double range, its product with sigma/xi need not be
            t = math.log(m) - math.log(abs(xi)) + exponent
            j = max(0, math.ceil((t - 709.0) / math.log(2.0)))  # exp(t - j*ln 2) is below the largest double
            try:
                var = u + math.copysign(math.ldexp(math.exp(t - j * math.log(2.0)), e + j), xi)
            except OverflowError:  # so is the product
                var = math.inf
        else:
            try:
                var = u + math.ldexp((m / xi) * f, e + k)
            except OverflowError:  # the product is past the double range
                var = math.inf
    if not math.isfinite(var):
        raise ValidationError(f"the VaR at u={u}, p={p} is not a finite double")
    return var


def expected_shortfall(var: float, u: float, params: GpdParams) -> float:
    """Expected size of an outcome beyond ``var``: (var + sigma - u*xi)/(1 - xi); a ValidationError if not finite.

    Where the numerator overflows, it is formed at half scale, which
    rounds as the full-scale one would.
    """
    xi = params.shape
    if xi >= 1.0:
        raise ShapeAtOrAboveOne(
            f"expected shortfall diverges for shape >= 1, got {xi}"
        )
    es = _expected_shortfall(var, u, xi, params.scale)
    if not math.isfinite(es):
        raise ValidationError(f"the expected shortfall at u={u}, VaR {var} is not a finite double")
    return es


def _expected_shortfall(var: float, u: float, xi: float, sigma: float) -> float:
    """:func:`expected_shortfall` at a shape ``xi`` below 1 and scale ``sigma``; not finite where it would raise."""
    es = (var + sigma - u * xi) / (1.0 - xi)
    if not math.isfinite(es):
        es = 2.0 * ((0.5 * var + 0.5 * sigma - 0.5 * u * xi) / (1.0 - xi))
    return es


def _sign_matches(xi: float, regime: str) -> bool:
    if regime == HEAVY_TAIL:
        return xi > _SIGN_EPS
    return xi < -_SIGN_EPS


def scan_thresholds(
    tail,
    p: float = 0.01,
    regime: str = HEAVY_TAIL,
    min_exceedances: int = DEFAULT_MIN_EXCEEDANCES,
) -> ThresholdScan:
    """Fit every candidate threshold and select the maximal-VaR estimate.

    ``tail`` holds positive magnitudes (gains, or sign-flipped losses),
    all finite. The candidates are fitted together, by
    :func:`~potrisk.gpd.fit_columns`. Fits that error out or fail to
    converge are dropped but counted, as are fits whose shape sign
    contradicts ``regime``. Boundary optima are dropped too: there the
    likelihood is unbounded and the "fit" would only reflect the
    numerical feasibility margin. W², A² and verdict codes are computed
    for the heavy-tail regime, where the critical table applies, all
    together, by :func:`~potrisk.gof.gof_reports`, from the tail sorted
    once. A VaR beyond the double range raises a ValidationError; a
    shortfall there, or at shape >= 1, is None. The selection is the
    first maximal VaR, so an exact tie goes to the smaller threshold.
    """
    if regime not in (HEAVY_TAIL, SHORT_TAIL):
        raise ValueError(f"unknown regime {regime!r}")
    if not 0.0 < p < 1.0:
        raise InvalidProbability(f"p must lie in (0, 1), got {p}")
    x = np.asarray(tail, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValidationError("tail values must be finite")
    xs, candidates, counts = sorted_candidates(x, min_exceedances)
    if min_exceedances < 1:  # then the largest value is a candidate, with nothing above
        raise NoExceedances(f"no observations above threshold {candidates[-1]}")

    fits = fit_columns(xs[x.size - c :] - u for u, c in zip(candidates, counts))
    # Each candidate's first reason to be dropped: 1 an error, 2 no convergence, 3 a boundary hit, 4 the wrong sign.
    reasons = [fits.error != 0, ~fits.converged, fits.boundary_hit, ~_sign_matches(fits.shape, regime)]
    reason = np.select(reasons, [1, 2, 3, 4])
    surviving, *drops = np.bincount(reason, minlength=5).tolist()
    diagnostics = ScanDiagnostics(int(candidates.size), *drops, surviving)
    if not surviving:
        raise NoSurvivingCandidates(
            f"no candidate threshold survived the {regime} scan "
            f"(of {candidates.size}: {diagnostics.fit_errors} fit errors, "
            f"{diagnostics.not_converged} unconverged, {diagnostics.boundary_hits} at the boundary, "
            f"{diagnostics.wrong_sign} wrong-sign)"
        )
    index = np.flatnonzero(reason == 0)
    u, n_u, shape, scale = candidates[index], counts[index], fits.shape[index], fits.scale[index]
    # the survivors' excesses are xs[x.size - n_u:] - u, sorted
    gof = gof_reports(xs, x.size - n_u, u, shape, scale) if regime == HEAVY_TAIL else (None,) * 3
    var, es = [], []
    for t, k, xi, sigma in zip(u.tolist(), n_u.tolist(), shape.tolist(), scale.tolist()):
        var.append(_value_at_risk(t, xi, sigma, x.size, k, p))
        es.append(_expected_shortfall(var[-1], t, xi, sigma) if xi < 1.0 else math.nan)
    var, es = np.array(var), np.array(es)
    es[~np.isfinite(es)] = math.nan  # beyond the double range, which is None as at shape >= 1
    return ThresholdScan(
        regime, diagnostics, int(np.argmax(var)), x.size, p, u, shape, scale, n_u, var, es, ~np.isnan(es), *gof
    )


def require_alpha_filter(alpha: float, regime: str) -> float:
    """The tabulated level of ``alpha``, if a scan of ``regime`` can be filtered at it.

    Raises the errors of :func:`scan_with_alpha_filter`, so that a caller
    can raise them before it scans.
    """
    alpha = require_alpha(alpha)
    if regime == SHORT_TAIL:
        raise NotApplicable(
            "the critical-value table does not cover negative shapes; "
            "the short-tail scan has no goodness-of-fit verdicts"
        )
    return alpha


def scan_with_alpha_filter(scan: ThresholdScan, alpha: float) -> RiskEstimate:
    """Max-VaR estimate among those whose fit is accepted at ``alpha``; exact ties go to the smaller threshold."""
    alpha = require_alpha_filter(alpha, scan.regime)
    accepts = np.array([verdicts[ALPHA_LEVELS.index(alpha)] == ACCEPT for verdicts in VERDICTS])  # by verdict code
    index = np.flatnonzero([] if scan.codes is None else accepts[scan.codes])
    if not index.size:
        raise NoSurvivingCandidates(f"no estimate accepted at alpha={alpha}")
    return scan._estimate(int(index[np.argmax(scan.var[index])]))
