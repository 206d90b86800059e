"""Tail risk measures and threshold selection.

Value-at-risk extrapolates the fitted GPD tail through the exceedance
frequency n_u/n; expected shortfall follows algebraically from the same
parameters. Threshold selection fits a GPD at every candidate threshold,
keeps the fits whose shape sign matches the expected tail regime, and
picks the candidate with the maximal VaR (ties broken toward the smaller
threshold, which keeps more data in the tail).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateSample,
    InvalidCounts,
    InvalidProbability,
    NoExceedances,
    NonConvergence,
    NoSurvivingCandidates,
    NotApplicable,
    ShapeAtOrAboveOne,
    ValidationError,
)
from .excess import sorted_candidates
from .gof import ACCEPT, GofReport, gof_reports, require_alpha
from .gpd import DEFAULT_MIN_EXCEEDANCES, GpdParams, fit_samples

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


@dataclass(frozen=True)
class ThresholdScan:
    estimates: tuple[RiskEstimate, ...]
    selected_index: int
    regime: str
    diagnostics: ScanDiagnostics

    @property
    def selected(self) -> RiskEstimate:
        return self.estimates[self.selected_index]


def value_at_risk(u: float, params: GpdParams, n: int, n_u: int, p: float) -> float:
    """Level exceeded with probability p under the fitted tail model.

    u + (sigma/xi) * (((n/n_u) * p)^(-xi) - 1), with the exponential limit
    u + sigma*ln(n_u/(n*p)) at shape zero and wherever m/xi overflows, m
    the mantissa of sigma = m * 2**e. The product is formed from the
    mantissas of sigma and of the power minus one and scaled back once, so
    that it overflows only where the VaR does. Where the power overflows,
    the -1 is below its rounding, and the VaR is u + sign(xi) *
    exp(log(sigma/|xi|) - xi*ln((n/n_u) * p)). Raises ValidationError where
    the VaR is not a finite double.
    """
    if not 0.0 < p < 1.0:
        raise InvalidProbability(f"p must lie in (0, 1), got {p}")
    if not 0 < n_u <= n:
        raise InvalidCounts(f"need 0 < n_u <= n, got n_u={n_u}, n={n}")
    xi, sigma = params.shape, params.scale
    ratio = (n / n_u) * p
    m, e = math.frexp(sigma)
    if xi == 0.0 or not math.isfinite(m / xi):
        var = u - sigma * math.log(ratio)
    else:
        exponent = -xi * math.log(ratio)
        try:
            f, k = math.frexp(math.expm1(exponent))
        except OverflowError:  # the power is past the double range, its product with sigma/xi need not be
            try:
                var = u + math.copysign(math.exp(math.log(sigma) - math.log(abs(xi)) + exponent), xi)
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
    xi, sigma = params.shape, params.scale
    if xi >= 1.0:
        raise ShapeAtOrAboveOne(
            f"expected shortfall diverges for shape >= 1, got {xi}"
        )
    es = (var + sigma - u * xi) / (1.0 - xi)
    if not math.isfinite(es):
        es = 2.0 * ((0.5 * var + 0.5 * sigma - 0.5 * u * xi) / (1.0 - xi))
    if not math.isfinite(es):
        raise ValidationError(f"the expected shortfall at u={u}, VaR {var} is not a finite double")
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
    :func:`~potrisk.gpd.fit_samples`. Fits that error out or fail to
    converge are dropped but counted, as are fits whose shape sign
    contradicts ``regime``. Boundary optima are dropped too: there the
    likelihood is unbounded and the "fit" would only reflect the
    numerical feasibility margin. Goodness-of-fit reports are attached
    for the heavy-tail regime, where the critical table applies; they are
    computed together, by :func:`~potrisk.gof.gof_reports`, from the tail
    sorted once. A VaR beyond the double range raises a ValidationError;
    a shortfall there, or at shape >= 1, is None.
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

    fits = fit_samples(xs[x.size - c :] - u for u, c in zip(candidates, counts))
    survivors = []  # (candidate index, fit)
    fit_errors = 0
    not_converged = 0
    boundary_hits = 0
    wrong_sign = 0
    for i, fit in enumerate(fits):
        if isinstance(fit, (NonConvergence, DegenerateSample)):
            fit_errors += 1
        elif not fit.converged:
            not_converged += 1
        elif fit.boundary_hit:
            boundary_hits += 1
        elif not _sign_matches(fit.params.shape, regime):
            wrong_sign += 1
        else:
            survivors.append((i, fit))
    index = np.array([i for i, _ in survivors], dtype=np.intp)
    params = [fit.params for _, fit in survivors]
    gofs = [None] * len(survivors)
    if regime == HEAVY_TAIL:
        # the survivors' excesses are xs[x.size - n_u:] - u, sorted
        gofs = gof_reports(xs, x.size - counts[index], candidates[index], params)
    estimates = []
    for (i, fit), gof in zip(survivors, gofs):
        u, n_u = float(candidates[i]), int(counts[i])
        var = value_at_risk(u, fit.params, x.size, n_u, p)
        try:
            es = expected_shortfall(var, u, fit.params)
        except ValidationError:  # shape >= 1, or beyond the double range
            es = None
        estimates.append(
            RiskEstimate(u=u, params=fit.params, n=x.size, n_u=n_u, p=p, var=var, es=es, gof=gof)
        )
    diagnostics = ScanDiagnostics(
        candidates_total=int(candidates.size),
        fit_errors=fit_errors,
        not_converged=not_converged,
        boundary_hits=boundary_hits,
        wrong_sign=wrong_sign,
        surviving=len(estimates),
    )
    if not estimates:
        raise NoSurvivingCandidates(
            f"no candidate threshold survived the {regime} scan "
            f"(of {candidates.size}: {fit_errors} fit errors, "
            f"{not_converged} unconverged, {boundary_hits} at the boundary, "
            f"{wrong_sign} wrong-sign)"
        )
    selected = _argmax_var(estimates)
    return ThresholdScan(
        estimates=tuple(estimates),
        selected_index=selected,
        regime=regime,
        diagnostics=diagnostics,
    )


def _argmax_var(estimates) -> int:
    """Index of the maximal VaR; exact ties go to the smaller threshold."""
    best = 0
    for i in range(1, len(estimates)):
        if estimates[i].var > estimates[best].var or (
            estimates[i].var == estimates[best].var and estimates[i].u < estimates[best].u
        ):
            best = i
    return best


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
    """Max-VaR estimate among those whose fit is accepted at ``alpha``."""
    alpha = require_alpha_filter(alpha, scan.regime)
    survivors = [
        e for e in scan.estimates
        if e.gof is not None and e.gof.verdicts.get(alpha) == ACCEPT
    ]
    if not survivors:
        raise NoSurvivingCandidates(f"no estimate accepted at alpha={alpha}")
    return survivors[_argmax_var(survivors)]
