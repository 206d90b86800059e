"""Write tests/golden/fit_reference.json: GPD fits of a few dozen samples, their profile-score roots at 40 digits.

The maximum-likelihood fit of a sample y_1..y_n solves the profile score
of Grimshaw (1993) for tau = shape/scale. With L = sum(log1p(tau*y)) and
W = sum(tau*y/(1 + tau*y)), tau times the score is n*W/L - n + W, so its
root is that of the score. This script finds that root with mpmath at 40
digits, by Illinois false position from a bracket grown around the float
fit's tau until the function changes sign, and records it with the shape
L/n and the scale shape/tau at the root, to 25 digits.

The samples, none longer than 400 points (:func:`samples`):

- ``gpd_sample`` draws at shapes from -0.6 to 0.9 and sizes from 10 to
  400, and draws whose fitted shape is within 1e-3 of zero (the seed is
  the first that gives one);
- draws at shape -0.5 of 30 to 150 points, whose fits lie near the
  feasibility edge tau = -1/max(y);
- tied samples: draws rounded to one decimal;
- every 40th candidate threshold of the bundled data's four tails, as
  ``scan_thresholds`` cuts them.

Only samples whose float fit is converged and not at the feasibility edge
are kept, since only those have a root to compare with. Each sample is
stored as its spec and the sha256 of its values' bytes, so that a test
rebuilds it with :func:`build` and knows it got the same values. The
reference is not regenerated to follow a change of the solver: a fit that
moves away from its root fails ``tests/test_fit_reference.py``.

Run from the repository root (about a minute):

    PYTHONPATH=src python scripts/fit_reference.py
"""

import hashlib
import json
import sys
from pathlib import Path

import mpmath
import numpy as np

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "tests" / "golden" / "fit_reference.json"
DIGITS = 40

# (shape, size, seed) of the plain draws, and (size, seed) of the shape -0.5 draws.
_DRAWS = [
    (-0.6, 300, 1), (-0.45, 120, 2), (-0.3, 60, 3), (-0.2, 400, 4), (-0.1, 25, 5), (0.05, 200, 6),
    (0.1, 10, 7), (0.15, 80, 8), (0.2, 400, 9), (0.3, 150, 10), (0.4, 40, 11), (0.5, 300, 12),
    (0.6, 18, 13), (0.7, 250, 14), (0.8, 90, 15), (0.9, 400, 16),
]
_EDGE = [(30, 21), (45, 22), (60, 23), (80, 24), (100, 25), (120, 26), (150, 27)]
_TIED = [(0.2, 300, 3), (-0.2, 200, 31), (0.5, 120, 32), (0.0, 60, 33)]
# (true shape, size, first seed tried) of the draws searched for a fitted shape within 1e-3 of zero
_NEAR_ZERO = [(0.0, 100, 1000), (0.0, 250, 2000), (0.0, 400, 3000)]
_STRIDE = 40


def _tail(index):
    """The bundled data's tails in order: per period, the positive then the negative returns; and min_exceedances."""
    from potrisk import bundled_data_path
    from potrisk.report import AnalysisConfig
    from potrisk.series import compute_returns, read_earnings_csv, split_by_period, split_by_sign

    config = AnalysisConfig.from_json(bundled_data_path("synthetic_config.json"))
    returns = compute_returns(read_earnings_csv(bundled_data_path("synthetic_weekends.csv")))
    split = split_by_sign(split_by_period(returns, config.periods)[index // 2])
    return (split.positive, split.negative)[index % 2].values, config.min_exceedances


def build(spec) -> np.ndarray:
    """The sample, sorted ascending, that ``spec`` (a dict of :func:`samples`) describes."""
    from potrisk.excess import sorted_candidates
    from potrisk.gpd import GpdParams, gpd_sample

    kind = spec["kind"]
    if kind in ("gpd", "tied"):
        y = gpd_sample(GpdParams(spec["shape"], 1.0), spec["size"], spec["seed"])
        return np.sort(np.round(y, 1) + 0.05 if kind == "tied" else y)
    tail, min_exc = _tail(spec["tail"])
    xs, candidates, counts = sorted_candidates(tail, min_exc)
    i = spec["candidate"]
    return xs[xs.size - counts[i] :] - candidates[i]


def digest(y: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(y, dtype=float).tobytes()).hexdigest()


def _fit(y):
    from potrisk.gpd import fit_samples

    (fit,) = fit_samples([y])
    return fit


def samples():
    """The specs of the reference's samples, before the float fits choose among them."""
    specs = [{"kind": "gpd", "shape": xi, "size": n, "seed": s} for xi, n, s in _DRAWS]
    specs += [{"kind": "gpd", "shape": -0.5, "size": n, "seed": s} for n, s in _EDGE]
    specs += [{"kind": "tied", "shape": xi, "size": n, "seed": s} for xi, n, s in _TIED]
    for xi, n, seed in _NEAR_ZERO:
        while abs(_fit(build(spec := {"kind": "gpd", "shape": xi, "size": n, "seed": seed})).params.shape) >= 1e-3:
            seed += 1
        specs.append(spec)
    from potrisk.excess import sorted_candidates

    for index in range(4):
        _, candidates, counts = sorted_candidates(*_tail(index))
        specs += [
            {"kind": "bundled", "tail": index, "candidate": i}
            for i in range(0, candidates.size, _STRIDE)
            if counts[i] <= 400
        ]
    return specs


def _scaled_score(y, tau):
    """n*W/L - n + W at ``tau``: tau times the profile score, in mpmath."""
    terms = [tau * v for v in y]
    big_l = mpmath.fsum(mpmath.log1p(t) for t in terms)
    big_w = mpmath.fsum(t / (1 + t) for t in terms)
    n = len(y)
    return n * big_w / big_l - n + big_w, big_l


def root(y, tau_hat):
    """The root of :func:`_scaled_score` nearest the float fit's ``tau_hat``, at ``DIGITS`` digits; and L there."""
    y = [mpmath.mpf(float(v)) for v in y]
    edge = -1 / max(y)
    h = lambda tau: _scaled_score(y, tau)[0]  # noqa: E731
    tau_hat = mpmath.mpf(tau_hat)
    step = abs(tau_hat) * mpmath.mpf("1e-9") or mpmath.mpf("1e-12") / max(y)
    a, b = tau_hat - step, tau_hat + step
    while h(a) * h(b) > 0:
        step *= 4
        a, b = max(tau_hat - step, (edge + tau_hat) / 2), tau_hat + step
    fa, fb = h(a), h(b)
    side = 0
    while abs(b - a) > mpmath.mpf(10) ** (5 - DIGITS) * abs(a + b):
        c = b - fb * (b - a) / (fb - fa)
        fc = h(c)
        if fc == 0:
            a = b = c
            break
        if (fc < 0) == (fa < 0):
            a, fa = c, fc
            fb = fb / 2 if side == -1 else fb
            side = -1
        else:
            b, fb = c, fc
            fa = fa / 2 if side == 1 else fa
            side = 1
    tau = (a + b) / 2
    return tau, _scaled_score(y, tau)[1]


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    mpmath.mp.dps = DIGITS
    records = []
    for spec in samples():
        y = build(spec)
        fit = _fit(y)
        if not fit.converged or fit.boundary_hit:
            continue
        tau, big_l = root(y, fit.params.shape / fit.params.scale)
        shape = big_l / len(y)
        record = {
            "spec": spec,
            "sha256": digest(y),
            "tau": mpmath.nstr(tau, 25),
            "shape": mpmath.nstr(shape, 25),
            "scale": mpmath.nstr(shape / tau, 25),
        }
        records.append(record)
        print(f"{spec} n={len(y)} shape {record['shape']}", file=sys.stderr)
    note = "Profile-score roots at 40 digits of the float fits' samples; written by scripts/fit_reference.py."
    OUT.write_text(json.dumps({"note": note, "digits": DIGITS, "fits": records}, indent=1) + "\n", encoding="utf-8")
    print(f"{len(records)} fits written to {OUT.relative_to(ROOT)}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
