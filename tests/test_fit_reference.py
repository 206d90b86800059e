"""Every fit of tests/golden/fit_reference.json lies within a bound of its 40-digit profile-score root.

``scripts/fit_reference.py`` wrote the reference: samples built from
specs, and the roots of their profile scores found with mpmath at 40
digits, with the shape and scale there. A fit that moves away from its
root fails here; the reference is not regenerated to follow it.

The bounds are relative errors of the shape and of the scale, set from
the fits of the Anderson-Bjorck solve that the reference was written
with: at most 4.2e-14 (at shape 0.019; 3.0e-15 where |shape| > 0.05),
and 5.7e-10 for the six shapes within 0.01 of zero. Those get the looser
bound: the score kernel forms each O(t^2) term t/(1+t) - log1p(t) as a
difference of two O(t) values (ROADMAP item 3), so near zero it places
the root only to about n*eps/|tau|.
"""

import json
import sys
from pathlib import Path

import numpy as np

from potrisk.gpd import fit_samples

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "scripts"))

import fit_reference  # noqa: E402

BOUND = 1e-13
NEAR_ZERO_BOUND = 1e-8
NEAR_ZERO = 0.01  # |shape| below which NEAR_ZERO_BOUND applies


def _reference():
    return json.loads((ROOT / "tests" / "golden" / "fit_reference.json").read_text(encoding="utf-8"))["fits"]


def _relative(got: float, want: str) -> float:
    want = float(want)
    return abs(got - want) / abs(want)


def test_every_fit_lies_within_its_bound_of_the_40_digit_root():
    records = _reference()
    samples = [fit_reference.build(r["spec"]) for r in records]
    assert [fit_reference.digest(y) for y in samples] == [r["sha256"] for r in records]
    assert max(y.size for y in samples) <= 400
    near_zero = 0
    for record, y, fit in zip(records, samples, fit_samples(samples)):
        assert fit.converged and not fit.boundary_hit, (record["spec"], fit)
        shape = float(record["shape"])
        bound = NEAR_ZERO_BOUND if abs(shape) < NEAR_ZERO else BOUND
        near_zero += abs(shape) < NEAR_ZERO
        errors = _relative(fit.params.shape, record["shape"]), _relative(fit.params.scale, record["scale"])
        assert max(errors) <= bound, (record["spec"], y.size, fit.params, errors)
    assert len(records) >= 60 and near_zero >= 3


def test_the_reference_roots_are_roots():
    # The profile score, as tau times it at 40 digits, nearly vanishes at
    # each recorded tau; and a shape within 1e-3 of zero is among them.
    import mpmath

    records = _reference()
    with mpmath.workdps(fit_reference.DIGITS):
        for record in records[::8]:
            y = fit_reference.build(record["spec"])
            tau = mpmath.mpf(record["tau"])
            h, big_l = fit_reference._scaled_score([mpmath.mpf(float(v)) for v in y], tau)
            assert abs(h) <= mpmath.mpf("1e-18") * y.size, record["spec"]
            assert abs(big_l / y.size - mpmath.mpf(record["shape"])) <= mpmath.mpf("1e-22")
    assert min(abs(float(r["shape"])) for r in records) < 1e-3
    assert np.isfinite([float(r["scale"]) for r in records]).all()
