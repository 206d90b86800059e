"""Print a sha256 over the bits of every candidate fit of three inputs.

For each candidate threshold of each tail, the digest takes the fit's
shape, scale and log-likelihood as 8-byte doubles and its converged and
boundary_hit flags, or the name of the error it gave in place of a fit.
The inputs are the bundled data's four tails (two periods, two signs),
the two tails of perfbench's tail_scan input and the two tails of its
long_history input at ``--seed``, with each workload's min_exceedances.
Two checkouts whose fits are bit-identical print the same digests.

Run from the repository root (it takes about 5 s):

    PYTHONPATH=src python scripts/fit_digest.py --seed 1
"""

import argparse
import hashlib
import struct
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import inputs  # noqa: E402
import workloads  # noqa: E402

from potrisk import bundled_data_path  # noqa: E402
from potrisk.excess import candidate_thresholds  # noqa: E402
from potrisk.gpd import FitResult, fit_samples  # noqa: E402
from potrisk.report import AnalysisConfig  # noqa: E402
from potrisk.series import compute_returns, read_earnings_csv, split_by_period, split_by_sign  # noqa: E402


def bundled_tails():
    config = AnalysisConfig.from_json(bundled_data_path("synthetic_config.json"))
    returns = compute_returns(read_earnings_csv(bundled_data_path("synthetic_weekends.csv")))
    for series in split_by_period(returns, config.periods):
        split = split_by_sign(series)
        yield split.positive.values, config.min_exceedances
        yield split.negative.values, config.min_exceedances


def tail_scan_tails(seed):
    for tail in inputs.tails(inputs.tail_scan_returns(seed)):
        yield tail, workloads.SCAN_MIN_EXCEEDANCES


def long_history_tails(seed):
    """The tails and min_exceedances of perfbench's long_history task (see prepare_long_history)."""
    revenues = [float(r) for r in inputs.history_revenues(seed)]
    positive, negative = inputs.tails(inputs.returns_from_revenues(inputs.np.array(revenues)))
    gap = abs(positive.size - negative.size)
    margin = max(workloads.HISTORY_MIN_MARGIN, (workloads.HISTORY_CANDIDATES - gap) // 2)
    min_exc = min(positive.size, negative.size) - margin
    for tail in (positive, negative):
        yield tail, min_exc


def digest(tails) -> tuple[int, str]:
    """The number of candidate fits of ``tails`` and the sha256 of their bits."""
    h, count = hashlib.sha256(), 0
    for tail, min_exc in tails:
        samples = (tail[tail > u] - u for u in candidate_thresholds(tail, min_exc))
        for fit in fit_samples(samples):
            count += 1
            if isinstance(fit, FitResult):
                h.update(struct.pack(
                    "<ddd??", fit.params.shape, fit.params.scale, fit.log_likelihood,
                    fit.converged, fit.boundary_hit,
                ))
            else:
                h.update(type(fit).__name__.encode())
    return count, h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    args = parser.parse_args(argv)
    sources = [
        ("bundled", bundled_tails()),
        (f"tail_scan@{args.seed}", tail_scan_tails(args.seed)),
        (f"long_history@{args.seed}", long_history_tails(args.seed)),
    ]
    for name, tails in sources:
        count, hexdigest = digest(tails)
        print(f"{name} {count} {hexdigest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
