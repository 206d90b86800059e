"""Print how often the W²/A² verdicts reject fits to true GPD draws: the size of the tests at each level.

For each cell (n, shape) the script draws ``--draws`` samples of n points
from GPD(shape, 1), fits each by maximum likelihood
(:func:`potrisk.gpd.fit_columns`), and judges every converged fit off the
feasibility edge with :func:`potrisk.gof.test_gpd_fit`, as a threshold scan
keeps and judges its candidates. The critical-value table (Choulakian and
Stephens 2001) is for estimated parameters and covers fitted shapes from 0
to 0.3 only, so a cell counts the fits it covers, and of those, the share
that the verdicts reject at each level of ``ALPHA_LEVELS``. Tests of
nominal size reject a share near each level. A slip in the transform, the
interpolation or the pairing of A², made alike in the batched and the
one-sample path, shows here where a comparison of the two paths cannot.

Run from the repository root (about ten seconds with the defaults):

    PYTHONPATH=src python scripts/gof_size.py [--seed 0] [--draws 2000] [--sizes 25 50 100 400] [--shapes 0 0.1 0.2 0.3]
"""

import argparse

import numpy as np

from potrisk.gof import ALPHA_LEVELS, REJECT, VERDICTS, test_gpd_fit
from potrisk.gpd import GpdParams, fit_columns, gpd_sample


def rejections(n: int, shape: float, draws: int, seed: int) -> tuple[int, int, list[int]]:
    """Of ``draws`` fits to n-point GPD(shape, 1) draws: how many converged off the edge, how many of those
    the table covers, and how many of the covered ones are rejected at each level of ``ALPHA_LEVELS``."""
    samples = np.sort(gpd_sample(GpdParams(shape, 1.0), n * draws, seed).reshape(draws, n), axis=1)
    fits = fit_columns(iter(samples))
    kept = np.flatnonzero((fits.error == 0) & fits.converged & ~fits.boundary_hit)
    reports = [test_gpd_fit(samples[i], GpdParams(fits.shape[i], fits.scale[i])) for i in kept.tolist()]
    covered = [VERDICTS[r.code] for r in reports if r.applicable]
    return kept.size, len(covered), [sum(v[j] == REJECT for v in covered) for j in range(len(ALPHA_LEVELS))]


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--draws", type=int, default=2000, help="samples drawn per cell")
    parser.add_argument("--sizes", type=int, nargs="+", default=[25, 50, 100, 400])
    parser.add_argument("--shapes", type=float, nargs="+", default=[0.0, 0.1, 0.2, 0.3])
    args = parser.parse_args(argv)
    print(f"{'n':>5} {'shape':>6} {'fitted':>7} {'covered':>8}  " + " ".join(f"{a:>6g}" for a in ALPHA_LEVELS))
    for n in args.sizes:
        for shape in args.shapes:
            fitted, covered, rejected = rejections(n, shape, args.draws, args.seed)
            shares = " ".join(f"{r / covered:6.3f}" if covered else f"{'-':>6}" for r in rejected)
            print(f"{n:5d} {shape:6g} {fitted:7d} {covered:8d}  {shares}")


if __name__ == "__main__":
    main()
