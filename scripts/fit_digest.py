"""Print a sha256 over the bits of every fit of four inputs and of their GoF reports, or compare them with another checkout's.

For each fit, the digest takes its shape, scale and log-likelihood as
8-byte doubles and its converged and boundary_hit flags, or the name of
the error it gave in place of a fit. The inputs are the candidate
thresholds of the bundled data's four tails (two periods, two signs), of
the two tails of perfbench's tail_scan input and of the two tails of its
long_history input at ``--seed``, with each workload's min_exceedances,
and 90 samples spanning 8 to 30 decades (:func:`multi_decade_samples`),
whose fits the top of the tau grid decides. Each candidate's sample is built as ``scan_thresholds`` builds it: the
excesses over the threshold of the suffix of the tail sorted once, in
ascending order, so both checkouts fit the same rows. Two checkouts
whose fits are bit-identical print the same digests. Each input's line
ends with the work of its fits' searches: the totals of
``FitResult.grid_points`` and ``score_evaluations``, and the median, 90th
percentile and most score evaluations of one fit, which can differ
between checkouts whose fits do not, since a fit's grid points can depend
on the rows that share its block.

The GoF digests take, for each survivor of a heavy-tail
``risk.scan_thresholds`` of each input's gains (the bundled periods'
gains and the gains of tail_scan and long_history, with the same
min_exceedances), its W² and A² as 8-byte doubles and its verdicts at
every tabulated level, or the name of the error the scan gave. One line
per input gives its survivor count and digest.

With ``--against CHECKOUT`` the script also fits the same inputs with
that checkout's ``src`` in a subprocess and prints, per input: the fit
count and how many fits are bit-identical, the flag and error-type
mismatches, the max and 99th-percentile relative differences of shape
and scale, each fit whose shape or scale moved by more than 1e-12
relative, with its shape, and the work of both checkouts, so that a
change to the solve shows how it moved the distribution of score
evaluations, not only their sum. For the GoF it prints, per input, the
survivor count and how many survivors' W², A² and verdicts are
bit-identical. It exits 1 if a count, a flag or an error type differs,
or if any GoF digest does.

With ``--dense N`` the script also checks that the tau grid misses no
better optimum: for every converged, non-boundary fit of the bundled
data, tail_scan and multi_decade (long_history's 14,000-point samples
would take minutes), it evaluates the profile NLL, in plain numpy apart
from the package, at N points from the feasibility edge to the grid's top
(:func:`dense_taus`) and prints each fit with a point more likely than it
by more than ``DENSE_SLACK`` relative, and the most likely such point. It
exits 1 if there is one.

Run from the repository root (each checkout's fits and scans take a few
seconds, the dense check at N = 4,000 about a minute):

    PYTHONPATH=src python scripts/fit_digest.py --seed 1
    PYTHONPATH=src python scripts/fit_digest.py --seed 1 --against ../other-checkout
    PYTHONPATH=src python scripts/fit_digest.py --seed 1 --dense 4000
"""

import argparse
import hashlib
import itertools
import json
import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import inputs  # noqa: E402
import workloads  # noqa: E402

MOVED = 1e-12  # the relative move of a shape or scale that is listed
DENSE_SLACK = 1e-12  # how much less than a fit's, relative, a dense point's NLL must be to be listed


def bundled_tails():
    from potrisk import bundled_data_path
    from potrisk.report import AnalysisConfig
    from potrisk.series import compute_returns, read_earnings_csv, split_by_period, split_by_sign

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
    positive, negative = inputs.tails(inputs.returns_from_revenues(np.array(revenues)))
    gap = abs(positive.size - negative.size)
    margin = max(workloads.HISTORY_MIN_MARGIN, (workloads.HISTORY_CANDIDATES - gap) // 2)
    min_exc = min(positive.size, negative.size) - margin
    for tail in (positive, negative):
        yield tail, min_exc


def multi_decade_samples():
    """90 seeded samples of 15, 40 and 200 points, log-uniform over 8 to 30 decades, each sorted.

    Their smallest values sit far below their means, so the top of the tau
    grid, 2*(mean - y_min)/y_min**2, lies many decades above 1e8/mean, and
    some roots of their profile scores lie near it.
    """
    rng = np.random.default_rng(0)
    for span in (8, 10, 12, 16, 20, 30):
        for n in (15, 40, 200):
            for _ in range(5):
                yield np.sort(10.0 ** rng.uniform(-span / 2, span / 2, n))


def candidate_samples(tails):
    """Per tail of ``tails``, its candidates' samples."""
    from potrisk.excess import sorted_candidates

    for tail, min_exc in tails:
        xs, candidates, counts = sorted_candidates(tail, min_exc)
        yield (xs[xs.size - c :] - u for u, c in zip(candidates, counts))


def fits(batches) -> tuple:
    """The fits of the samples of ``batches``, each batch fitted by one ``fit_samples`` call, and their work.

    Returns a list with, per fit, (shape, scale, log-likelihood, converged,
    boundary_hit) or the error's name, and the fits' work: their total grid
    points and score evaluations, and the median, 90th percentile and most
    score evaluations of one.
    """
    from potrisk.gpd import FitResult, fit_samples

    out, grid_points, evaluations = [], 0, []
    for samples in batches:
        for fit in fit_samples(samples):
            if isinstance(fit, FitResult):
                p = fit.params
                out.append((p.shape, p.scale, fit.log_likelihood, fit.converged, fit.boundary_hit))
                grid_points += fit.grid_points
                evaluations.append(fit.score_evaluations)
            else:
                out.append(type(fit).__name__)
    spread = np.percentile(evaluations, [50, 90, 100]).tolist() if evaluations else [0, 0, 0]
    return out, [grid_points, sum(evaluations), *spread]


def _bits(record) -> bytes:  # a record of fits()
    return record.encode() if isinstance(record, str) else struct.pack("<ddd??", *record)


def digest(records) -> str:
    """The sha256 of the bits of ``records`` (see :func:`fits`)."""
    h = hashlib.sha256()
    for r in records:
        h.update(_bits(r))
    return h.hexdigest()


def all_fits(seed) -> dict:
    """Per input, :func:`fits` of its tails."""
    return {
        "bundled": fits(candidate_samples(bundled_tails())),
        f"tail_scan@{seed}": fits(candidate_samples(tail_scan_tails(seed))),
        f"long_history@{seed}": fits(candidate_samples(long_history_tails(seed))),
        "multi_decade": fits([multi_decade_samples()]),
    }


def gains(tails):
    """The gains of ``tails``, which alternate each input's gains and loss magnitudes."""
    return itertools.islice(tails, 0, None, 2)


def gof_records(tails) -> list:
    """Per survivor of a heavy-tail scan of each of ``tails``, its (W², A², verdicts...), or the scan's error's name."""
    from potrisk.errors import PotriskError
    from potrisk.gof import ALPHA_LEVELS
    from potrisk.risk import HEAVY_TAIL, scan_thresholds

    out = []
    for tail, min_exc in tails:
        try:
            scan = scan_thresholds(tail, regime=HEAVY_TAIL, min_exceedances=min_exc)
        except PotriskError as exc:
            out.append(type(exc).__name__)
            continue
        out.extend((e.gof.w2, e.gof.a2, *(e.gof.verdicts[a] for a in ALPHA_LEVELS)) for e in scan.estimates)
    return out


def _gof_bits(record) -> bytes:  # a record of gof_records()
    if isinstance(record, str):
        return record.encode()
    return struct.pack("<dd", *record[:2]) + ",".join(record[2:]).encode()


def all_gofs(seed) -> dict:
    """Per input, :func:`gof_records` of its gains."""
    return {
        "bundled": gof_records(gains(bundled_tails())),
        f"tail_scan@{seed}": gof_records(gains(tail_scan_tails(seed))),
        f"long_history@{seed}": gof_records(gains(long_history_tails(seed))),
    }


def gof_digest(records) -> str:
    """The sha256 of the bits of ``records`` (see :func:`gof_records`)."""
    h = hashlib.sha256()
    for r in records:
        h.update(_gof_bits(r))
    return h.hexdigest()


def compare_gofs(name, mine, theirs) -> bool:
    """Print how many GoF records of ``mine`` are bit-identical to ``theirs``; whether their digests agree."""
    identical = sum(_gof_bits(a) == _gof_bits(b) for a, b in zip(mine, theirs))
    print(f"{name} gof: {len(mine)} survivors here, {len(theirs)} there, {identical} bit-identical")
    return gof_digest(mine) == gof_digest(theirs)


def _relative(a: float, b: float) -> float:
    return 0.0 if a == b else abs(a - b) / abs(b) if b else math.inf


def _work(work) -> str:
    points, evaluations, median, p90, most = work
    return (f"grid_points {points} score_evaluations {evaluations} "
            f"(per fit median {median:g}, p90 {p90:g}, at most {most:g})")


def compare(name, mine, theirs) -> bool:
    """Print how the fits ``mine`` differ from ``theirs``; whether their counts, flags and error types agree.

    Each is a pair of :func:`fits`.
    """
    (mine, mine_work), (theirs, theirs_work) = mine, theirs
    print(f"{name}: {_work(theirs_work)} there, {_work(mine_work)} here")
    if len(mine) != len(theirs):
        print(f"{name}: {len(mine)} fits here, {len(theirs)} there")
        return False
    identical = sum(_bits(a) == _bits(b) for a, b in zip(mine, theirs))
    flags = errors = 0
    diffs, moved = [], []
    for i, (a, b) in enumerate(zip(mine, theirs)):
        if isinstance(a, str) or isinstance(b, str):
            errors += a != b if isinstance(a, str) and isinstance(b, str) else 1
            continue
        flags += a[3:] != b[3:]
        d = (_relative(a[0], b[0]), _relative(a[1], b[1]))
        diffs.append(d)
        if max(d) > MOVED:
            moved.append((i, b[0], a[0], *d))
    shape, scale = (np.array(x) for x in zip(*diffs)) if diffs else (np.zeros(1), np.zeros(1))
    print(
        f"{name}: {len(mine)} fits, {identical} bit-identical; {flags} flag and {errors} error-type mismatches; "
        f"relative difference shape max {shape.max():.3g} p99 {np.percentile(shape, 99):.3g}, "
        f"scale max {scale.max():.3g} p99 {np.percentile(scale, 99):.3g}"
    )
    for i, was, now, ds, dc in moved:
        print(f"  fit {i}: shape {was!r} -> {now!r} (shape moved {ds:.3g}, scale {dc:.3g})")
    return not (flags or errors)


def dense_taus(y, points) -> np.ndarray:
    """``points`` taus from the feasibility edge to the top of the tau grid of the sorted sample ``y``, and 0.

    The edge and the top are the grid's (see ``gpd._tau_grids``): the edge
    -(1 - 1e-10)/y_max, the top 2*(mean - y_min)/y_min**2 clipped to
    [1e-8/mean, 1e28/mean]. A third of the points lie geometrically in
    their distance from the edge, from 1e-10 to half of it; a third sweep
    the negative taus geometrically from there to -1e-8/mean, and the rest
    the positive ones from 1e-8/mean to the top.
    """
    mean, y_min = y.mean(), y[0]
    s, edge = 1.0 / mean, -(1.0 - 1e-10) / y[-1]
    with np.errstate(divide="ignore", over="ignore"):
        top = float(np.clip(2.0 * (mean - y_min) / (y_min * y_min), 1e-8 * s, 1e28 * s))
    third = points // 3
    near_edge = edge * (1.0 - np.geomspace(1e-10, 0.5, third))
    negative = -np.geomspace(0.5 * abs(edge), 1e-8 * s, third)
    positive = np.geomspace(1e-8 * s, top, points - 2 * third)
    return np.concatenate([near_edge, negative, [0.0], positive])


def dense_nll(y, taus) -> np.ndarray:
    """The profile NLL n*(log(k/tau) + k + 1), k = mean(log1p(tau*y)), of the sample ``y`` at each of ``taus``."""
    out = np.empty(taus.size)
    step = max(1, (1 << 20) // y.size)  # taus per chunk, so that a chunk holds about 2**20 terms
    for i in range(0, taus.size, step):
        tau = taus[i : i + step]
        k = np.log1p(tau[:, None] * y).mean(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):  # tau = 0 is set below
            out[i : i + step] = y.size * (np.log(k / tau) + k + 1.0)
    out[taus == 0.0] = y.size * (math.log(y.mean()) + 1.0)
    return out


def dense_check(name, tails, points) -> bool:
    """Print each converged, non-boundary fit of ``tails``' samples that a point of :func:`dense_taus` beats.

    ``tails`` is a list of batches of samples, each fitted by one
    ``fit_samples`` call. Returns whether there is none.
    """
    from potrisk.gpd import FitResult, fit_samples

    checked, beaten, least = 0, [], math.inf  # least: the least (dense NLL - fit NLL)/|fit NLL| of all fits
    index = itertools.count()
    for samples in tails:
        samples = list(samples)
        for y, fit, i in zip(samples, fit_samples(samples), index):  # index last, so that no count is lost
            if not isinstance(fit, FitResult) or not fit.converged or fit.boundary_hit:
                continue
            checked += 1
            taus = dense_taus(y, points)
            f = -fit.log_likelihood
            margin = (dense_nll(y, taus) - f) / abs(f)
            j = int(np.argmin(margin))
            least = min(least, float(margin[j]))
            if margin[j] < -DENSE_SLACK:
                beaten.append((i, fit.params.shape, float(taus[j]), float(margin[j])))
    print(f"{name}: {checked} converged interior fits, {len(beaten)} beaten by one of {points} dense taus "
          f"by more than {DENSE_SLACK:g} relative; the least (dense NLL - fit NLL)/|fit NLL| is {least:.3g}")
    for i, shape, tau, margin in beaten:
        print(f"  fit {i}: shape {shape!r}, dense tau {tau!r} more likely by {-margin:.3g} relative")
    return not beaten


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--against", metavar="CHECKOUT", help="compare with the fits of this checkout's src")
    parser.add_argument("--dense", type=int, metavar="N", help="check the fits against the NLL at N dense taus")
    args = parser.parse_args(argv)
    if args.dense is not None and args.dense < 3:
        parser.error("--dense must be at least 3")
    sys.path.insert(0, str(ROOT / "src"))
    mine = all_fits(args.seed)
    for name, (records, work) in mine.items():
        print(f"{name} {len(records)} {digest(records)} {_work(work)}")
    my_gofs = all_gofs(args.seed)
    for name, records in my_gofs.items():
        print(f"{name} gof {len(records)} {gof_digest(records)}")
    ok = True
    if args.dense is not None:
        dense_inputs = {
            "bundled": candidate_samples(bundled_tails()),
            f"tail_scan@{args.seed}": candidate_samples(tail_scan_tails(args.seed)),
            "multi_decade": [multi_decade_samples()],
        }
        ok = all([dense_check(name, tails, args.dense) for name, tails in dense_inputs.items()])
    if args.against is None:
        return 0 if ok else 1
    # The other checkout's potrisk, driven by this script's functions.
    paths = [str(Path(args.against).resolve() / "src"), str(Path(__file__).resolve().parent)]
    code = (
        f"import json, sys; sys.path[:0] = {paths!r}; import fit_digest; "
        f"json.dump([fit_digest.all_fits({args.seed}), fit_digest.all_gofs({args.seed})], sys.stdout)"
    )
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    theirs, their_gofs = json.loads(run.stdout)
    print(f"against {args.against} (shape there -> here):")
    same = []
    for name in mine:
        records, work = theirs[name]
        same.append(compare(name, mine[name], ([r if isinstance(r, str) else tuple(r) for r in records], work)))
    for name in my_gofs:
        same.append(compare_gofs(name, my_gofs[name], their_gofs[name]))
    return 0 if ok and all(same) else 1


if __name__ == "__main__":
    sys.exit(main())
