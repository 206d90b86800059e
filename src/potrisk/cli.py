"""Command-line interface.

Subcommands: returns, analyze, scan, plot, simulate, gof-table, trend.
Exit codes: 0 success, 1 internal error, 2 input/validation error.
"""

import argparse
import sys
from pathlib import Path

from . import figures, report
from .errors import NonConvergence, NoSurvivingCandidates, NotApplicable, ValidationError
from .gof import table_rows
from .gpd import DEFAULT_MIN_EXCEEDANCES, GpdParams, gpd_sample
from .risk import HEAVY_TAIL, SHORT_TAIL, require_alpha_filter, scan_thresholds, scan_with_alpha_filter
from .series import (
    box_plot,
    compute_returns,
    python_values,
    read_earnings_csv,
    read_returns_csv,
    split_by_sign,
    write_returns_csv,
    write_rows,
)


def _add_common(parser, *, fmt=False):
    parser.add_argument("--out-dir", type=Path, default=Path("."), help="output directory")
    if fmt:
        parser.add_argument("--format", choices=("json", "csv"), default="json")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="potrisk",
        description="Peaks-over-threshold tail risk analysis of earnings series",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_returns = sub.add_parser("returns", help="compute date,return CSV from a date,revenue CSV")
    p_returns.add_argument("--input", type=Path, required=True)
    _add_common(p_returns)

    p_analyze = sub.add_parser("analyze", help="full pipeline: report.json plus CSV exports")
    p_analyze.add_argument("--input", type=Path, required=True)
    p_analyze.add_argument("--config", type=Path, help="JSON config (flags override it)")
    p_analyze.add_argument("--periods", action="append", default=None,
                           metavar="START:END", help="half-open date range, repeatable")
    p_analyze.add_argument("--p", type=float, default=None, help="tail probability level")
    p_analyze.add_argument("--alpha", type=float, default=None,
                           help="goodness-of-fit acceptance level for the filtered selection")
    p_analyze.add_argument("--min-exceedances", type=int, default=None)
    _add_common(p_analyze)

    p_scan = sub.add_parser("scan", help="threshold scan over one tail of a returns CSV")
    p_scan.add_argument("--input", type=Path, required=True, help="date,return CSV")
    p_scan.add_argument("--tail", choices=("positive", "negative"), required=True)
    p_scan.add_argument("--p", type=float, default=0.01)
    p_scan.add_argument("--alpha", type=float, default=None,
                        help="also report the fit-accepted selection (json output only)")
    p_scan.add_argument("--min-exceedances", type=int, default=DEFAULT_MIN_EXCEEDANCES)
    _add_common(p_scan, fmt=True)

    p_plot = sub.add_parser("plot", help="render a figure from exported data")
    p_plot.add_argument("--kind", choices=("mean-excess", "var-scan", "trend", "box"), required=True)
    p_plot.add_argument("--input", type=Path, required=True)
    _add_common(p_plot)

    p_sim = sub.add_parser("simulate", help="write seeded GPD samples to CSV")
    p_sim.add_argument("--shape", type=float, required=True)
    p_sim.add_argument("--scale", type=float, required=True)
    p_sim.add_argument("--count", type=int, required=True)
    p_sim.add_argument("--seed", type=int, default=0, help="random seed")
    _add_common(p_sim)

    p_table = sub.add_parser("gof-table", help="export the critical-value table to CSV")
    _add_common(p_table)

    p_trend = sub.add_parser("trend", help="yearly average returns and their linear trend")
    p_trend.add_argument("--input", type=Path, required=True, help="date,return CSV")
    _add_common(p_trend, fmt=True)

    return parser


def _cmd_returns(args) -> None:
    earnings = read_earnings_csv(args.input)
    returns = compute_returns(earnings)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    out = args.out_dir / "returns.csv"
    write_returns_csv(returns, out)
    print(f"wrote {out}")


def _cmd_analyze(args) -> None:
    if args.config is not None:
        config = report.AnalysisConfig.from_json(
            args.config, input_path=args.input, out_dir=args.out_dir
        )
    else:
        config = report.AnalysisConfig(input_path=args.input, out_dir=args.out_dir)
    if args.periods is not None:
        config.periods = [report.parse_period(t) for t in args.periods]
    if args.p is not None:
        config.p = args.p
    if args.alpha is not None:
        config.alpha_filter = args.alpha
    if args.min_exceedances is not None:
        config.min_exceedances = args.min_exceedances
    report.analyze(config)
    print(f"wrote {Path(config.out_dir) / 'report.json'}")


def _cmd_scan(args) -> None:
    report.require_min_exceedances(args.min_exceedances)
    regime = HEAVY_TAIL if args.tail == "positive" else SHORT_TAIL
    if args.alpha is not None:
        if args.format == "csv":
            raise ValidationError("--alpha applies to json output only; drop it or use --format json")
        require_alpha_filter(args.alpha, regime)
    split = split_by_sign(read_returns_csv(args.input))
    tail = split.positive.values if args.tail == "positive" else split.negative.values
    scan = scan_thresholds(tail, p=args.p, regime=regime, min_exceedances=args.min_exceedances)
    filtered = None
    if args.alpha is not None:
        filtered = scan_with_alpha_filter(scan, args.alpha)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    if args.format == "csv":
        out = args.out_dir / f"scan_{args.tail}.csv"
        report.write_scan_csv(scan, out)
    else:
        out = args.out_dir / f"scan_{args.tail}.json"
        report.write_scan_json(scan, filtered, out)
    print(f"wrote {out}")


def _cmd_plot(args) -> None:
    args.out_dir.mkdir(parents=True, exist_ok=True)
    if args.kind == "mean-excess":
        us, means, _counts = report.read_curve_csv(args.input)
        out = args.out_dir / "mean_excess.svg"
        figures.scatter_figure(us, means, out, "Empirical mean excess", "threshold u", "mean excess")
    elif args.kind == "var-scan":
        us, vars_ = report.read_scan_csv(args.input)
        out = args.out_dir / "var_scan.svg"
        figures.scatter_figure(us, vars_, out, "Value-at-risk by candidate threshold", "threshold u", "VaR")
    elif args.kind == "trend":
        returns = read_returns_csv(args.input)
        slope, intercept, yearly = report.trend_coefficients(returns)
        years = [y for y, _ in yearly]
        means = [m for _, m in yearly]
        out = args.out_dir / "trend.svg"
        figures.trend_figure(years, means, slope, intercept, out)
    else:
        returns = read_returns_csv(args.input)
        summary = box_plot(returns)
        out = args.out_dir / "box.svg"
        figures.box_figure(summary, out)
    print(f"wrote {out}")


def _cmd_simulate(args) -> None:
    params = GpdParams(shape=args.shape, scale=args.scale)
    samples = gpd_sample(params, args.count, args.seed)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    out = args.out_dir / "samples.csv"
    write_rows(out, "value\n", "{!r}\n", ((v,) for v in python_values(samples)))
    print(f"wrote {out}")


def _cmd_gof_table(args) -> None:
    args.out_dir.mkdir(parents=True, exist_ok=True)
    out = args.out_dir / "gof_table.csv"
    write_rows(out, "xi,alpha,w2,a2\n", "{:g},{:g},{:g},{:g}\n", table_rows())
    print(f"wrote {out}")


def _cmd_trend(args) -> None:
    returns = read_returns_csv(args.input)
    slope, intercept, yearly = report.trend_coefficients(returns)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    if args.format == "csv":
        out = args.out_dir / "trend.csv"
        write_rows(out, "year,mean_return\n", "{},{:.15g}\n", yearly)
    else:
        out = args.out_dir / "trend.json"
        report.write_json(report.trend_dict(slope, intercept, yearly), out)
    print(f"wrote {out}")


_HANDLERS = {
    "returns": _cmd_returns,
    "analyze": _cmd_analyze,
    "scan": _cmd_scan,
    "plot": _cmd_plot,
    "simulate": _cmd_simulate,
    "gof-table": _cmd_gof_table,
    "trend": _cmd_trend,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _HANDLERS[args.command](args)
    except (ValidationError, NoSurvivingCandidates, NotApplicable) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NonConvergence as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
