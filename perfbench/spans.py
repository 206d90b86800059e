"""Spans around potrisk's public calls, recorded from outside the package.

The package's modules import functions by name (``from .gpd import
fit_mle``), so a call goes through the *calling* module's binding. The
tracer therefore replaces every binding of a traced function, in every
module listed in ``MODULES``, with one wrapper per function. Spans are
kept in memory; the caller writes them out when the run ends.
"""

import statistics
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field

MODULES = (
    "potrisk.cli",
    "potrisk.report",
    "potrisk.risk",
    "potrisk.gpd",
    "potrisk.gof",
    "potrisk.excess",
    "potrisk.series",
    "potrisk.figures",
)


def _size(_args, result):
    return {} if result is None else {"rows": len(result)}


def _fit_points(args, _result):
    return {"points": args[0].n_u}


def _scan_counts(_args, result):
    if result is None:
        return {}
    diag = result.diagnostics
    return {"candidates": diag.candidates_total, "surviving": diag.surviving}


# (defining module, function name) -> function that turns the call's
# arguments and result (None when the call raised) into span counts, or
# None for no counts.
TRACED = {
    ("potrisk.cli", "main"): None,
    ("potrisk.series", "read_earnings_csv"): _size,
    ("potrisk.series", "read_returns_csv"): _size,
    ("potrisk.series", "write_returns_csv"): None,
    ("potrisk.series", "compute_returns"): None,
    ("potrisk.series", "split_by_period"): None,
    ("potrisk.series", "split_by_sign"): None,
    ("potrisk.series", "box_plot"): None,
    ("potrisk.excess", "mean_excess_curve"): _size,
    ("potrisk.excess", "candidate_thresholds"): None,
    ("potrisk.gpd", "fit_mle"): _fit_points,
    ("potrisk.gof", "test_gpd_fit"): None,
    ("potrisk.risk", "scan_thresholds"): _scan_counts,
    ("potrisk.risk", "scan_with_alpha_filter"): None,
    ("potrisk.report", "analyze"): None,
    ("potrisk.report", "scan_dict"): None,
    ("potrisk.report", "write_curve_csv"): None,
    ("potrisk.report", "write_scan_csv"): None,
    ("potrisk.report", "read_curve_csv"): None,
    ("potrisk.report", "read_scan_csv"): None,
    ("potrisk.figures", "scatter_figure"): None,
    ("potrisk.figures", "trend_figure"): None,
    ("potrisk.figures", "box_figure"): None,
}


@dataclass
class Span:
    id: int
    parent: int | None
    task: int
    name: str
    start: float
    end: float = 0.0
    error: bool = False
    counts: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    """Records nested spans; ``task`` tags the spans of one benchmark task."""

    spans: list[Span] = field(default_factory=list)
    task: int = 0
    _stack: list[int] = field(default_factory=list)
    _saved: list[tuple[object, str, object]] = field(default_factory=list)

    def wrap(self, name, fn, counter):
        def traced(*args, **kwargs):
            span = Span(
                id=len(self.spans),
                parent=self._stack[-1] if self._stack else None,
                task=self.task,
                name=name,
                start=time.perf_counter(),
            )
            self.spans.append(span)
            self._stack.append(span.id)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if counter is not None:
                    span.counts = counter(args, result)

        traced.__wrapped__ = fn
        return traced

    def install(self, modules) -> None:
        """Replace every binding of a traced function in ``modules``."""
        wrappers = {}
        for module in modules:
            for attr, value in list(vars(module).items()):
                key = (getattr(value, "__module__", None), getattr(value, "__name__", None))
                if key not in TRACED:
                    continue
                if key not in wrappers:
                    name = f"{key[0].removeprefix('potrisk.')}.{key[1]}"
                    wrappers[key] = self.wrap(name, value, TRACED[key])
                self._saved.append((module, attr, value))
                setattr(module, attr, wrappers[key])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()

    def as_records(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def self_times(spans) -> dict[int, float]:
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread, so a span's children run one after another
    inside it and never overlap.
    """
    child_time = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration
    return {s.id: s.duration - child_time.get(s.id, 0.0) for s in spans}


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer totals over ``spans``, normally the spans of one task.

    A layer that no span entered is left out rather than reported as 0.
    """
    selfs = self_times(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def total(*names):
        return sum(s.duration for name in names for s in by_name[name])

    def count(key, *names):
        return sum((s.counts or {}).get(key, 0) for name in names for s in by_name[name])

    def self_total(name):
        return sum(selfs[s.id] for s in by_name[name])

    reads = ("series.read_earnings_csv", "series.read_returns_csv")
    transforms = ("series.compute_returns", "series.split_by_period", "series.split_by_sign", "series.box_plot")
    writes = ("series.write_returns_csv", "report.write_curve_csv", "report.write_scan_csv", "report.scan_dict")
    renders = ("figures.scatter_figure", "figures.trend_figure", "figures.box_figure")
    n_fits = len(by_name["gpd.fit_mle"])
    candidates = count("candidates", "risk.scan_thresholds")
    surviving = count("surviving", "risk.scan_thresholds")
    layers = [
        (reads, {"series.read_s": total(*reads), "series.read_rows": count("rows", *reads)}),
        (transforms, {"series.transform_s": total(*transforms)}),
        (("excess.mean_excess_curve",), {
            "excess.curve_s": total("excess.mean_excess_curve"),
            "excess.curve_points": count("rows", "excess.mean_excess_curve"),
        }),
        (("gpd.fit_mle",), {
            "gpd.fit_calls": n_fits,
            "gpd.fit_s": total("gpd.fit_mle"),
            "gpd.fit_us_per_call": 1e6 * total("gpd.fit_mle") / max(n_fits, 1),
            "gpd.fit_points": count("points", "gpd.fit_mle"),
        }),
        (("gof.test_gpd_fit",), {
            "gof.test_calls": len(by_name["gof.test_gpd_fit"]),
            "gof.test_s": total("gof.test_gpd_fit"),
        }),
        (("risk.scan_thresholds",), {
            "risk.scan_calls": len(by_name["risk.scan_thresholds"]),
            "risk.scan_s": total("risk.scan_thresholds"),
            "risk.scan_self_s": self_total("risk.scan_thresholds"),
            "risk.candidates": candidates,
            "risk.surviving": surviving,
            "risk.useful_ratio": surviving / max(candidates, 1),
        }),
        (("risk.scan_with_alpha_filter",), {"risk.filter_s": total("risk.scan_with_alpha_filter")}),
        (("report.analyze",), {
            "report.analyze_s": total("report.analyze"),
            "report.analyze_self_s": self_total("report.analyze"),
        }),
        (writes, {"report.write_s": total(*writes)}),
        (("report.read_curve_csv", "report.read_scan_csv"), {
            "report.read_s": total("report.read_curve_csv", "report.read_scan_csv"),
        }),
        (renders, {"figures.render_s": total(*renders)}),
        (("cli.main",), {"cli.self_s": self_total("cli.main")}),
    ]
    metrics = {}
    for names, values in layers:
        if any(by_name[name] for name in names):
            metrics.update(values)
    return metrics


def span_cost(calls: int = 10_000, repeats: int = 5) -> float:
    """Seconds that recording one span adds to the call it wraps.

    A no-op is called ``calls`` times bare and ``calls`` times through a
    tracer's wrapper; the cost is the median over ``repeats`` of the
    difference per call. A task's tracing overhead is this cost times its
    number of spans.
    """

    def noop(*_args):
        return None

    costs = []
    for _ in range(repeats):
        wrapped = Tracer().wrap("noop", noop, _size)
        start = time.perf_counter()
        for _ in range(calls):
            noop(None)
        bare = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(calls):
            wrapped(None)
        costs.append((time.perf_counter() - start - bare) / calls)
    return statistics.median(costs)
