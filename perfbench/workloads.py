"""The three workloads: their inputs, their commands and their output checks.

A *task* is one pass of a workload's command sequence, each command a
``potrisk`` argument list run through ``potrisk.cli.main``. ``{task}`` in
an argument stands for the task's own output directory.

Checks use numpy and the standard library only, never ``potrisk``, and
return a list of problems; an empty list means the task's outputs are
correct. Numbers are compared with these stated tolerances:

- ``REL_TOL_ESTIMATE``: selected and alpha-filtered estimates (shape,
  scale, VaR, ES) against the values recorded in ``expected.json`` at the
  default seed. The threshold ``u`` is an observed value and must match
  to the 12 digits the report keeps.
- ``REL_TOL_CURVE``: mean-excess rows against the direct
  ``mean(x[x > u] - u)``. The exported values carry 15 digits; the bound
  leaves room for a summation order that differs from the direct mean.
- ``REL_TOL_PRINTED``: the same number printed to 12 digits in one file
  and 15 in another.
"""

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import inputs

DEFAULT_SEED = 1
ALPHA = 0.05
SCAN_MIN_EXCEEDANCES = 10
CURVE_ROWS_CHECKED = 200
# long_history scans both tails with one min_exceedances. It is set to the
# smaller tail's size minus a margin, and the margin is chosen so that the
# two scans together have about HISTORY_CANDIDATES candidates whatever the
# seed: the tail sizes differ by 7 to 348 over seeds 1 to 15, and with a fixed
# margin the task's time would follow that difference.
HISTORY_CANDIDATES = 400
HISTORY_MIN_MARGIN = 10

REL_TOL_ESTIMATE = 1e-6
REL_TOL_CURVE = 1e-9
REL_TOL_PRINTED = 1e-10

EXPECTED_PATH = Path(__file__).parent / "expected.json"
DIAGNOSTIC_DROPS = ("fit_errors", "not_converged", "boundary_hits", "wrong_sign", "surviving")


@dataclass
class Prepared:
    """Inputs written for one run, plus what the checks derive from them."""

    commands: list[list[str]]
    input_files: list[Path]
    seed_applies: bool
    tails: dict[str, np.ndarray] = field(default_factory=dict)
    min_exceedances: int = 0


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def _read_csv(path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def candidate_count(tail: np.ndarray, min_exceedances: int) -> int:
    """Distinct tail values with at least ``min_exceedances`` values above."""
    distinct = np.unique(tail)
    above = tail.size - np.searchsorted(np.sort(tail), distinct, side="right")
    return int(np.count_nonzero(above >= min_exceedances))


def check_diagnostics(label, diag, tail, min_exceedances) -> list[str]:
    problems = []
    if sum(diag[k] for k in DIAGNOSTIC_DROPS) != diag["candidates_total"]:
        problems.append(f"{label}: diagnostics do not add up to candidates_total: {diag}")
    want = candidate_count(tail, min_exceedances)
    if diag["candidates_total"] != want:
        problems.append(f"{label}: candidates_total {diag['candidates_total']}, expected {want}")
    return problems


def has_max_var(var: float, vars_) -> bool:
    """True when ``var`` is the largest of ``vars_``, up to print rounding."""
    return len(vars_) > 0 and var >= max(vars_) * (1.0 - REL_TOL_PRINTED)


def check_recorded(workload, tail_name, got) -> list[str]:
    """Compare a tail's diagnostics and estimates with those recorded at the default seed."""
    want = json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))[workload][tail_name]
    label = f"{tail_name} tail"
    problems = []
    if got["diagnostics"] != want["diagnostics"]:
        problems.append(f"{label}: diagnostics {got['diagnostics']} != recorded {want['diagnostics']}")
    for key in ("selected", "alpha_filtered"):
        if key not in want:
            continue
        g, w = got.get(key), want[key]
        if g is None or g["n_u"] != w["n_u"] or not _close(g["u"], w["u"], 1e-12):
            problems.append(f"{label}: {key} threshold {g and g['u']} != recorded {w['u']}")
            continue
        for name in ("shape", "scale", "var", "es"):
            if not _close(g[name], w[name], REL_TOL_ESTIMATE):
                problems.append(f"{label}: {key} {name} {g[name]} != recorded {w[name]}")
    return problems


# -- paper_analyze ------------------------------------------------------------

def prepare_paper_analyze(root: Path, _seed: int, _work: Path) -> Prepared:
    data = root / "src" / "potrisk" / "data"
    csv_path, config = data / "synthetic_weekends.csv", data / "synthetic_config.json"
    return Prepared(
        commands=[["analyze", "--input", str(csv_path), "--config", str(config),
                   "--out-dir", "{task}"]],
        input_files=[csv_path, config],
        seed_applies=False,
    )


def check_paper_analyze(root: Path, _prep: Prepared, _seed: int, task: Path) -> list[str]:
    golden = root / "tests" / "golden" / "analysis_report.json"
    got = task / "report.json"
    if not got.is_file():
        return ["report.json missing"]
    if got.read_bytes() != golden.read_bytes():
        return ["report.json differs from tests/golden/analysis_report.json"]
    return []


def report_candidates(task: Path) -> int:
    """Σ candidates_total over every period and tail of the task's report.json."""
    report = json.loads((task / "report.json").read_text(encoding="utf-8"))
    return sum(
        tail["diagnostics"]["candidates_total"]
        for period in report["periods"]
        for tail in period["tails"].values()
    )


# -- tail_scan ----------------------------------------------------------------

def prepare_tail_scan(_root: Path, seed: int, work: Path) -> Prepared:
    path = work / "tail_scan_returns.csv"
    values = inputs.write_tail_scan(seed, path)
    positive, negative = inputs.tails(values)
    return Prepared(
        commands=[
            ["scan", "--input", str(path), "--tail", "positive", "--alpha", str(ALPHA),
             "--out-dir", "{task}"],
            ["scan", "--input", str(path), "--tail", "negative", "--out-dir", "{task}"],
        ],
        input_files=[path],
        seed_applies=True,
        tails={"positive": positive, "negative": negative},
        min_exceedances=SCAN_MIN_EXCEEDANCES,
    )


def check_tail_scan(_root: Path, prep: Prepared, seed: int, task: Path) -> list[str]:
    problems = []
    for tail_name, tail in prep.tails.items():
        label = f"{tail_name} scan"
        path = task / f"scan_{tail_name}.json"
        if not path.is_file():
            problems.append(f"{label}: {path.name} missing")
            continue
        doc = json.loads(path.read_text(encoding="utf-8"))
        problems += check_diagnostics(label, doc["diagnostics"], tail, prep.min_exceedances)
        estimates = doc["estimates"]
        if len(estimates) != doc["diagnostics"]["surviving"]:
            problems.append(f"{label}: {len(estimates)} estimates, {doc['diagnostics']['surviving']} surviving")
        vars_ = [e["var"] for e in estimates]
        selected = estimates[doc["selected_index"]] if 0 <= doc["selected_index"] < len(estimates) else None
        if selected is None or not has_max_var(selected["var"], vars_):
            problems.append(f"{label}: selected index {doc['selected_index']} is not the maximal VaR")
        accepted = [e for e in estimates if (e["gof"] or {}).get("verdicts", {}).get(f"{ALPHA:g}") == "accept"]
        filtered = doc["alpha_filtered"]
        if tail_name == "positive":
            if filtered not in accepted or not has_max_var(filtered["var"], [e["var"] for e in accepted]):
                problems.append(f"{label}: alpha-filtered estimate is not the maximal accepted VaR")
        elif filtered is not None:
            problems.append(f"{label}: unexpected alpha-filtered estimate")
        if seed == DEFAULT_SEED and not problems:
            got = {"diagnostics": doc["diagnostics"], "selected": selected, "alpha_filtered": filtered}
            problems += check_recorded("tail_scan", tail_name, got)
    return problems


def candidates_tail_scan(task: Path) -> int:
    return sum(
        json.loads((task / f"scan_{t}.json").read_text(encoding="utf-8"))["diagnostics"]["candidates_total"]
        for t in ("positive", "negative")
    )


# -- long_history -------------------------------------------------------------

def prepare_long_history(_root: Path, seed: int, work: Path) -> Prepared:
    # No --alpha: with fits on about 14k points the goodness-of-fit test
    # rejects every candidate at 0.05 for some seeds (15 is one), and the
    # task would then fail by statistics rather than by a defect.
    path = work / "long_history.csv"
    positive, negative = inputs.tails(inputs.write_long_history(seed, path))
    gap = abs(positive.size - negative.size)
    margin = max(HISTORY_MIN_MARGIN, (HISTORY_CANDIDATES - gap) // 2)
    min_exc = min(positive.size, negative.size) - margin
    return Prepared(
        commands=[
            ["analyze", "--input", str(path), "--min-exceedances", str(min_exc),
             "--out-dir", "{task}"],
            ["plot", "--kind", "mean-excess", "--input", "{task}/mean_excess_p1_positive.csv",
             "--out-dir", "{task}"],
        ],
        input_files=[path],
        seed_applies=True,
        tails={"positive": positive, "negative": negative},
        min_exceedances=min_exc,
    )


def check_curve(label, path: Path, tail: np.ndarray) -> tuple[list[str], int]:
    """Check a mean-excess export against the direct formula; return its row count."""
    header, rows = _read_csv(path)
    if header != ["u", "mean_excess", "count"]:
        return [f"{label}: bad curve header {header}"], 0
    xs = np.unique(tail)
    if len(rows) != xs.size - 1:
        return [f"{label}: {len(rows)} curve rows, expected {xs.size - 1}"], len(rows)
    problems = []
    for i in np.unique(np.linspace(0, len(rows) - 1, CURVE_ROWS_CHECKED).astype(int)):
        u_text, mean_text, count_text = rows[i]
        u = xs[i]
        if not _close(float(u_text), u, 1e-14):
            problems.append(f"{label}: row {i} threshold {u_text} is not the observed {u!r}")
            continue
        exceed = tail[tail > u] - u
        if int(count_text) != exceed.size or not _close(float(mean_text), exceed.mean(), REL_TOL_CURVE):
            problems.append(f"{label}: row {i} ({mean_text}, {count_text}) != direct "
                            f"({exceed.mean()!r}, {exceed.size})")
    return problems, len(rows)


def check_long_history(_root: Path, prep: Prepared, seed: int, task: Path) -> list[str]:
    path = task / "report.json"
    if not path.is_file():
        return ["report.json missing"]
    report = json.loads(path.read_text(encoding="utf-8"))
    problems = []
    tails = report["periods"][0]["tails"]
    curve_rows = 0
    for tail_name, tail in prep.tails.items():
        label = f"{tail_name} tail"
        got = tails[tail_name]
        if got["n"] != tail.size:
            problems.append(f"{label}: n={got['n']}, input has {tail.size}")
        problems += check_diagnostics(label, got["diagnostics"], tail, prep.min_exceedances)
        _, rows = _read_csv(task / f"var_scan_p1_{tail_name}.csv")
        scan = {float(r[0]): float(r[4]) for r in rows}
        if len(rows) != got["diagnostics"]["surviving"]:
            problems.append(f"{label}: {len(rows)} scan rows, {got['diagnostics']['surviving']} surviving")
        sel = got["selected"]
        if not has_max_var(sel["var"], list(scan.values())) or not any(
            _close(sel["u"], u, REL_TOL_PRINTED) for u in scan
        ):
            problems.append(f"{label}: selected ({sel['u']}, {sel['var']}) is not the maximal VaR")
        if got["alpha_filtered"] is not None:
            problems.append(f"{label}: unexpected alpha-filtered estimate")
        curve_problems, n_rows = check_curve(label, task / f"mean_excess_p1_{tail_name}.csv", tail)
        problems += curve_problems
        if tail_name == "positive":
            curve_rows = n_rows
        if seed == DEFAULT_SEED and not problems:
            problems += check_recorded("long_history", tail_name, got)
    svg = task / "mean_excess.svg"
    markers = svg.read_text(encoding="utf-8").count('<circle class="marker"') if svg.is_file() else -1
    if markers != curve_rows:
        problems.append(f"mean_excess.svg has {markers} markers for {curve_rows} curve rows")
    return problems


@dataclass(frozen=True)
class Workload:
    name: str
    prepare: object
    check: object
    candidates: object


WORKLOADS = {
    w.name: w
    for w in (
        Workload("paper_analyze", prepare_paper_analyze, check_paper_analyze, report_candidates),
        Workload("tail_scan", prepare_tail_scan, check_tail_scan, candidates_tail_scan),
        Workload("long_history", prepare_long_history, check_long_history, report_candidates),
    )
}
