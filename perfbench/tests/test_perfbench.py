"""Tests of the benchmark itself: inputs, output checks and spans.

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import datetime
import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import inputs  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

GOLDEN = ROOT / "tests" / "golden" / "analysis_report.json"


@pytest.mark.parametrize("write", [inputs.write_tail_scan, inputs.write_long_history])
def test_same_seed_same_bytes_other_seed_other_bytes(write, tmp_path):
    write(3, tmp_path / "a.csv")
    write(3, tmp_path / "b.csv")
    write(4, tmp_path / "c.csv")
    a = (tmp_path / "a.csv").read_bytes()
    assert a == (tmp_path / "b.csv").read_bytes()
    assert a != (tmp_path / "c.csv").read_bytes()


def test_long_history_scans_about_the_stated_candidate_count(tmp_path):
    prep = workloads.prepare_long_history(ROOT, 5, tmp_path)
    total = sum(workloads.candidate_count(t, prep.min_exceedances) for t in prep.tails.values())
    assert abs(total - workloads.HISTORY_CANDIDATES) <= 2


def _golden_task(tmp_path, text):
    task = tmp_path / "task_0"
    task.mkdir()
    (task / "report.json").write_text(text, encoding="utf-8")
    return task


def test_checker_accepts_the_golden_report(tmp_path):
    prep = workloads.prepare_paper_analyze(ROOT, 1, tmp_path)
    task = _golden_task(tmp_path, GOLDEN.read_text(encoding="utf-8"))
    assert workloads.check_paper_analyze(ROOT, prep, 1, task) == []


def _one_digit_changed(text):
    i = text.index('"var": ') + len('"var": ') + 2
    return text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:]


def test_one_changed_digit_fails_the_check(tmp_path):
    changed = _one_digit_changed(GOLDEN.read_text(encoding="utf-8"))
    assert changed != GOLDEN.read_text(encoding="utf-8")
    prep = workloads.prepare_paper_analyze(ROOT, 1, tmp_path)
    assert workloads.check_paper_analyze(ROOT, prep, 1, _golden_task(tmp_path, changed))


@pytest.mark.parametrize(
    "changed, exit_code, failed",
    [(False, 0, 0), (True, 0, 1), (False, 2, 1)],
    ids=["golden", "one-digit-changed", "nonzero-exit"],
)
def test_run_counts_failed_tasks(changed, exit_code, failed, tmp_path, monkeypatch, capsys):
    """A workload process whose one task writes the given report and exit code."""
    text = GOLDEN.read_text(encoding="utf-8")
    report = _one_digit_changed(text) if changed else text
    monkeypatch.setattr(run, "WORK", tmp_path / "work")
    setup = {"cpu_s": 0.1, "wall_s": 0.2, "ref_s": 2 * reference.IMPORT_NOMINAL_S}
    monkeypatch.setattr(run, "measure_setup", lambda samples: [setup] * samples)

    def fake_worker(argv, **kwargs):
        result_path = Path(argv[-1])
        _golden_task(result_path.parent, report)
        task = {"wall_s": 1.0, "cpu_s": 0.5, "ref_s": 2 * reference.NOMINAL_S,
                "exit_codes": [exit_code], "errors": []}
        result_path.write_text(json.dumps({
            "tasks": [task], "peak_rss_mb": 1.0, "backend": "numpy",
            "potrisk_version": "0", "numpy_version": np.__version__, "span_cost_s": 0.0,
        }), encoding="utf-8")
        return run.subprocess.CompletedProcess(argv, 0, "", "")

    monkeypatch.setattr(run.subprocess, "run", fake_worker)
    monkeypatch.setattr(run, "git_commit", lambda root: "unknown")
    assert run.main(["--workload", "paper_analyze", "--seconds", "1"]) == 0
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert line["correct"] is (failed == 0)
    assert (line["attempted"], line["failed"]) == (1, failed)
    # Times are scaled to the speed at which the references take their nominal time.
    metrics = {k: v["value"] for k, v in line["metrics"].items()}
    assert metrics["wall_s_p50_ref"] == pytest.approx(0.5)
    assert metrics["cpu_s_p50_ref"] == pytest.approx(0.25)
    assert metrics["setup_s"] == pytest.approx(0.05)


def test_result_line_metrics_are_those_of_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert [m["name"] for m in bench["per_layer"]] == list(run.PER_LAYER_METRICS)
    assert all(m["unit"] == run.layer_unit(m["name"]) for m in bench["per_layer"])


def test_curve_check_catches_a_wrong_row(tmp_path):
    tail = np.array([0.5, 0.1, 0.3, 0.2, 0.9, 0.3])
    xs = np.unique(tail)[:-1]
    path = tmp_path / "curve.csv"
    rows = ["u,mean_excess,count"] + [
        f"{float(u)!r},{float(np.mean(tail[tail > u] - u))!r},{np.sum(tail > u)}" for u in xs
    ]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    assert workloads.check_curve("t", path, tail) == ([], xs.size)
    rows[2] = rows[2].replace(rows[2].split(",")[1], "0.123")
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    assert workloads.check_curve("t", path, tail)[0]


def _traced_scan(tmp_path):
    import importlib

    import potrisk.cli as cli

    values = inputs.tail_scan_returns(2)[:300]
    csv_path = tmp_path / "returns.csv"
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write("date,return\n")
        for i, v in enumerate(values):
            fh.write(f"{inputs.START + datetime.timedelta(days=i)},{float(v)!r}\n")
    tracer = spans.Tracer()
    tracer.install([importlib.import_module(m) for m in spans.MODULES])
    try:
        code = cli.main(["scan", "--input", str(csv_path), "--tail", "positive",
                         "--alpha", "0.05", "--out-dir", str(tmp_path)])
    finally:
        tracer.uninstall()
    assert code == 0
    return tracer


def test_child_span_time_never_exceeds_its_parent(tmp_path):
    tracer = _traced_scan(tmp_path)
    by_id = {s.id: s for s in tracer.spans}
    names = {s.name for s in tracer.spans}
    assert {"cli.main", "series.read_returns_csv", "risk.scan_thresholds",
            "gpd.fit_mle", "gof.test_gpd_fit", "report.scan_dict"} <= names
    for s in tracer.spans:
        if s.name == "gpd.fit_mle":
            assert by_id[s.parent].name == "risk.scan_thresholds"
        if s.parent is not None:
            parent = by_id[s.parent]
            assert parent.start <= s.start <= s.end <= parent.end
    for span_id, self_time in spans.self_times(tracer.spans).items():
        assert 0.0 <= self_time <= by_id[span_id].duration


def test_bindings_are_restored_and_counts_match_the_scan(tmp_path):
    import potrisk.gpd
    import potrisk.risk

    original = potrisk.risk.fit_mle
    tracer = _traced_scan(tmp_path)
    assert potrisk.risk.fit_mle is original is potrisk.gpd.fit_mle
    layers = spans.layer_metrics(tracer.spans)
    diag = json.loads((tmp_path / "scan_positive.json").read_text(encoding="utf-8"))["diagnostics"]
    # A scan enters every layer of the result line, and none of the
    # analyze, mean-excess and figure layers, which are left out.
    assert set(run.PER_LAYER_METRICS) - {"report.bytes_written", "trace.overhead_s"} <= set(layers)
    assert not {"report.analyze_s", "excess.curve_s", "figures.render_s"} & set(layers)
    assert all(value > 0 for value in layers.values())
    assert layers["risk.scan_calls"] == 1
    assert layers["risk.candidates"] == layers["gpd.fit_calls"] == diag["candidates_total"]
    assert layers["risk.surviving"] == diag["surviving"]
    assert layers["series.read_rows"] == 300


def test_span_cost_is_positive_and_small():
    assert 0.0 < spans.span_cost(calls=2_000, repeats=3) < 1e-3


def test_sampler_times_the_reference_while_a_block_runs():
    with reference.Sampler(0.01) as speed:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    assert len(speed.samples) >= 3
    assert 0.0 < speed.wall_s < 0.2
    assert speed.ref_s() == statistics.median(speed.samples)
    assert reference.Sampler(0.0).ref_s() > 0.0


def test_run_fails_without_the_program(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "tail_scan", "--seconds", "1"]) != 0
