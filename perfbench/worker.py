"""The workload process: runs one workload's tasks in a closed loop.

One caller on one thread: each task starts only after the previous one
returned. Tasks run while the next one is expected to end no later than
half a task after ``seconds`` have passed, and at least one task runs.
A short reference computation (reference.py) is timed every quarter
second while a task runs; a task's ``ref_s`` is the median of its samples.
With ``trace`` on, every task is traced instead of sampled; a task's
tracing overhead is its number of spans times the cost of one span,
measured once before the first task (spans.span_cost).

Usage (``potrisk`` must be importable, e.g. ``PYTHONPATH=src``):

    python3 perfbench/worker.py SPEC.json RESULT.json

SPEC.json holds ``commands`` (argument lists, ``{task}`` standing for the
task's output directory), ``work_dir``, ``seconds``, ``trace`` and
``src`` (the directory potrisk must be imported from). The worker writes
timings, peak memory and provenance to RESULT.json, and the spans of a
traced run to ``trace.json`` beside it.
"""

import contextlib
import importlib
import io
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy

import reference
import spans


def run_task(cli, commands, task_dir: Path, sample_interval: float) -> dict:
    """Run one task; return its wall and CPU seconds, its reference time and each command's outcome.

    The reference is sampled every ``sample_interval`` seconds during the
    task (never when 0), and the samples' own time is taken out of the
    task's times.
    """
    task_dir.mkdir(parents=True)
    argvs = [[a.replace("{task}", str(task_dir)) for a in argv] for argv in commands]
    codes, errors = [], []
    sink = io.StringIO()
    with reference.Sampler(sample_interval) as speed:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        for argv in argvs:
            try:
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    codes.append(cli.main(argv))
            except SystemExit as exc:
                codes.append(exc.code)
            except Exception:  # noqa: BLE001 - a raising task is counted, not fatal
                codes.append(None)
                errors.append(traceback.format_exc(limit=3))
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    if any(c != 0 for c in codes):
        errors.append(sink.getvalue()[-2000:])
    return {
        "wall_s": wall - speed.wall_s,
        "cpu_s": cpu - speed.cpu_s,
        "ref_s": speed.ref_s(),
        "ref_samples": len(speed.samples),
        "exit_codes": codes,
        "errors": errors,
    }


def main(spec_path, result_path) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    src = Path(spec["src"]).resolve()
    import potrisk
    import potrisk.cli as cli
    from potrisk import _kernels

    if src not in Path(potrisk.__file__).resolve().parents:
        print(f"potrisk imported from {potrisk.__file__}, not from {src}", file=sys.stderr)
        return 2
    modules = [importlib.import_module(m) for m in spans.MODULES]
    tracer = spans.Tracer()
    span_cost = spans.span_cost() if spec["trace"] else 0.0
    work = Path(spec["work_dir"])
    # Traced tasks are not sampled, so that the samples' time stays out of the spans.
    sample_interval = 0.0 if spec["trace"] else reference.SAMPLE_INTERVAL_S
    tasks = []
    start = time.perf_counter()
    while True:
        if spec["trace"]:
            tracer.task = len(tasks)
            tracer.install(modules)
        try:
            task = run_task(cli, spec["commands"], work / f"task_{len(tasks)}", sample_interval)
        finally:
            tracer.uninstall()
        if spec["trace"]:
            task_spans = [s for s in tracer.spans if s.task == tracer.task]
            task["layers"] = spans.layer_metrics(task_spans)
            task["layers"]["trace.spans"] = len(task_spans)
            task["layers"]["trace.overhead_s"] = len(task_spans) * span_cost
        tasks.append(task)
        typical = statistics.median(t["wall_s"] for t in tasks)
        if time.perf_counter() - start + typical / 2 >= spec["seconds"]:
            break

    result = {
        "tasks": tasks,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "backend": _kernels.BACKEND,
        "potrisk_version": potrisk.__version__,
        "numpy_version": numpy.__version__,
        "span_cost_s": span_cost,
    }
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    if spec["trace"]:
        (Path(result_path).parent / "trace.json").write_text(
            json.dumps(tracer.as_records()), encoding="utf-8"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
