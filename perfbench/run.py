"""Pipeline benchmark for potrisk.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads (see perfbench/README.md for why each was chosen and its sizes):
``paper_analyze``, ``tail_scan`` and ``long_history``; ``all`` runs the
three in turn.

A run writes the workload's inputs from ``--seed`` under
``.perfbench_work/NAME/``, times the import of ``potrisk`` in many fresh
processes (``setup_s``), then starts one workload process that runs tasks
in a closed loop for the rest of ``--seconds`` (see worker.py). Every
task's outputs are checked afterwards. The run prints each metric by name and unit, a
provenance line, and as its last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

potrisk is imported from ``src/`` of the checkout and nowhere else; the
run fails without a result when that is missing.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_SAMPLES = 30  # fresh processes that each time one import
RUN_LIMIT_S = 170.0  # a run must end within 180 s
CHECK_RESERVE_S = 20.0  # time kept back for the output checks
MIN_TASK_SECONDS = 5.0  # the workload process's share of --seconds, at least
# Prints the importing thread's CPU seconds and the wall seconds of
# ``import potrisk, potrisk.cli``, then the CPU seconds of the reference
# imports that follow in the same process (see reference.py).
SETUP_PROBE = """\
import sys, time
cpu, wall = time.thread_time(), time.perf_counter()
import potrisk, potrisk.cli
cpu, wall = time.thread_time() - cpu, time.perf_counter() - wall
loaded = [m for m in {modules!r} if m.split(".")[0] in sys.modules]
if loaded:
    sys.exit(f"reference modules already loaded by the import: {{loaded}}")
ref = time.thread_time()
for m in {modules!r}:
    __import__(m)
print(repr(cpu), repr(wall), repr(time.thread_time() - ref))
""".format(modules=reference.IMPORT_MODULES)

# The metrics of the result line, as listed in BENCHMARK.json. The ``_ref``
# times are scaled to the machine speed at which reference.run() takes
# reference.NOMINAL_S, and ``setup_s`` to the speed at which the reference
# imports take reference.IMPORT_NOMINAL_S; the raw times are printed beside
# them.
END_TO_END_UNITS = {
    "wall_s_p50_ref": "s",
    "cpu_s_p50_ref": "s",
    "thresholds_per_s_ref": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
# The per-layer metrics every workload enters (see README.md); the others
# are printed and kept in result.json.
PER_LAYER_METRICS = (
    "series.read_s", "series.read_rows",
    "gpd.fit_calls", "gpd.fit_s", "gpd.fit_us_per_call", "gpd.fit_points",
    "gof.test_calls", "gof.test_s",
    "risk.scan_calls", "risk.scan_s", "risk.scan_self_s",
    "risk.candidates", "risk.surviving", "risk.useful_ratio",
    "report.write_s", "report.bytes_written",
    "cli.self_s", "trace.overhead_s",
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"], required=True,
                        help="one workload, or all three in turn")
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def measure_setup(samples: int) -> list[dict]:
    """Time the import of potrisk and potrisk.cli, each sample in a fresh process.

    One unrecorded import first writes the bytecode cache, as a user's
    first run would. Each sample holds the importing thread's CPU seconds
    (``cpu_s``), the wall seconds (``wall_s``) and the reference imports'
    CPU seconds in the same process (``ref_s``).
    """
    times = []
    for i in range(samples + 1):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE], env=child_env(), cwd=ROOT,
            capture_output=True, text=True, timeout=60,
        )
        if out.returncode != 0:
            raise RuntimeError(f"import probe exited with {out.returncode}: {out.stderr[-2000:]}")
        if i > 0:
            cpu, wall, ref = map(float, out.stdout.split())
            times.append({"cpu_s": cpu, "wall_s": wall, "ref_s": ref})
    return times


def git_commit(root: Path) -> str:
    """The checkout's commit; 'unknown' outside a git repository or without git."""
    if not (root / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def check_tasks(workload, prep, seed, work: Path, tasks) -> list[int]:
    """Check every task's outputs; return the indices of the failed tasks."""
    failures = []
    for i, task in enumerate(tasks):
        task_dir = work / f"task_{i}"
        problems = []
        if any(c != 0 for c in task["exit_codes"]):
            problems = [f"exit codes {task['exit_codes']}", *task["errors"]]
        else:
            try:
                problems = workload.check(ROOT, prep, seed, task_dir)
            except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                problems = [f"output check raised {exc!r}"]
        task["problems"] = problems
        task["bytes_written"] = dir_bytes(task_dir)
        if problems:
            failures.append(i)
            print(f"task {i} failed: " + "; ".join(problems)[:2000], file=sys.stderr)
    return failures


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload != "all":
        return run_workload(args)
    return max(run_workload(argparse.Namespace(**{**vars(args), "workload": name}))
               for name in workloads.WORKLOADS)


def run_workload(args) -> int:
    started = time.perf_counter()
    if not (SRC / "potrisk" / "__init__.py").is_file():
        return fail(f"no potrisk package under {SRC}; run from a source checkout")
    workload = workloads.WORKLOADS[args.workload]
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    prep = workload.prepare(ROOT, args.seed, work)
    measuring = time.perf_counter()
    try:
        setup = measure_setup(SETUP_SAMPLES)
    except (RuntimeError, subprocess.SubprocessError) as exc:
        return fail(str(exc))

    spec = {
        "commands": prep.commands,
        "work_dir": str(work),
        "seconds": max(MIN_TASK_SECONDS, args.seconds - (time.perf_counter() - measuring)),
        "trace": bool(args.trace),
        "src": str(SRC),
    }
    spec_path, result_path = work / "spec.json", work / "worker_result.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    budget = RUN_LIMIT_S - CHECK_RESERVE_S - (time.perf_counter() - started)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(spec_path), str(result_path)],
            env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=budget,
        )
    except subprocess.TimeoutExpired:
        return fail(f"workload process did not finish within {budget:.0f} s")
    if proc.returncode != 0:
        return fail(f"workload process exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    result = json.loads(result_path.read_text(encoding="utf-8"))

    tasks = result["tasks"]
    failures = check_tasks(workload, prep, args.seed, work, tasks)
    first_ok = next((i for i in range(len(tasks)) if i not in failures), None)
    candidates = 0 if first_ok is None else workload.candidates(work / f"task_{first_ok}")

    wall = statistics.median(t["wall_s"] for t in tasks)
    wall_ref = statistics.median(t["wall_s"] * reference.NOMINAL_S / t["ref_s"] for t in tasks)
    e2e = {
        "wall_s_p50_ref": wall_ref,
        "cpu_s_p50_ref": statistics.median(t["cpu_s"] * reference.NOMINAL_S / t["ref_s"] for t in tasks),
        "thresholds_per_s_ref": candidates / wall_ref,
        "peak_rss_mb": result["peak_rss_mb"],
        "setup_s": statistics.median(s["cpu_s"] * reference.IMPORT_NOMINAL_S / s["ref_s"] for s in setup),
    }
    n_tasks = len(tasks)
    printed = [
        ("setup_wall_s", statistics.median(s["wall_s"] for s in setup), "s",
         f"median wall time of {len(setup)} fresh imports"),
        ("setup_s", e2e["setup_s"], "s",
         f"median importing-thread CPU time of the same imports at nominal speed "
         f"(reference imports {reference.IMPORT_NOMINAL_S:g} s)"),
        ("wall_s_p50", wall, "s", f"median of {n_tasks} tasks"),
        ("cpu_s_p50", statistics.median(t["cpu_s"] for t in tasks), "s", f"median of {n_tasks} tasks"),
        ("thresholds_per_s", candidates / wall, "1/s", f"{candidates} candidate thresholds per task"),
        ("ref_s_p50", statistics.median(t["ref_s"] for t in tasks), "s",
         f"reference computation, {reference.NOMINAL_S:g} s at nominal speed"),
        ("wall_s_p50_ref", wall_ref, "s", "wall_s_p50 at nominal speed"),
        ("cpu_s_p50_ref", e2e["cpu_s_p50_ref"], "s", "cpu_s_p50 at nominal speed"),
        ("thresholds_per_s_ref", e2e["thresholds_per_s_ref"], "1/s", "thresholds_per_s at nominal speed"),
        ("peak_rss_mb", e2e["peak_rss_mb"], "MB", "workload process"),
        ("error_rate", len(failures) / len(tasks), "ratio", f"{len(failures)} of {len(tasks)} tasks failed"),
    ]
    print(f"workload {args.workload}: seed {args.seed}"
          f"{'' if prep.seed_applies else ' (fixed input, seed unused)'}, "
          f"{n_tasks} {'traced' if args.trace else 'untraced'} tasks in {spec['seconds']:.3g} s "
          f"after set-up, closed loop, 1 caller")
    for name, value, unit, note in printed:
        print(f"  {name:<24} {value:>14.6g} {unit:<6} {note}")

    layers = {}
    if args.trace:
        for name in tasks[0]["layers"]:
            layers[name] = statistics.median(t["layers"].get(name, 0.0) for t in tasks)
        layers["report.bytes_written"] = statistics.median(t["bytes_written"] for t in tasks)
        print(f"  per layer, median of {n_tasks} traced tasks "
              f"(one span costs {1e6 * result['span_cost_s']:.3g} us):")
        for name, value in layers.items():
            print(f"  {name:<24} {value:>14.6g} {layer_unit(name)}")

    provenance = {
        "backend": result["backend"],
        "potrisk_version": result["potrisk_version"],
        "python": platform.python_version(),
        "numpy": result["numpy_version"],
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "commit": git_commit(ROOT),
        "inputs": {str(p.relative_to(ROOT)): sha256(p) for p in prep.input_files},
        "seed": args.seed if prep.seed_applies else None,
    }
    print("provenance: " + json.dumps(provenance))

    if args.trace:
        # A layer the workload never entered would read 0 here; every
        # workload enters the layers in PER_LAYER_METRICS.
        metrics = {n: {"value": layers.get(n, 0.0), "unit": layer_unit(n)} for n in PER_LAYER_METRICS}
    else:
        metrics = {n: {"value": e2e[n], "unit": u} for n, u in END_TO_END_UNITS.items()}
    line = {
        "correct": not failures,
        "attempted": len(tasks),
        "failed": len(failures),
        "metrics": metrics,
    }
    (work / "result.json").write_text(
        json.dumps({**line, "printed": {name: value for name, value, _, _ in printed}, "layers": layers,
                    "provenance": provenance, "tasks": tasks, "setup_samples": setup}, indent=1),
        encoding="utf-8",
    )
    print(json.dumps(line))
    return 0


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_us_per_call"):
        return "us"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("bytes_written"):
        return "bytes"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
