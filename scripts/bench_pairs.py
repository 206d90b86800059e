"""Run perfbench on a parent checkout and on this one in alternating pairs, and record the end-to-end metrics.

Each pair runs ``python3 perfbench/run.py --workload W --seed S --seconds T``
once in each checkout, alternating which side runs first. For each
end-to-end metric of BENCHMARK.json the output records each side's median,
quartiles and runs, the pair count, and in how many pairs the change was
better (in the metric's direction; ties count for neither). It also records
the provenance that perfbench prints for the change's runs: the backend,
the Python and numpy versions, the core count and the CPU. A run that
fails, or whose tasks are not all correct, stops the script. The file also
records ``src_lines``: the summed line count of ``src/potrisk/*.py`` in
each checkout, as ``wc -l`` counts it. Before the first pair, each
checkout's ``src`` is compiled with ``python -m compileall -q src``: a
``.pyc`` older than its source is recompiled on every import, which
perfbench's ``setup_s`` would time.

With ``--trace``, the pairs are traced runs (``perfbench/run.py --trace 1``)
and the file records, under ``"layers"``, each side's median, quartiles and
runs of every per-layer metric, read from the ``"layers"`` of each run's
``.perfbench_work/<workload>/result.json`` (itself the median over that
run's tasks). These are raw seconds and counts: unlike the end-to-end
metrics they are not scaled to the machine's reference speed, and a traced
task also pays for its spans, so a difference between the sides is only as
good as the machine's steadiness between their runs.

Run from the repository root, one workload per call; each call adds its
workload and seed to ``--out`` as ``<workload>@<seed>``, keeping the
other entries (a call at a seed already recorded replaces that entry):

    python scripts/bench_pairs.py --parent ../parent-checkout --workload paper_analyze \\
        --pairs 10 --seed 1 --seconds 38 --out BENCH_<change>.json
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROVENANCE = ("backend", "python", "numpy", "nproc", "cpu")


def run(checkout: Path, args) -> tuple[dict, dict]:
    """One perfbench run in ``checkout``: its end-to-end metrics (with ``--trace``, its layers) and its provenance."""
    command = [sys.executable, "perfbench/run.py", "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(int(args.trace))]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    if done.returncode or not lines:
        sys.exit(f"{checkout}: perfbench exited {done.returncode}: {done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{checkout}: {result['failed']} of {result['attempted']} tasks failed")
    provenance = json.loads(next(line for line in lines if line.startswith("provenance: "))[12:])
    if args.trace:
        result_path = checkout / ".perfbench_work" / args.workload / "result.json"
        return json.loads(result_path.read_text(encoding="utf-8"))["layers"], provenance
    return {name: m["value"] for name, m in result["metrics"].items()}, provenance


def compile_sources(checkout: Path) -> None:
    """Rebuild the bytecode of ``checkout``'s ``src``, so that no run times the import of a stale ``.pyc``."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src"], cwd=checkout, check=True)


def src_lines(checkout: Path) -> int:
    """The summed line count of ``src/potrisk/*.py`` in ``checkout``."""
    return sum(path.read_bytes().count(b"\n") for path in (checkout / "src" / "potrisk").glob("*.py"))


def summary(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "runs": values}


def compare(metric: dict, runs: dict) -> dict:
    """Each side's summary of an end-to-end ``metric`` of BENCHMARK.json, and the pairs the change won."""
    name, sign = metric["name"], 1.0 if metric["better"] == "lower" else -1.0
    parent = [m[name] for m in runs["parent"]]
    change = [m[name] for m in runs["change"]]
    return {
        "unit": metric["unit"],
        "better": metric["better"],
        "parent": summary(parent),
        "change": summary(change),
        "change_wins": sum(sign * (c - p) < 0.0 for p, c in zip(parent, change)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="the parent's source checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace", action="store_true",
                        help="run traced pairs and record their per-layer metrics (raw, not reference-scaled)")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, to have quartiles")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    runs, provenance = {"parent": [], "change": []}, {}
    sides = [("parent", args.parent.resolve()), ("change", ROOT)]
    for _, checkout in sides:
        compile_sources(checkout)
    for i in range(args.pairs):
        for side, checkout in sides[:: 1 if i % 2 == 0 else -1]:
            metrics, provenance[side] = run(checkout, args)
            runs[side].append(metrics)
        print(f"{args.workload} pair {i + 1}: " + ", ".join(
            f"{name} {runs['parent'][-1].get(name, 0.0):.4g} -> {value:.4g}"
            for name, value in runs["change"][-1].items()
        ), flush=True)
    entry = {
        "seed": args.seed,
        "seconds": args.seconds,
        "pairs": args.pairs,
        "provenance": {key: provenance["change"][key] for key in PROVENANCE},
    }
    if args.trace:
        entry["note"] = "raw seconds and counts of traced tasks, not scaled to the reference speed"
        entry["layers"] = {
            name: {side: summary([m.get(name, 0.0) for m in runs[side]]) for side in runs}
            for name in runs["change"][-1]
        }
    else:
        entry["metrics"] = {metric["name"]: compare(metric, runs) for metric in benchmark["end_to_end"]}
    out = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {"workloads": {}}
    out.setdefault("layers" if args.trace else "workloads", {})[f"{args.workload}@{args.seed}"] = entry
    out["src_lines"] = {"parent": src_lines(args.parent.resolve()), "change": src_lines(ROOT)}
    args.out.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
