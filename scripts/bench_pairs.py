"""Run perfbench on a parent checkout and on this one in alternating pairs, and record the end-to-end metrics.

Each pair runs ``python3 perfbench/run.py --workload W --seed S --seconds T``
once in each checkout, alternating which side runs first. For each
end-to-end metric of BENCHMARK.json the output records each side's median,
quartiles and runs, the pair count, and in how many pairs the change was
better (in the metric's direction; ties count for neither). It also records
the provenance that perfbench prints for the change's runs: the backend,
the Python and numpy versions, the core count and the CPU. A run that
fails, or whose tasks are not all correct, stops the script.

Run from the repository root, one workload per call; each call adds its
workload to ``--out``, keeping the others:

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
    """One perfbench run in ``checkout``: its end-to-end metrics and its provenance."""
    command = [sys.executable, "perfbench/run.py", "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds)]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    if done.returncode or not lines:
        sys.exit(f"{checkout}: perfbench exited {done.returncode}: {done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{checkout}: {result['failed']} of {result['attempted']} tasks failed")
    provenance = json.loads(next(line for line in lines if line.startswith("provenance: "))[12:])
    return {name: m["value"] for name, m in result["metrics"].items()}, provenance


def summary(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "runs": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="the parent's source checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, to have quartiles")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    runs, provenance = {"parent": [], "change": []}, {}
    for i in range(args.pairs):
        sides = [("parent", args.parent.resolve()), ("change", ROOT)]
        for side, checkout in sides[:: 1 if i % 2 == 0 else -1]:
            metrics, provenance[side] = run(checkout, args)
            runs[side].append(metrics)
        print(f"{args.workload} pair {i + 1}: " + ", ".join(
            f"{name} {runs['parent'][-1][name]:.4g} -> {runs['change'][-1][name]:.4g}" for name in runs["change"][-1]
        ), flush=True)
    entry = {
        "seed": args.seed,
        "seconds": args.seconds,
        "pairs": args.pairs,
        "provenance": {key: provenance["change"][key] for key in PROVENANCE},
        "metrics": {},
    }
    for metric in benchmark["end_to_end"]:
        name, sign = metric["name"], 1.0 if metric["better"] == "lower" else -1.0
        parent = [m[name] for m in runs["parent"]]
        change = [m[name] for m in runs["change"]]
        entry["metrics"][name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "parent": summary(parent),
            "change": summary(change),
            "change_wins": sum(sign * (c - p) < 0.0 for p, c in zip(parent, change)),
        }
    out = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {"workloads": {}}
    out["workloads"][args.workload] = entry
    args.out.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
