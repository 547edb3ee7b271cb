"""Runs the benchmark over several seeds and reports how steady each metric is.

    python3 perfbench/sweep.py --seeds 1-10
    python3 perfbench/sweep.py --seeds 1 --workloads pipeline --trace 1
    python3 perfbench/sweep.py --seeds 1-10 --out perfbench/baseline.json

One run.py per (workload, seed), one after another.  For each metric it
prints the median of the runs, their quartiles (statistics.quantiles, n=4)
and the spread (q3 - q1) / median next to the metric's bound from
BENCHMARK.json.  Exits 1 if any run fails or reports incorrect outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def summarize(values: list[float], bound: float | None) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "bound": bound,
        "values": values,
    }


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=parse_seeds, default=[1])
    parser.add_argument(
        "--workloads", default=",".join(w["name"] for w in spec["workloads"])
    )
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in listed}
    ok = True
    summary: dict[str, dict] = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                ok = False
                continue
            result = json.loads(lines[-1])
            ok &= result["correct"]
            runs.append(result)
            notes = " ".join(line for line in lines if line.startswith("#"))
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} {notes}",
                  flush=True)
        if not runs:
            continue
        summary[workload] = {
            "attempted": [r["attempted"] for r in runs],
            "metrics": {
                name: summarize([r["metrics"][name]["value"] for r in runs], bounds[name])
                for name in bounds
            },
        }
        for name, s in summary[workload]["metrics"].items():
            bound = "" if s["bound"] is None else f"bound {s['bound']:.2f}"
            print(f"{workload:<10}  {name:<30}  median {s['median']:<12.6g}  "
                  f"q1 {s['q1']:<12.6g}  q3 {s['q3']:<12.6g}  spread {s['spread']:.3f}  {bound}")
    if args.out:
        args.out.write_text(json.dumps({
            "python": platform.python_version(),
            "numpy": metadata.version("numpy"),
            "nproc": os.cpu_count(),
            "machine": platform.machine(),
            "run_seconds": args.seconds,
            "seeds": args.seeds,
            "trace": args.trace,
            "workloads": summary,
        }, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
