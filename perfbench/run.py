"""Benchmark entry point.

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 30 --trace 0

Each workload runs in fresh worker processes with BLAS threads pinned to 1,
so no cache or memory peak carries over from another run.  --trace 0 times
SETUP_SAMPLES set-up-only workers from process start until each is ready for
its first job, then one worker that runs the timed window, and reports the
end-to-end metrics of BENCHMARK.json.  --trace 1 runs an untraced and then a
traced worker for half the time each, and reports the per-layer metrics.
Job and set-up times are in seconds at reference speed (see reference.py).  Every metric is printed by name and unit; the last line is
one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import START_REFERENCE_CODE, START_REFERENCE_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 1
HELD_OUT_SEED = 2  # for confirming a claimed gain on a seed it was not tuned on
SETUP_SAMPLES = 12  # half before the timed worker, half after it
# Time allowed for a whole run: set-up samples, the timed window and the
# cycle it may run over, and the checks.
DEADLINE_MARGIN_S = 110


class WorkerError(Exception):
    pass


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def time_to_ready(cmd: list[str], deadline: float) -> tuple[float, str]:
    """Run a process that prints READY when set up; return the seconds from
    its start until READY, and the rest of its output."""
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        seconds = time.perf_counter() - started
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready.strip() != "READY" or proc.returncode != 0:
        raise WorkerError(f"{' '.join(cmd[1:])} exited with code {proc.returncode}")
    return seconds, out


def worker_cmd(args, seconds: float, *flags: str) -> list[str]:
    return [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(seconds),
        *flags,
    ]


def run_worker(args, seconds: float, deadline: float, *flags: str) -> dict:
    out = time_to_ready(worker_cmd(args, seconds, *flags), deadline)[1]
    return json.loads(out.splitlines()[-1])


def setup_samples(args, count: int, deadline: float) -> list[float]:
    """Set-up times at reference speed: each set-up-only worker's time to
    READY, scaled by the start reference timed right before and after it."""
    worker = worker_cmd(args, 0, "--setup-only")
    reference = [sys.executable, "-c", START_REFERENCE_CODE]
    starts = [time_to_ready(reference, deadline)[0]]
    samples = []
    for _ in range(count):
        setup = time_to_ready(worker, deadline)[0]
        starts.append(time_to_ready(reference, deadline)[0])
        samples.append(setup * START_REFERENCE_S / ((starts[-2] + starts[-1]) / 2))
    return samples


def end_to_end(args, deadline: float) -> tuple[list[dict], dict]:
    # Set-up samples come before and after the timed worker, so that they
    # see more than one phase of a shared machine's load.
    setups = setup_samples(args, SETUP_SAMPLES // 2, deadline)
    timed = run_worker(args, args.seconds, deadline)
    setups += setup_samples(args, SETUP_SAMPLES // 2, deadline)
    times = timed["job_seconds"]
    raw = timed["raw_job_seconds"]
    print(
        f"# {args.workload}: {len(times)} jobs, {SETUP_SAMPLES} set-up samples; "
        f"measured job_s_p50 {statistics.median(raw):.6g} s, "
        f"machine at {sum(times) / sum(raw):.3f} x reference speed"
    )
    return [timed], {
        "setup_s": statistics.median(setups),
        "job_s_p50": statistics.median(times),
        "job_s_p90": statistics.quantiles(times, n=10)[8],
        "jobs_per_s": len(times) / sum(times),
        "cases_per_s": timed["cases"] / sum(times),
        "peak_rss_mb": timed["peak_rss_mb"],
    }


def per_layer(args, deadline: float) -> tuple[list[dict], dict]:
    plain = run_worker(args, args.seconds / 2, deadline)
    traced = run_worker(args, args.seconds / 2, deadline, "--trace")
    print(
        f"# {args.workload}: layer times are self seconds per job over "
        f"{traced['attempted']} traced jobs; counts cover the first cycle"
    )
    overhead = statistics.median(traced["job_seconds"]) / statistics.median(
        plain["job_seconds"]
    )
    return [plain, traced], {
        **traced["layers"],
        **traced["counts"],
        "trace.overhead_ratio": overhead,
    }


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", choices=[w["name"] for w in spec["workloads"]], required=True
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "inflated_graphs").is_dir():
        print(f"no library sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    deadline = time.monotonic() + 2 * args.seconds + DEADLINE_MARGIN_S
    try:
        runs, values = (per_layer if args.trace else end_to_end)(args, deadline)
    except (WorkerError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    unlisted = set(values) - {m["name"] for m in listed}
    if unlisted:
        print(f"metrics missing from BENCHMARK.json: {sorted(unlisted)}", file=sys.stderr)
        return 1

    # A layer that a workload bypasses reads 0.
    metrics = {
        m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
        for m in listed
    }
    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    for run in runs:
        for error in run["errors"]:
            print(f"# failed job: {error}")
    for name, metric in metrics.items():
        print(f"{args.workload:<10}  {name:<30}  {metric['value']:<14.6g}  {metric['unit']}")
    print(f"{args.workload:<10}  {'failed_ratio':<30}  {failed / attempted:<14.6g}  ratio")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
