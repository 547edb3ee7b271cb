"""One workload in one fresh process; started by run.py.

Prints READY once set-up is done: imports, fixture and rule loading, and the
first cycle of seeded inputs.  Then it runs whole cycles of jobs until
--seconds have passed and prints one JSON line of results.  Each job's
output is checked right after the job, outside its timing, and then dropped;
only times, case counts and, when traced, the first cycle's results are kept.
Peak memory is read after the first cycle.  Job times are scaled to
reference speed by the speed samples taken while each job ran.  With
--trace, each job's calls are recorded as spans and the per-layer probes run
after each job, outside its timing.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import inflated_graphs as ig  # noqa: E402
import workloads  # noqa: E402
from reference import Speedometer  # noqa: E402
from tracer import Tracer, no_span  # noqa: E402


def ball_counts() -> tuple[int, int]:
    """Hits and misses of graph.ball's cache, while it has one."""
    cache_info = getattr(ig.ball, "cache_info", None)
    if cache_info is None:
        return 0, 0
    info = cache_info()
    return info.hits, info.misses


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload](args.seed)
    rng = workloads.make_rng(args.workload, args.seed)
    jobs = workload.cycle(rng)
    print("READY", flush=True)
    if args.setup_only:
        os._exit(0)  # interpreter teardown is not part of set-up

    tracer = Tracer() if args.trace else None
    span = tracer.span if tracer else no_span
    attempted = 0
    errors: list[str] = []
    job_seconds: list[float] = []  # at reference speed
    raw_job_seconds: list[float] = []
    job_scale: list[float] = []  # per attempted job, for the tracer
    cases = 0
    first_cycle: list = []  # (job, result, probe) of the traced first cycle
    peak_rss_mb = None
    busy = 0.0
    ball_start = ball_counts()
    with Speedometer() as speed:
        while True:
            cycle_start = time.perf_counter()
            for job in jobs:
                index = attempted
                attempted += 1
                if tracer:
                    tracer.job = index
                handler_before = speed.handler_seconds
                started = time.perf_counter()
                try:
                    with span("job"):
                        result = workload.run(job, span)
                    error = None
                except Exception as exc:  # a failed job is counted; the run goes on
                    result, error = None, f"{type(exc).__name__}: {exc}"
                ended = time.perf_counter()
                seconds = ended - started - (speed.handler_seconds - handler_before)
                factor = speed.factor(started, ended)
                job_scale.append(factor)
                # Outside the job's timing: the probe, the check, and dropping
                # the result, so that memory does not grow with the jobs done.
                probe = None
                if error is None:
                    if tracer:
                        probe = workload.probe(job, result, span)
                    try:
                        error = workload.check(index, job, result)
                    except Exception as exc:  # an oracle that cannot decide fails the job
                        error = f"check raised {type(exc).__name__}: {exc}"
                if error:
                    errors.append(error)
                else:
                    job_seconds.append(seconds * factor)
                    raw_job_seconds.append(seconds)
                    cases += workload.cases(job, result)
                    if tracer and peak_rss_mb is None:
                        first_cycle.append((job, result, probe))
                del result, probe
            busy += time.perf_counter() - cycle_start
            if peak_rss_mb is None:
                # Read at a fixed point of the job mix, so that it does not
                # depend on how many jobs the window holds.
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
                ball_first = ball_counts()
            if busy >= args.seconds:
                break
            jobs = workload.cycle(rng)

    report = {
        "attempted": attempted,
        "failed": len(errors),
        "errors": errors[:5],
        "job_seconds": job_seconds,
        "raw_job_seconds": raw_job_seconds,
        "cases": cases,
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer:
        self_seconds = tracer.self_seconds(job_scale)
        self_seconds.pop("job", None)
        report["layers"] = {
            f"{name}_s": total / attempted for name, total in self_seconds.items()
        }
        hits = ball_first[0] - ball_start[0]
        misses = ball_first[1] - ball_start[1]
        report["counts"] = {
            **workload.counts(first_cycle),
            "graph.ball_hits": hits,
            "graph.ball_misses": misses,
            "graph.ball_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        }
        tracer.write(ROOT / ".perfbench" / f"trace-{args.workload}-{args.seed}.json")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
