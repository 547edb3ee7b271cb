"""Records bell_bound's min_violations for the shipped seeds.

    python3 perfbench/record.py

Writes perfbench/expected.json: per seed, the min_violations of each job in
order over the first RECORDED_CYCLES cycles.  Run it only at a commit whose
results are trusted; worker runs of those seeds are checked against it.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from run import DEFAULT_SEED, HELD_OUT_SEED  # noqa: E402
from tracer import no_span  # noqa: E402
from workloads import EXPECTED, BellBound, make_rng  # noqa: E402

RECORDED_CYCLES = 30


def main() -> int:
    recorded = {}
    for seed in (DEFAULT_SEED, HELD_OUT_SEED):
        workload = BellBound(seed, expected=[])
        rng = make_rng("bell_bound", seed)
        values: list[int] = []
        for _ in range(RECORDED_CYCLES):
            for job in workload.cycle(rng):
                result = workload.run(job, no_span)
                error = workload.check(len(values), job, result)
                if error:
                    print(f"seed {seed}, job {len(values)}: {error}", file=sys.stderr)
                    return 1
                values.append(result.min_violations)
        recorded[str(seed)] = values
    EXPECTED.write_text(json.dumps({"bell_bound": recorded}) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
