"""Machine-speed references for scaling measured times.

The benchmark runs on shared machines whose speed changes by up to 2x from
one moment to the next, also in the middle of a job, with the same program
and inputs.  A small fixed piece of pure-Python work (small dicts, tuples,
sorting, frozensets and int bit operations, the operations the library
spends its time on) is timed every SAMPLE_INTERVAL_S of wall time by a
SIGALRM handler, so it is sampled while jobs run.  A job's time is reported
as

    measured seconds * mean(REFERENCE_S / sample time)

over the samples taken during the job and the last one before it, that is,
in seconds on a machine that runs the sample in REFERENCE_S.  The handler's
own time is taken out of the job's measured time.  The reference is
benchmark code, so a change to the library cannot move it.

Set-up time is mostly process start and imports, which do not track the
pure-Python reference.  It is scaled the same way by a second reference:
the time a fresh interpreter takes to start and import numpy, the part of
set-up that the library cannot move.  It is timed right before and right
after each set-up sample.
"""

from __future__ import annotations

import bisect
import signal
import time

REFERENCE_LOOPS = 176  # 16 rounds of the dict sizes 0..10
# About the sample's time, in the handler, on a 2-core x86_64 machine in its
# slower phase.
REFERENCE_S = 9e-4
SAMPLE_INTERVAL_S = 0.04
START_REFERENCE_CODE = 'import numpy, os; print("READY", flush=True); os._exit(0)'
# About the start reference's time on the same machine.
START_REFERENCE_S = 0.15


def reference_seconds() -> float:
    started = time.perf_counter()
    acc = 0
    for i in range(REFERENCE_LOOPS):
        d = {str(j): "XYZ"[(i + j) % 3] for j in range(i % 11)}
        acc += len(tuple(sorted(d.items()))) + len(frozenset(d))
        x = i * 2654435761
        acc += (x ^ (x >> 7)).bit_count() + (x & -x).bit_length()
    return time.perf_counter() - started


class Speedometer:
    """Samples the machine's speed in the background of the main thread."""

    def __init__(self) -> None:
        self.times: list[float] = []  # when each sample started
        self.factors: list[float] = []  # REFERENCE_S / sample time
        self.handler_seconds = 0.0  # total time spent in the handler

    def _sample(self, signum, frame) -> None:
        started = time.perf_counter()
        self.factors.append(REFERENCE_S / reference_seconds())
        self.times.append(started)
        self.handler_seconds += time.perf_counter() - started

    def __enter__(self) -> "Speedometer":
        signal.signal(signal.SIGALRM, self._sample)
        self._sample(None, None)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def factor(self, start: float, end: float) -> float:
        """Factor that turns seconds measured from start to end into
        reference-speed seconds."""
        first = max(bisect.bisect_left(self.times, start) - 1, 0)
        window = self.factors[first : bisect.bisect_right(self.times, end)]
        return sum(window) / len(window)
