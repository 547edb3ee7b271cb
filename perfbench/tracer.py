"""In-memory spans around the benchmark's own calls into the library.

A span records its name, start, end, parent span and job id.  Spans stay in
memory until the run ends; self time is a span's duration minus the
durations of its direct child spans.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path

_NO_SPAN = nullcontext()


def no_span(name: str):
    """Stand-in for Tracer.span in untraced runs."""
    return _NO_SPAN


class Tracer:
    def __init__(self) -> None:
        self.job: int | None = None
        self._spans: list[list] = []  # [name, start, end, parent, job]
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self._spans)
        parent = self._stack[-1] if self._stack else None
        self._spans.append([name, time.perf_counter(), None, parent, self.job])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self._spans[index][2] = time.perf_counter()

    def self_seconds(self, job_scale: list[float]) -> dict[str, float]:
        """Total self time per span name, each span's scaled by its job's
        factor.  Spans nest strictly, so a span's children never overlap."""
        covered = [0.0] * len(self._spans)
        for _, start, end, parent, _ in self._spans:
            if parent is not None:
                covered[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for (name, start, end, _, job), child in zip(self._spans, covered):
            totals[name] += ((end - start) - child) * job_scale[job]
        return dict(totals)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ("name", "start", "end", "parent", "job")
        with open(path, "w") as fh:
            json.dump([dict(zip(fields, span)) for span in self._spans], fh)
