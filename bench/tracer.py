"""In-memory spans and counters for the traced benchmark run.

A span is (name, start, end, parent, operation id), with ``parent`` the index
of the enclosing span or -1.  Nothing is written while the run is timed; the
worker dumps every span once, at exit.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager


class Tracer:
    """Spans and counts of one traced pass."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, str] | None] = []
        self.counts: Counter[str] = Counter()
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, op_id: str):
        parent = self._open[-1] if self._open else -1
        index = len(self.spans)
        self.spans.append(None)
        self._open.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans[index] = (name, start, end, parent, op_id)

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] += amount

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: each span's duration minus the
        durations of its direct children."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, float] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] = totals.get(name, 0.0) + (end - start) - child_time[i]
        return totals

    def durations(self, name: str, op_prefix: str) -> float:
        """Summed duration of the spans called ``name`` whose operation id
        starts with ``op_prefix``."""
        return sum(
            end - start
            for n, start, end, _, op in self.spans
            if n == name and op.startswith(op_prefix)
        )

    def dump(self, fh, pass_no: int) -> None:
        for name, start, end, parent, op in self.spans:
            fh.write(json.dumps({"pass": pass_no, "name": name, "start": start,
                                 "end": end, "parent": parent, "op": op}) + "\n")
        fh.write(json.dumps({"pass": pass_no, "counts": dict(self.counts)}) + "\n")
