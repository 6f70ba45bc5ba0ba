"""In-memory spans for the traced benchmark run.

Spans are recorded only from the benchmark's own code, around calls into the
package's public entry points. Each span has a name, start and end (ns,
``time.perf_counter_ns``), the index of its parent span, the id of the
item it belongs to, and how many calls it times: an operation of a few
microseconds is timed as a batch of calls in one span, so that the span's
own cost (about half a microsecond) is a small share of it. Nothing is
written until the run ends.
"""

from __future__ import annotations

import gzip
import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional


@dataclass
class Span:
    name: str
    start: int
    end: int
    parent: Optional[int]
    item: int
    reps: int = 1


class Tracer:
    """Collects nested spans and named counters for one run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.item = -1
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, reps: int = 1):
        """Time the block as one span; ``reps`` is the number of calls of the
        operation the block makes, so the median call is duration / reps."""
        parent = self._stack[-1] if self._stack else None
        record = Span(name, time.perf_counter_ns(), 0, parent, self.item, reps)
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record.end = time.perf_counter_ns()
            self._stack.pop()

    def add(self, name: str, amount: int) -> None:
        self.counts[name] += amount

    def write(self, path) -> None:
        """Write every span as one JSON line, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8") as out:
            for s in self.spans:
                out.write(json.dumps([s.name, s.start, s.end, s.parent, s.item, s.reps]))
                out.write("\n")


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the part of it that its children cover.

    Child intervals are clipped to the parent and merged first, so
    overlapping children are not subtracted twice.
    """
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0
        run_start = run_end = None
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, s.start), min(b, s.end)
            if b <= a:
                continue
            if run_end is None or a > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = a, b
            else:
                run_end = max(run_end, b)
        if run_end is not None:
            covered += run_end - run_start
        out.append(s.end - s.start - covered)
    return out


@dataclass
class SpanStats:
    calls: int
    total_ns: int
    self_ns: int
    median_ns: float


def summarize(spans: list[Span]) -> dict[str, SpanStats]:
    """Per span name: span count, inclusive and self time, and the median
    duration of one call (a batched span's duration over its ``reps``)."""
    selfs = self_times(spans)
    durations: dict[str, list[int]] = defaultdict(list)
    per_call: dict[str, list[float]] = defaultdict(list)
    self_sum: dict[str, int] = defaultdict(int)
    for s, own in zip(spans, selfs):
        durations[s.name].append(s.end - s.start)
        per_call[s.name].append((s.end - s.start) / s.reps)
        self_sum[s.name] += own
    return {
        name: SpanStats(len(ds), sum(ds), self_sum[name], statistics.median(per_call[name]))
        for name, ds in durations.items()
    }


_TIME_FIELDS = {
    "s": lambda st: st.total_ns / 1e9,
    "self_s": lambda st: st.self_ns / 1e9,
    "us": lambda st: st.median_ns / 1e3,
    "ms": lambda st: st.median_ns / 1e6,
    "calls": lambda st: st.calls,
}


def layer_value(name: str, stats: dict[str, SpanStats], counts: dict[str, int]):
    """Value of one per-layer metric.

    ``<span>.calls`` counts spans, ``<span>.s`` and ``<span>.self_s`` sum
    inclusive and self time, ``<span>.us`` and ``<span>.ms`` (or
    ``<span>_ms``) give the median call; any other name is a counter.
    Layers the run never entered read 0.
    """
    span_name, _, field = name.rpartition(".")
    head, _, tail = field.rpartition("_")
    if field not in _TIME_FIELDS and tail in ("ms", "us"):
        span_name, field = f"{span_name}.{head}", tail
    if field in _TIME_FIELDS:
        st = stats.get(span_name)
        return _TIME_FIELDS[field](st) if st is not None else 0
    return counts.get(name, 0)
