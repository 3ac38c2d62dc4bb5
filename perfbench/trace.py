"""In-memory spans around layer calls, and per-layer self time.

A span records name, start, end, parent span and run id. The tracer keeps
spans in a list and writes them out once, at the end of a run. A disabled
tracer records nothing, so untraced runs pay one attribute check per call.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    span_id: int
    parent_id: int | None
    name: str
    start: float
    end: float
    run_id: str


class Tracer:
    def __init__(self, run_id: str, enabled: bool) -> None:
        self.run_id = run_id
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        span = Span(len(self.spans), self._stack[-1] if self._stack else None,
                    name, time.perf_counter(), 0.0, self.run_id)
        self.spans.append(span)
        self._stack.append(span.span_id)
        try:
            yield
        finally:
            self._stack.pop()
            span.end = time.perf_counter()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump([asdict(s) for s in self.spans], f)


def _covered(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Length of [start, end] covered by the union of ``intervals``."""
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list[Span]) -> dict[str, float]:
    """Per span name: summed duration minus the part of each span's
    interval that its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent_id is not None:
            children.setdefault(s.parent_id, []).append((s.start, s.end))
    out: dict[str, float] = {}
    for s in spans:
        own = (s.end - s.start) - _covered(s.start, s.end, children.get(s.span_id, []))
        out[s.name] = out.get(s.name, 0.0) + own
    return out
