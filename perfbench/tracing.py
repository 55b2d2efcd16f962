"""In-memory span recorder for the traced benchmark run.

Spans are recorded by the harness around the public pppm calls it makes; the
program itself is not instrumented.  A span's layer is the part of its name
before the first dot (`dsl.lower` belongs to `dsl`).
"""

from __future__ import annotations

import random
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, NamedTuple, Optional


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: Optional[int]  # index into Tracer.spans
    request: int


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Optional[Span]] = []
        self.request = 0
        self._current: Optional[int] = None

    def call(self, name: str, fn: Callable[..., Any], *args: Any) -> Any:
        """Run fn(*args) inside a span called `name`; return its result."""
        parent = self._current
        index = len(self.spans)
        self.spans.append(None)
        self._current = index
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            end = perf_counter()
            self._current = parent
            self.spans[index] = Span(name, start, end, parent, self.request)

    def durations(self, name: str) -> list[float]:
        return [s.end - s.start for s in self.spans if s.name == name]

    def self_times(self) -> dict[str, float]:
        """Seconds per layer, each span's duration minus its children's."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        out: dict[str, float] = defaultdict(float)
        for span, covered in zip(self.spans, child_time):
            out[span.name.split(".", 1)[0]] += span.end - span.start - covered
        return dict(out)

    def to_json(self) -> list[dict]:
        return [s._asdict() for s in self.spans]


class Paired:
    """A `call` that runs every call twice, traced and untraced, so that the
    tracing overhead is measured against an untraced run of the same calls
    at the same moment.  Which of the two goes first is drawn at random: a
    fixed alternation would line up with the fixed call sequence of a ladder
    pass and always put the same call first."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.traced = 0.0
        self.untraced = 0.0
        self._order = random.Random(0)

    def __call__(self, name: str, fn: Callable[..., Any], *args: Any) -> Any:
        t0 = perf_counter()
        if self._order.random() < 0.5:
            out = self.tracer.call(name, fn, *args)
            t1 = perf_counter()
            fn(*args)
            self.traced += t1 - t0
            self.untraced += perf_counter() - t1
        else:
            fn(*args)
            t1 = perf_counter()
            out = self.tracer.call(name, fn, *args)
            self.untraced += t1 - t0
            self.traced += perf_counter() - t1
        return out

    def overhead_pct(self) -> float:
        return (self.traced / self.untraced - 1.0) * 100.0


def direct(name: str, fn: Callable[..., Any], *args: Any) -> Any:
    """The untraced stand-in for Tracer.call."""
    return fn(*args)
