"""Spans and counters recorded from outside the program.

The benchmark never edits `semloc`. It swaps module attributes for
wrappers, under the names the calling module looks them up by (for
example `semloc.localizer.knn_ratio_match`), and restores them on exit.
Spans are kept in memory; self times are computed once the run is over.
"""

from __future__ import annotations

import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


@contextmanager
def patched(module, **replacements):
    """Replace module attributes for the duration of the block."""
    saved = {name: getattr(module, name) for name in replacements}
    try:
        for name, value in replacements.items():
            setattr(module, name, value)
        yield
    finally:
        for name, value in saved.items():
            setattr(module, name, value)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans


class Tracer:
    """Records nested spans per thread plus named counters."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def enclosing(self) -> list[str]:
        """Names of the open spans of this thread, innermost last."""
        return [self.spans[i].name for i in self._stack()]

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        with self._lock:
            index = len(self.spans)
            self.spans.append(Span(name, time.perf_counter(), 0.0, stack[-1] if stack else None))
        stack.append(index)
        try:
            yield
        finally:
            self.spans[index].end = time.perf_counter()
            stack.pop()

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def wrap(self, fn, name: str, on_result=None, on_error=None):
        """Wrapper that records `fn` as a span named `name`.

        on_result(args, result) and on_error(exc) update counters; the
        wrapped function's result and exceptions pass through unchanged.
        """

        def wrapper(*args, **kwargs):
            with self.span(name):
                try:
                    result = fn(*args, **kwargs)
                except Exception as exc:
                    if on_error is not None:
                        on_error(exc)
                    raise
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus the time covered
        by direct children."""
        child_time = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        totals: dict[str, float] = defaultdict(float)
        for i, s in enumerate(self.spans):
            totals[s.name] += (s.end - s.start) - child_time[i]
        return dict(totals)

    def durations(self, name: str) -> list[float]:
        return [s.end - s.start for s in self.spans if s.name == name]
