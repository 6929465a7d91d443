"""In-memory spans recorded around the benchmark's calls into the library.

A span is (name, start, end, parent, item): `parent` is the index of the
enclosing span in the same tracer, or None, and `item` is the id of the
benchmark item the span belongs to. Spans are kept in memory and written
out once, when the workload ends.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager


class NullTracer:
    """Untraced runs: calls go straight through, nothing is recorded."""

    item = None

    def __call__(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    @contextmanager
    def span(self, name):
        yield


class Tracer(NullTracer):
    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self.item = None

    @contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.item)

    def __call__(self, name, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def summary(self) -> dict:
        """Per span name: calls, busy seconds and the median duration in seconds."""
        by_name: dict[str, list[float]] = {}
        for name, start, end, _parent, _item in self.spans:
            by_name.setdefault(name, []).append(end - start)
        return {
            name: {"calls": len(d), "busy_s": sum(d), "p50_s": statistics.median(d)}
            for name, d in by_name.items()
        }

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, item in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "item": item}) + "\n")
