"""Spans recorded from outside the program, around calls into its layers.

A span is (name, start, end, parent); spans stay in memory and are
aggregated when the repetition ends.  A layer's self time is its spans'
duration minus the part their child spans cover, so nested spans never
count a second twice.  ``off_path`` marks probes the workload would not
run by itself: they are reported like any layer but left out of
coverage and of the traced wall.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager, nullcontext


class Tracer:
    def __init__(self) -> None:
        #: [name, start, end, parent index or -1, off_path]
        self.spans: list[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()  # one span stack per client thread

    @contextmanager
    def span(self, name: str, off_path: bool = False):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        rec = [name, 0.0, 0.0, stack[-1] if stack else -1, off_path]
        with self._lock:
            stack.append(len(self.spans))
            self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            stack.pop()

    def self_seconds(self) -> tuple[dict[str, float], float, float]:
        """(self seconds per span name, on-path total, off-path total).

        A span below an off-path span is off-path too.
        """
        covered = [0.0] * len(self.spans)
        off = [False] * len(self.spans)
        for i, (_, t0, t1, parent, off_path) in enumerate(self.spans):
            off[i] = off_path or (parent >= 0 and off[parent])
            if parent >= 0:
                covered[parent] += t1 - t0
        per_name: dict[str, float] = {}
        on_total = off_total = 0.0
        for i, (name, t0, t1, _, _) in enumerate(self.spans):
            own = (t1 - t0) - covered[i]
            per_name[name] = per_name.get(name, 0.0) + own
            if off[i]:
                off_total += own
            else:
                on_total += own
        return per_name, on_total, off_total


class _NullTracer:
    """Tracing off: a span is one method call and an empty ``with``."""

    _noop = nullcontext()

    def span(self, name: str, off_path: bool = False):
        return self._noop


NULL = _NullTracer()
