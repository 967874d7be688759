"""Spans around calls into varopt, collected from outside the package.

A span records its name, start, end, parent and an optional attribute taken
from the call's result. Spans stay in memory; `summarize` turns them into
per-layer metrics when the run ends. Cyclic-GC pauses, taken from
`gc.callbacks`, are charged to the innermost span open when they happen.
"""

from __future__ import annotations

import gc
import time

NAME, START, END, PARENT, GC_S, GC_N, ATTR = range(7)


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._gc_t0 = None

    def wrap(self, name, fn, attr=None):
        """Return fn wrapped in a span; attr(result) is stored with the span."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, 0.0, 0, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if attr is not None:
                rec[ATTR] = attr(result)
            return result

        return traced

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_t0 = time.perf_counter()
        elif self._gc_t0 is not None:
            if self._stack:
                rec = self.spans[self._stack[-1]]
                rec[GC_S] += time.perf_counter() - self._gc_t0
                rec[GC_N] += 1
            self._gc_t0 = None

    def __enter__(self):
        gc.callbacks.append(self._on_gc)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self._on_gc)
        return False


def self_times(spans):
    """Duration of each span minus the time covered by its direct children."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def nearest_ancestor(spans, i, prefix):
    """Name of the closest enclosing span whose name starts with prefix."""
    j = spans[i][PARENT]
    while j >= 0:
        if spans[j][NAME].startswith(prefix):
            return spans[j][NAME]
        j = spans[j][PARENT]
    return None
