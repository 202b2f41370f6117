"""In-memory spans around the benchmark's calls into paircert, and their
per-layer self times."""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter


class Tracer:
    """Records one span per call: name, parent, start, end and verdict id.

    A span's layer is the part of its name before the first dot, which is the
    paircert module the call goes into.
    """

    def __init__(self):
        self.spans: list[list] = []  # [name, parent index, start, end, verdict]
        self._stack: list[int] = []
        self.verdict = -1

    def call(self, name, fn, *args):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        span = [name, parent, perf_counter(), 0.0, self.verdict]
        self.spans.append(span)
        self._stack.append(idx)
        try:
            return fn(*args)
        finally:
            span[3] = perf_counter()
            self._stack.pop()


def self_times(spans) -> dict[str, float]:
    """Seconds per span name, each span's duration minus its children's."""
    child = [0.0] * len(spans)
    for name, parent, start, end, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for idx, (name, _, start, end, _) in enumerate(spans):
        out[name] += (end - start) - child[idx]
    return out


def layer_totals(by_name: dict[str, float]) -> dict[str, float]:
    out: dict[str, float] = defaultdict(float)
    for name, secs in by_name.items():
        out[name.split(".", 1)[0]] += secs
    return out
