"""Spans recorded by the benchmark around its own calls into cutseq.

A span is a tuple (name, start, end, parent, job): `name` is
"<module>.<function>[.<variant>]", `start`/`end` are perf_counter seconds,
`parent` is the index of the enclosing span (-1 for a root) and `job` the id of
the job it belongs to.  Spans are kept in memory and written out when the run
ends.  A span covers everything beneath the call it wraps; spans inside cutseq
itself are left to the program.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    """Records spans and units of work; a disabled tracer only forwards calls."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[tuple] = []
        self.units: dict[str, int] = {}
        self.job = None
        self._stack: list[int] = []

    def call(self, name: str, units: int, fn, *args):
        """fn(*args), recorded as a span that did `units` units of work."""
        if not self.enabled:
            return fn(*args)
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self.job)
            self.units[name] = self.units.get(name, 0) + units

    def add_units(self, name: str, units: int) -> None:
        """Units known only once a call has returned, such as output letters."""
        if self.enabled:
            self.units[name] = self.units.get(name, 0) + units

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self.job)

    def write(self, path) -> None:
        keys = ("name", "start", "end", "parent", "job")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)


def layer(name: str) -> str:
    return name.split(".", 1)[0]


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[tuple]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, job in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for idx, (name, start, end, parent, job) in enumerate(spans):
        covered = [(max(lo, start), min(hi, end)) for lo, hi in children.get(idx, ())]
        out.append((end - start) - _union_length([c for c in covered if c[1] > c[0]]))
    return out


def layer_times(spans: list[tuple], scale: dict | None = None) -> dict[str, tuple[float, float]]:
    """Per layer: (busy, self) seconds, each span's time multiplied by scale[job].

    Busy time is the union of the layer's span intervals within each job, so a
    call nested in another call of the same layer is not counted twice; self
    time is the sum of the layer's span self times.
    """
    scale = scale or {}
    selfs = self_times(spans)
    intervals: dict[tuple[str, object], list[tuple[float, float]]] = {}
    self_sum: dict[str, float] = {}
    for (name, start, end, _, job), st in zip(spans, selfs):
        key = layer(name)
        intervals.setdefault((key, job), []).append((start, end))
        self_sum[key] = self_sum.get(key, 0.0) + st * scale.get(job, 1.0)
    busy: dict[str, float] = {}
    for (key, job), iv in intervals.items():
        busy[key] = busy.get(key, 0.0) + _union_length(iv) * scale.get(job, 1.0)
    return {key: (busy[key], self_sum[key]) for key in busy}


def busy_by_name(spans: list[tuple], scale: dict | None = None) -> dict[str, tuple[int, float]]:
    """Per span name: (calls, summed duration times scale[job])."""
    scale = scale or {}
    out: dict[str, tuple[int, float]] = {}
    for name, start, end, _, job in spans:
        calls, total = out.get(name, (0, 0.0))
        out[name] = (calls + 1, total + (end - start) * scale.get(job, 1.0))
    return out
