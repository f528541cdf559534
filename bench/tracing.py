"""Spans recorded around calls into the package's layers.

A span is ``[name, start, end, parent, run_id]``: ``name`` is
``<layer>.<function>``, times are ``time.perf_counter`` seconds, ``parent`` is
the index of the enclosing span (-1 for a root) and ``run_id`` numbers the
closed-loop operation (one scan, or one tracked system) the span belongs to.
Spans stay in memory and are written out once, when the traced run ends.

Wrappers are installed on module attributes, so a layer that looks a
function up in its own namespace at call time (``runner.propagate``,
``spectral.eigendecompose``) calls through the wrapper without any change to
the package.  This module uses only the standard library, so loading it
does not change what the set-up measurement imports.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager


class Tracer:
    """In-memory span recorder with per-pass counters."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: list[dict[str, int]] = []  # one dict per traced pass
        self._stack: list[int] = []
        self._run_id = -1
        self._installed: list[tuple[object, str, object]] = []

    def begin_pass(self) -> None:
        self.counts.append({})

    def count(self, key: str, n: int = 1) -> None:
        current = self.counts[-1]
        current[key] = current.get(key, 0) + n

    def call(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span; a root span starts a new run id."""
        if not self._stack:
            self._run_id += 1
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = [name, 0.0, 0.0, parent, self._run_id]
        self.spans.append(span)
        self._stack.append(index)
        self.count(name + ".calls")
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, module, attr: str, name: str, on_result=None) -> None:
        """Replace ``module.attr`` by a traced wrapper until ``uninstall``."""
        original = getattr(module, attr)

        def wrapper(*args, **kwargs):
            result = self.call(name, original, *args, **kwargs)
            if on_result is not None:
                on_result(result)
            return result

        self._installed.append((module, attr, original))
        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()


class NullTracer:
    """Same calling convention as Tracer, recording nothing."""

    def begin_pass(self) -> None:
        pass

    def call(self, name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)


@contextmanager
def installed(tracer: Tracer):
    try:
        yield tracer
    finally:
        tracer.uninstall()


def durations(spans: list[list], name: str) -> list[float]:
    return [s[2] - s[1] for s in spans if s[0] == name]


def self_times(spans: list[list]) -> dict[str, float]:
    """Total self time per layer: each span's duration minus its children's.

    Spans are recorded by one thread, so a span's children never overlap and
    their durations simply add up.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: dict[str, float] = {}
    for (name, start, end, _, _), covered in zip(spans, child_time):
        layer = name.split(".", 1)[0]
        totals[layer] = totals.get(layer, 0.0) + (end - start) - covered
    return totals


def median(values: list[float]) -> float:
    """Median, or 0.0 for a layer that was not called on this workload."""
    return statistics.median(values) if values else 0.0
