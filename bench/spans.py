"""In-memory span recorder and the self-time arithmetic of the traced run.

A span is one call into a layer: its name (``<layer>.<function>``), its
start and end on ``time.perf_counter``, and the index of the span that was
open when it started (its parent). Spans stay in memory until the run
ends and are written out in one piece.

A span's self time is its duration minus the durations of its direct
children; a layer's self time is the sum over its spans. The traced run is
single-threaded, so spans nest properly: every instant belongs to exactly
one innermost span (or to none), and the layer self times add up to the
time spent inside any span.
"""

from __future__ import annotations

import functools
import time
from collections import Counter


class Recorder:
    """Collects spans and per-function call and error counts."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[dict] = []
        self.calls: Counter = Counter()
        self.errors: Counter = Counter()
        self.counts: Counter = Counter()
        self._open: list[int] = []

    def wrap(self, name: str, fn, on_result=None):
        """Return fn wrapped in a span named ``name``.

        ``on_result(recorder, result, args, kwargs)`` runs after the span
        closes, so the counting it does is not charged to the layer.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append({"name": name, "start": self.clock(), "end": None,
                               "parent": self._open[-1] if self._open else None})
            self._open.append(idx)
            self.calls[name] += 1
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.errors[name] += 1
                raise
            finally:
                self.spans[idx]["end"] = self.clock()
                self._open.pop()
            if on_result is not None:
                on_result(self, result, args, kwargs)
            return result

        return traced

    def as_dict(self) -> dict:
        return {"spans": self.spans, "calls": dict(self.calls),
                "errors": dict(self.errors), "counts": dict(self.counts)}


def self_times(spans) -> list[float]:
    """Per-span duration minus the durations of its direct children."""
    out = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def layer_self_times(spans) -> dict[str, float]:
    """Sum of span self times per layer (the name before the first dot)."""
    out: dict[str, float] = {}
    for s, t in zip(spans, self_times(spans)):
        layer = s["name"].split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + t
    return out


def total_time(spans, name: str) -> float:
    """Summed duration of the spans called ``name``."""
    return sum(s["end"] - s["start"] for s in spans if s["name"] == name)
