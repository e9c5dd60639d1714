"""In-memory spans and call counters for the traced benchmark run.

Spans are recorded only around calls the benchmark itself makes into
swingcert's public functions; nothing inside the package is patched.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager


class Tracer:
    """Collects spans (name, start, end, parent, item) in memory.

    Span ids are list indices; ``parent`` is the id of the span that was
    open when this one started, or None.  ``count`` attaches a work count
    to a span (e.g. how many grid points one replay loop covered).
    """

    def __init__(self):
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, name: str, item=None):
        if item is None and self._open:
            item = self._open[-1]["item"]
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1]["id"] if self._open else None,
            "item": item,
            "start": time.perf_counter(),
            "end": None,
            "count": 1,
        }
        self.spans.append(record)
        self._open.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def self_times(self) -> list:
        """Per-span self time: duration minus the time its children cover.

        Children of one span run one after another in this single thread,
        so their durations do not overlap and can be summed.
        """
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                covered[s["parent"]] += s["end"] - s["start"]
        return [s["end"] - s["start"] - c for s, c in zip(self.spans, covered)]

    def median_per_count(self, name: str) -> float:
        """Median over the named spans of duration / count, in seconds."""
        return statistics.median(
            (s["end"] - s["start"]) / s["count"] for s in self.spans if s["name"] == name
        )

    def repeat(self, name: str, fn, calls: int, repeats: int = 5, item=None) -> None:
        """Time ``repeats`` spans of ``calls`` back-to-back calls to fn()."""
        for _ in range(repeats):
            with self.span(name, item) as record:
                for _ in range(calls):
                    fn()
                record["count"] = calls

    def self_by_layer(self) -> dict:
        """Summed self time in seconds per layer (the span name's prefix)."""
        out = {}
        for s, t in zip(self.spans, self.self_times()):
            layer = s["name"].split(".")[0]
            out[layer] = out.get(layer, 0.0) + t
        return out

    def write_jsonl(self, path) -> None:
        t0 = self.spans[0]["start"] if self.spans else 0.0
        with open(path, "w") as fh:
            for s, t in zip(self.spans, self.self_times()):
                fh.write(json.dumps({
                    "id": s["id"], "name": s["name"], "parent": s["parent"],
                    "item": s["item"], "start": s["start"] - t0,
                    "end": s["end"] - t0, "self": t, "count": s["count"],
                }) + "\n")


class CountingRhs:
    """Right-hand side wrapper that counts evaluations.

    Passed to the public ``integrate`` in place of the bare closure, so
    nfev is counted at the call boundary.
    """

    def __init__(self, rhs):
        self.rhs = rhs
        self.calls = 0

    def __call__(self, t, y):
        self.calls += 1
        return self.rhs(t, y)

