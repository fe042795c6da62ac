"""In-memory spans recorded around the benchmark's own calls into each layer.

A span holds a name, start, end, parent and run id.  Spans stay in memory
while the run measures and are written out once, when it ends.  A span's
self time is its duration minus the durations of its direct children.
"""

import contextlib
import json
import time


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._open[-1] if self._open else None,
            "run": self.run_id,
        }
        self.spans.append(rec)
        self._open.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def self_times(self) -> list[float]:
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        return [s["end"] - s["start"] - c for s, c in zip(self.spans, child_time)]

    def write(self, path: str) -> None:
        rows = [dict(s, self_s=st) for s, st in zip(self.spans, self.self_times())]
        with open(path, "w") as f:
            json.dump({"run": self.run_id, "spans": rows}, f)


class NullTracer:
    """Tracing off: the same call sites, no records."""

    def span(self, name: str):
        return contextlib.nullcontext()


def span_cost_s(samples: int = 2000) -> float:
    """Measured cost of opening and closing one span, in seconds."""
    t = Tracer("cost")
    t0 = time.perf_counter()
    for _ in range(samples):
        with t.span("x"):
            pass
    return (time.perf_counter() - t0) / samples
