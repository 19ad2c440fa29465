"""In-memory spans for the traced run.

A span records a name, start, end, its parent span, the workload and a job
id. Spans that name a library layer (``io.*``, ``embedding.*``, ...) are
leaves: the benchmark opens them around one library call each. Container
spans (``setup``, ``pass``, ``job``) group them, and their self time is the
part of the run that no layer span covers.

When tracing is off, ``Tracer.call`` runs the function with no clock reads
and no allocation beyond the call itself.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

CONTAINERS = ("setup", "pass", "job")


class Tracer:
    """Collects spans when enabled; otherwise a pass-through."""

    def __init__(self, workload: str, enabled: bool):
        self.workload = workload
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._job = None

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called name."""
        if not self.enabled:
            return fn(*args, **kwargs)
        with self.span(name):
            return fn(*args, **kwargs)

    @contextmanager
    def span(self, name: str, job=None):
        """Record the enclosed block as a span; yields its record (None when off)."""
        if not self.enabled:
            yield None
            return
        outer_job = self._job
        if job is not None:
            self._job = job
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "workload": self.workload,
            "job": self._job,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()
            self._job = outer_job

    def self_times(self) -> list[float]:
        """Per span: its duration minus the time its direct children cover."""
        own = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return own

    def layer_self_seconds(self) -> dict[str, float]:
        """Self time summed per layer span name (containers excluded)."""
        totals: dict[str, float] = {}
        for s, own in zip(self.spans, self.self_times()):
            if s["name"] not in CONTAINERS:
                totals[s["name"]] = totals.get(s["name"], 0.0) + own
        return totals

    def uncovered_seconds(self) -> float:
        """Time inside passes that no layer span covers."""
        return sum(own for s, own in zip(self.spans, self.self_times())
                   if s["name"] in ("pass", "job"))

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
