"""In-memory spans and counts for traced benchmark runs.

A span marks one call the benchmark makes into a uastkit layer: its name,
its start and end on the perf_counter clock, its own id, the id of the span
open around it, and the operation it belongs to (one train step, predict
call, ingest pass or probe pass).  Counts are recorded at the same
boundaries.  Everything stays in memory and is written out once, after the
timed work, so writing never lands inside a timed region.

Untraced runs, and the untraced half of a traced run's loop, use NULL,
whose spans are a shared no-op context.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path


class Tracer:
    enabled = True

    def __init__(self):
        self.spans: list[list] = []  # [id, parent, op, name, start, end]
        self.counts: list[tuple[int, str, float]] = []  # (op, name, value)
        self.op = 0
        self._open: list[int] = []

    def begin_op(self) -> None:
        """Start a new operation; later spans and counts belong to it."""
        self.op += 1

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        record = [len(self.spans), parent, self.op, name, time.perf_counter(),
                  None]
        self.spans.append(record)
        self._open.append(record[0])
        try:
            yield
        finally:
            record[5] = time.perf_counter()
            self._open.pop()

    def count(self, name: str, value: float) -> None:
        self.counts.append((self.op, name, float(value)))

    def op_seconds(self, name: str) -> list[float]:
        """Per-operation total seconds spent in spans with this name."""
        totals: dict[int, float] = {}
        for _, _, op, span_name, start, end in self.spans:
            if span_name == name:
                totals[op] = totals.get(op, 0.0) + (end - start)
        return list(totals.values())

    def median_s(self, name: str) -> float:
        """Median over operations of the time spent in `name` spans."""
        values = self.op_seconds(name)
        if not values:
            raise KeyError(f"no spans named {name!r}")
        return statistics.median(values)

    def median_count(self, name: str) -> float:
        values = [v for _, n, v in self.counts if n == name]
        if not values:
            raise KeyError(f"no counts named {name!r}")
        return statistics.median(values)

    def last_count(self, name: str) -> float:
        values = [v for _, n, v in self.counts if n == name]
        if not values:
            raise KeyError(f"no counts named {name!r}")
        return values[-1]

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, op, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "op": op,
                                     "name": name, "start": start,
                                     "end": end}) + "\n")
            for op, name, value in self.counts:
                fh.write(json.dumps({"op": op, "count": name,
                                     "value": value}) + "\n")


class _NullTracer:
    enabled = False
    _noop = nullcontext()

    def begin_op(self) -> None:
        pass

    def span(self, name: str):
        return self._noop

    def count(self, name: str, value: float) -> None:
        pass


NULL = _NullTracer()
