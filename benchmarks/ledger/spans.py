"""In-memory span recorder for the ledger's own call sites.

A span is ``(name, start_ns, end_ns, parent)`` — ``parent`` is the
index of the enclosing span, ``None`` for a root.  Spans are kept in a
list and written as JSONL when the child ends; nothing here reaches
into ``src/`` (in-engine tracing is a later issue).
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

clock = time.perf_counter_ns

#: Seconds :func:`calibrate` takes on the reference box in its fast
#: state.  End-to-end timings are scaled by ``CAL_REF_S / measured``:
#: the box switches between speed states about 25% apart every second
#: or few, which would otherwise swamp every bound.
CAL_REF_S = 0.0068

_CAL_LINE = ('{"k":"t","sid":"synthetic","tid":5,'
             '"v":{"object_id":5,"x":1.5,"y":2.5},"ts":3.0}')


def calibrate() -> float:
    """Median seconds of five runs of a fixed kernel — how fast this
    machine is right now.

    The kernel decodes and re-encodes a wire-sized JSON line with the
    standard library: C-level parsing, allocation and dict work.  Its
    slowdowns follow those of the workloads more closely than an
    integer loop's did (README, Steadiness), and nothing in ``src/``
    can change it.
    """
    runs = []
    for _ in range(5):
        start = clock()
        out = []
        for i in range(1500):
            record = json.loads(_CAL_LINE)
            record["v"]["x"] = i * 0.5
            out.append(json.dumps(record))
        runs.append(clock() - start)
    return sorted(runs)[2] / 1e9


class SpanRecorder:
    def __init__(self, workload: str):
        self.workload = workload
        self.rows: list = []
        self._open: list[int] = []

    @property
    def current(self) -> int | None:
        return self._open[-1] if self._open else None

    @contextmanager
    def span(self, name: str):
        index = len(self.rows)
        parent = self.current
        self.rows.append(None)
        self._open.append(index)
        start = clock()
        try:
            yield index
        finally:
            end = clock()
            self._open.pop()
            self.rows[index] = (name, start, end, parent)

    def add(self, name: str, start: int, end: int, parent) -> None:
        """Record a span whose clocks the caller already read."""
        self.rows.append((name, start, end, parent))

    def totals(self) -> dict[str, dict]:
        """Per span name: count, busy_s and self_s.

        Self time is a span's duration minus the part its direct
        children cover.
        """
        child_ns = [0] * len(self.rows)
        for _, start, end, parent in self.rows:
            if parent is not None:
                child_ns[parent] += end - start
        out: dict[str, dict] = {}
        for index, (name, start, end, _) in enumerate(self.rows):
            entry = out.setdefault(
                name, {"count": 0, "busy_s": 0.0, "self_s": 0.0})
            entry["count"] += 1
            entry["busy_s"] += (end - start) / 1e9
            entry["self_s"] += (end - start - child_ns[index]) / 1e9
        return out

    def dump_jsonl(self, path: str) -> int:
        with open(path, "w") as fp:
            for index, (name, start, end, parent) in enumerate(self.rows):
                fp.write(json.dumps({
                    "id": index, "name": name, "start_ns": start,
                    "end_ns": end, "parent": parent,
                    "workload": self.workload}))
                fp.write("\n")
        return len(self.rows)
