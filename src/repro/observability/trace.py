"""Span records and the JSONL file sink.

A :class:`SpanEvent` is one trace record.  Spans have one producer,
:class:`~repro.observability.provenance.Tracer`, which keeps the most
recent ones in its own bounded ring; a :class:`JsonlTraceSink` handed
to the tracer additionally streams every span to a file.

Every event carries *two* timestamps: ``wall`` (``time.time()``, for
correlation with external logs) and ``mono`` (``time.perf_counter_ns()``,
monotonic — durations derived from it can never go negative under a
wall-clock adjustment).  Security decisions are not spans: they
live in the :class:`~repro.observability.audit.AuditLog`.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import IO

__all__ = ["SpanEvent", "JsonlTraceSink"]


@dataclass(frozen=True)
class SpanEvent:
    """One trace record: a named point (or span edge) with attributes."""

    name: str
    #: Wall-clock time of emission (``time.time()``).
    wall: float
    attrs: dict = field(default_factory=dict)
    #: Monotonic emission time (``time.perf_counter_ns()``); ``None``
    #: only for events constructed by hand without a clock.
    mono: int | None = None
    #: Causal trace context (see ``repro.observability.provenance``);
    #: ``None`` on flat control-point events.
    trace_id: int | None = None
    span_id: int | None = None
    parent_id: int | None = None

    def to_dict(self) -> dict:
        record = {"name": self.name, "wall": self.wall}
        if self.mono is not None:
            record["mono"] = self.mono
        if self.trace_id is not None:
            record["trace_id"] = self.trace_id
        if self.span_id is not None:
            record["span_id"] = self.span_id
        if self.parent_id is not None:
            record["parent_id"] = self.parent_id
        record.update(self.attrs)
        return record

    def __str__(self) -> str:
        parts = " ".join(f"{k}={v}" for k, v in self.attrs.items())
        prefix = (f"[{self.trace_id}:{self.span_id}] "
                  if self.trace_id is not None else "")
        return f"{prefix}{self.name} {parts}".rstrip()


class JsonlTraceSink:
    """Streams every event to a JSONL file (or open file object).

    ``max_bytes`` bounds the trace file of a long (or crashing) run:
    when the current file would exceed the cap, it is rotated to
    ``<path>.1`` (replacing any previous rotation) and a fresh file is
    started — at most ``2 * max_bytes`` ever sit on disk.  Rotation
    applies only to path-owned sinks; caller-owned file objects are
    never rotated (or closed), only flushed.
    """

    def __init__(self, target: "str | IO[str]", *,
                 max_bytes: int | None = None):
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError("max_bytes must be positive")
        if isinstance(target, str):
            self._path: str | None = target
            self._fp: IO[str] = open(target, "w", encoding="utf-8")
            self._owned = True
        else:
            self._path = None
            self._fp = target
            self._owned = False
        self.max_bytes = max_bytes
        self._written = 0
        self.emitted = 0
        #: Completed rotations (0 until ``max_bytes`` first overflows).
        self.rotations = 0
        self.closed = False

    def emit(self, event: SpanEvent) -> None:
        if self.closed:
            return
        line = json.dumps(event.to_dict(), default=str,
                          separators=(",", ":"))
        if (self.max_bytes is not None and self._owned
                and self._written
                and self._written + len(line) + 1 > self.max_bytes):
            self._rotate()
        self._fp.write(line)
        self._fp.write("\n")
        self._written += len(line) + 1
        self.emitted += 1

    def _rotate(self) -> None:
        assert self._path is not None
        self._fp.close()
        os.replace(self._path, self._path + ".1")
        self._fp = open(self._path, "w", encoding="utf-8")
        self._written = 0
        self.rotations += 1

    def close(self) -> None:
        """Flush (and, for path-owned sinks, close) the trace file.

        Called from ``__exit__`` on both the clean and the error path,
        so a crashing traced run never loses buffered events.  A
        closed sink ignores :meth:`emit`, so late emitters — a health
        alert firing during shutdown, a tracer outliving its sink —
        never hit a closed file.
        """
        self.closed = True
        if self._fp.closed:
            return
        self._fp.flush()
        if self._owned:
            self._fp.close()

    def __enter__(self) -> "JsonlTraceSink":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
