"""The tracer, and ``why`` as a reading of the audit log.

:class:`Tracer` is the only producer of
:class:`~repro.observability.trace.SpanEvent` records; "tracing off" is
``None`` wherever a tracer is held.

* Every element the engine ingests opens a **trace** — a root span with
  a fresh ``trace_id`` — and each operator that touches it opens a
  child span (``parent_id`` chains back to the root), with durations
  measured on the monotonic clock.
* **Head-based sampling** keeps the cost low enough to leave on: the
  sampling verdict is a pure function of the trace id (a multiplicative
  hash against a threshold), so identical runs sample identical traces.
  It is the one sampling rule: per-element and per-sp-batch spans are
  kept while the current trace is sampled; once-per-run and
  once-per-session control points are always kept.
* Every kept span lands in one bounded ring, read back by
  :meth:`Tracer.events` and :meth:`Tracer.dump_jsonl`.  A
  :class:`~repro.observability.trace.JsonlTraceSink` handed to the
  tracer streams the same spans to a file.

Security decisions are **not** spans.  A shield or filter verdict is
recorded once, in the hub's :class:`~repro.observability.audit.AuditLog`
(denials always; passes while the trace is sampled, stamped with its
``trace_id``), and :func:`reconstruct_why` renders
``audit.explain(tid)`` — governing sp, resolved policy, role match,
delivery — with no second copy in the span ring.  A run a stream's
entry dropped (``entry.drop``) is rendered as the reason for every
query reading the stream.  What a decision cost is read from the ring:
the ``op.process`` spans of its sampled trace.
"""

from __future__ import annotations

from collections import deque
from time import perf_counter_ns, time
from typing import TYPE_CHECKING

from .trace import JsonlTraceSink, SpanEvent

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from .audit import AuditEvent, AuditLog

__all__ = ["DEFAULT_SAMPLE_RATE", "Tracer", "WhyReport", "reconstruct_why"]

#: Default head-sampling rate of a :class:`Tracer`: roughly
#: one trace in 64 carries full operator spans and records its pass
#: verdicts; denials are audit records and never sampled away.
DEFAULT_SAMPLE_RATE = 1.0 / 64.0

# Knuth's multiplicative hash constant (2^32 / phi). Sampling uses
# hash(trace_id) < threshold so the verdict is deterministic per id
# and uniformly distributed across ids.
_HASH = 2654435761
_MASK = 0xFFFFFFFF


def _sampled(trace_id: int, threshold: int) -> bool:
    return (trace_id * _HASH) & _MASK < threshold


class Tracer:
    """Samples traces, times operators, keeps the recent spans.

    There is one sampling rule, the head-sampling verdict of the
    current trace (:attr:`active`): :meth:`begin` takes it from the
    trace id, and :meth:`op_span` and the SP Analyzer's per-batch span
    are only emitted while it holds.  What is not sampled is always
    kept: :meth:`span`, the once-per-run and once-per-session control
    points.

    * :meth:`begin` — on each ingested element: allocate a trace id,
      take the sampling decision, open the root span if sampled.
    * :meth:`op_span` — child span per operator invocation (only on
      sampled traces — callers check :attr:`active`).
    * :meth:`span` — flat control span (no causal ids).

    Every kept span is appended to one ring of ``recorder_capacity``
    plain rows, read back as :class:`SpanEvent` records (:meth:`events`,
    :meth:`dump_jsonl`) and, when one is configured, written to the
    :attr:`sink`.
    """

    def __init__(self, sink: JsonlTraceSink | None = None, *,
                 sample: float = DEFAULT_SAMPLE_RATE,
                 recorder_capacity: int = 4096):
        if not 0.0 <= sample <= 1.0:
            raise ValueError("sample rate must be within [0, 1]")
        if recorder_capacity <= 0:
            raise ValueError("recorder_capacity must be positive")
        self.sink = sink
        self.sample = sample
        self._threshold = int(sample * 2**32)
        #: The ring, rows in :class:`SpanEvent` field order.
        self._rows: deque[tuple] = deque(maxlen=recorder_capacity)
        self._trace_seq = 0
        self._span_seq = 0
        self._trace_id = 0
        self._root_id = 0
        #: True while the current trace is head-sampled: operator
        #: spans and (in the audit log) pass records are only worth
        #: building then.  Before the first :meth:`begin` it is the
        #: verdict of trace id 0 (sampled at any positive rate), which
        #: covers the sp-batch analyzed ahead of a run's first element.
        self.active = _sampled(0, self._threshold)
        self.traces = 0
        self.sampled_traces = 0

    # ------------------------------------------------------------------
    # emission

    def _keep(self, name: str, attrs: dict,
              trace_id: "int | None" = None,
              span_id: "int | None" = None,
              parent_id: "int | None" = None) -> None:
        """Keep one span as a plain row: a :class:`SpanEvent` is built
        only where spans are read (:meth:`events`, :meth:`dump_jsonl`,
        the :attr:`sink`), never per element."""
        row = (name, time(), attrs, perf_counter_ns(), trace_id, span_id,
               parent_id)
        self._rows.append(row)
        if self.sink is not None:
            self.sink.emit(SpanEvent(*row))

    def span(self, name: str, **attrs) -> None:
        """Flat control span (no causal ids), always kept.

        For control points that occur once per run or per session
        (``executor.run.*``, ``session.open``); anything
        per element or per sp-batch is gated on :attr:`active` by its
        caller instead.
        """
        self._keep(name, attrs)

    def close(self) -> None:
        if self.sink is not None:
            self.sink.close()

    # ------------------------------------------------------------------
    # causal API

    def begin(self, kind: str, *, stream: str | None = None,
              ts: int | None = None, size: int = 1,
              name: str = "ingest") -> bool:
        """Open a trace for one ingested element; returns sampled?"""
        self._trace_seq = tid = self._trace_seq + 1
        self.traces += 1
        self._trace_id = tid
        # _sampled(), inlined: begin() runs once per pushed element,
        # and at the default rate 63/64 calls end right here.
        if (tid * _HASH) & _MASK >= self._threshold:
            self.active = False
            self._root_id = 0
            return False
        self.sampled_traces += 1
        self.active = True
        self._span_seq = sid = self._span_seq + 1
        self._root_id = sid
        attrs: dict = {"kind": kind, "size": size}
        if stream is not None:
            attrs["stream"] = stream
        if ts is not None:
            attrs["ts"] = ts
        self._keep(name, attrs, trace_id=tid, span_id=sid)
        return True

    @property
    def trace_id(self) -> int:
        """Id of the current (most recently begun) trace."""
        return self._trace_id

    def trace_ref(self) -> int | None:
        """Current trace id if there is one and it is sampled."""
        return (self._trace_id or None) if self.active else None

    def op_span(self, name: str, parent_id: int, dur_ns: int,
                **attrs) -> int:
        """Emit a completed child span; returns its span id.

        Callers only invoke this on sampled traces (:attr:`active`),
        passing the duration they measured on the monotonic clock.
        """
        self._span_seq = sid = self._span_seq + 1
        attrs["dur_ns"] = dur_ns
        self._keep(name, attrs, trace_id=self._trace_id,
                   span_id=sid, parent_id=parent_id or None)
        return sid

    # ------------------------------------------------------------------
    # the ring

    def events(self, name: str | None = None) -> list[SpanEvent]:
        """The kept spans, oldest first (optionally one name only)."""
        return [SpanEvent(*row) for row in self._rows
                if name is None or row[0] == name]

    def dump_jsonl(self, path: str) -> int:
        """Write the ring to ``path`` as JSONL; returns the number of
        spans written."""
        with JsonlTraceSink(path) as out:
            for row in self._rows:
                out.emit(SpanEvent(*row))
        return len(self._rows)

    def clear(self) -> None:
        self._rows.clear()

    def __len__(self) -> int:
        return len(self._rows)

    def __repr__(self) -> str:
        return (f"Tracer(sample={self.sample}, spans={len(self._rows)}, "
                f"traces={self.traces})")


# ----------------------------------------------------------------------
# why-reconstruction


#: Kind suffixes that deny the tuple (``shield.drop``, ``entry.drop``,
#: ``join.deny``).
_DENIED = (".drop", ".deny")


class WhyReport:
    """The held decisions that touched one tuple id, in ``seq`` order,
    and the ``op.process`` spans of each sampled trace they name (what
    the decisions cost), by trace id; a trace the span ring no longer
    holds whole has no entry."""

    def __init__(self, tid: object, decisions: "list[AuditEvent]",
                 hops: "dict[int, list[SpanEvent]]"):
        self.tid = tid
        self.decisions = decisions
        self.hops = hops

    @property
    def delivered_queries(self) -> list[str]:
        """Queries whose outlet — the shield that hands the query its
        results — passed the tuple."""
        return list(dict.fromkeys(
            event.query for event in self.decisions
            if event.detail.get("outlet") and event.kind.endswith(".pass")))

    @property
    def denials(self) -> "list[AuditEvent]":
        return [e for e in self.decisions if e.kind.endswith(_DENIED)]

    def found(self) -> bool:
        return bool(self.decisions)

    def render_text(self) -> str:
        lines = [f"tuple {self.tid}:"]
        costed: set[int] = set()
        for event in self.decisions:
            verdict = event.kind.rpartition(".")[2]
            ref = (f"  trace {event.trace_id}"
                   if event.trace_id is not None else "")
            lines.append(f"  {event.kind} at {event.operator}: {verdict}"
                         f"  {event.sid}:{event.tid}@{event.ts}{ref}")
            if event.sp:
                lines.append(f"    governed by sp: {event.sp}")
            elif event.kind.endswith(_DENIED):
                lines.append("    no applicable sp (denial-by-default)")
            if event.policy:
                lines.append(f"    policy roles: {', '.join(event.policy)}")
            if event.predicate:
                lines.append(f"    role predicate: "
                             f"{', '.join(event.predicate)}")
            queries = event.detail.get("queries")
            if queries:
                # An entry drop: no query reading the stream may see it.
                lines.append(f"    denied to every query reading "
                             f"{event.sid}: {', '.join(queries)}")
            if event.trace_id is None:
                lines.append("    cost: not sampled")
            elif event.trace_id not in costed:
                # A trace's hops are listed once, under its first decision.
                costed.add(event.trace_id)
                hops = self.hops.get(event.trace_id)
                if hops is None:
                    lines.append("    cost: evicted from the span ring")
                elif not hops:
                    lines.append("    cost: no operator hop ran")
                for hop in hops or ():
                    lines.append(f"    cost: {hop.attrs['operator']}, "
                                 f"{hop.attrs['rows']} row(s), "
                                 f"{hop.attrs['dur_ns'] / 1e3:.1f} µs")
        delivered = self.delivered_queries
        if delivered:
            lines.append(f"  delivered to: {', '.join(delivered)}")
        elif self.denials:
            lines.append("  not delivered (denied)")
        if not self.found():
            lines.append("  no audit records found")
        return "\n".join(lines)


def reconstruct_why(tid: object, audit: "AuditLog") -> WhyReport:
    """The decision chain of tuple ``tid``: ``audit.explain(tid)`` and
    the ``op.process`` spans its sampled traces left in the ring of
    ``audit.tracer``, ready to render.

    Denials are always there (until evicted); pass verdicts — and with
    them "delivered to" — and costs for the tuples whose trace was
    head-sampled.
    """
    decisions = audit.explain(tid)
    hops: dict[int, list[SpanEvent]] = {}
    if audit.tracer is not None:
        spans = audit.tracer.events()
        # A trace's root span is its first, and the ring evicts oldest
        # first: a trace whose root is still there is whole.
        roots = {span.trace_id for span in spans if span.parent_id is None}
        hops = {event.trace_id: [] for event in decisions
                if event.trace_id is not None and event.trace_id in roots}
        for span in spans:
            if span.name == "op.process" and span.trace_id in hops:
                hops[span.trace_id].append(span)
    return WhyReport(tid, decisions, hops)
