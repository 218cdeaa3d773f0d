"""Online streaming sessions: push elements in, get results out.

:meth:`~repro.engine.dsms.DSMS.run` executes registered queries over
pre-registered finite sources.  A :class:`StreamingSession` instead
keeps a compiled plan live and lets the caller push stream elements
one at a time — the shape of a real deployment, and the path on which
the paper's "speed of enforcement" advantage is visible: a policy
change takes effect for the very next pushed tuple.  A pushed element
is a run of one: it enters operators through ``process()``, the same
entry ``run()`` uses for a segment of a single tuple, which makes a
session pushed element by element the reference ``run()``'s
segment-batched results are checked against (the equivalence suite
and the differential oracle's ``session/*`` configurations).

Results are delivered through per-query callbacks (or collected, if no
callback is given)::

    session = dsms.open_session()
    session.subscribe("q1", lambda el: print("q1 got", el))
    session.push("HeartRate", sp)
    session.push("HeartRate", reading)
    session.close()
"""

from __future__ import annotations

import time
from typing import Callable

from repro.core.punctuation import SecurityPunctuation
from repro.engine.executor import ExecutionReport, Executor
from repro.errors import QueryError, StreamError
from repro.stream.element import StreamElement
from repro.stream.tuples import DataTuple

__all__ = ["StreamingSession"]

ResultCallback = Callable[[StreamElement], None]


class StreamingSession:
    """A live plan accepting pushed elements.

    Created via :meth:`repro.engine.dsms.DSMS.open_session`; not
    instantiated directly.
    """

    def __init__(self, dsms):
        self._dsms = dsms
        self._plan, self._sinks = dsms.build_plan()
        self._tracer = dsms.observability.tracer
        self._instruments = dsms.observability.instruments
        # A push hands over one element, so there is no run to cut:
        # bare elements go straight to ``Executor.feed``.
        self._executor = Executor(self._plan, tracer=self._tracer,
                                  instruments=self._instruments)
        self._callbacks: dict[str, ResultCallback] = {}
        self._consumed: dict[str, int] = {name: 0 for name in self._sinks}
        #: ``(query, its sink's element list)`` — what a push reads back.
        self._results = [(name, sink.elements)
                         for name, sink in self._sinks.items()]
        self._last_ts: dict[str, float] = {}
        self._closed = False
        self.elements_pushed = 0
        self._sps_pushed = 0
        if self._tracer is not None:
            self._tracer.span("session.open",
                              queries=sorted(self._sinks),
                              operators=len(self._plan.nodes))

    @property
    def audit(self):
        """The owning DSMS's audit log (``None`` when disabled)."""
        return self._dsms.observability.audit

    # -- subscriptions ------------------------------------------------------
    def subscribe(self, query_name: str, callback: ResultCallback) -> None:
        """Deliver each new result element of ``query_name`` to
        ``callback`` (invoked synchronously during :meth:`push`)."""
        if query_name not in self._sinks:
            raise QueryError(f"unknown query: {query_name!r}")
        self._callbacks[query_name] = callback
        self._drain(query_name)

    # -- pushing ---------------------------------------------------------------
    def push(self, stream_id: str,
             element: StreamElement) -> dict[str, list[StreamElement]]:
        """Feed one element; returns the new results per query.

        Elements of one stream must arrive in timestamp order.  The
        element goes to the stream's entry gate, which holds an
        sp-batch and runs the DSMS's SP Analyzer on it when its first
        tuple — or an sp with a different timestamp — arrives.
        """
        if self._closed:
            raise StreamError("session is closed")
        if stream_id not in self._dsms.catalog:
            raise StreamError(f"unknown stream: {stream_id!r}")
        last = self._last_ts.get(stream_id)
        if last is not None and element.ts < last:
            raise StreamError(
                f"out-of-order push on {stream_id!r}: ts {element.ts} "
                f"after {last} (use a ReorderBuffer upstream)")
        self._last_ts[stream_id] = element.ts
        self.elements_pushed += 1
        is_sp = isinstance(element, SecurityPunctuation)
        if is_sp:
            self._sps_pushed += 1
        instruments = self._instruments
        if instruments is not None:
            # Push time is the ingest clock: results delivered during
            # this push measure their end-to-end latency against it.
            instruments.mark_ingest(time.perf_counter())
            if is_sp:
                instruments.sps_in.inc()
            else:
                instruments.tuples_in.inc()
        if self._tracer is not None:
            # Each push opens its own trace (the session is the ingest
            # point); the root span doubles as the push event.
            self._tracer.begin("sp" if is_sp else "tuple",
                               stream=stream_id, ts=element.ts,
                               name="session.push")
        self._executor.feed(stream_id, element)
        return self._collect_new()

    def push_many(self, stream_id: str, elements) -> dict[str, list]:
        """Push a sequence of elements; returns accumulated results."""
        out: dict[str, list[StreamElement]] = {name: []
                                               for name in self._sinks}
        for element in elements:
            for name, items in self.push(stream_id, element).items():
                out[name].extend(items)
        return out

    # -- result delivery ----------------------------------------------------
    def _collect_new(self) -> dict[str, list[StreamElement]]:
        # Only a sink that grew is drained; each query gets a fresh list.
        consumed = self._consumed
        out = {}
        for name, elements in self._results:
            out[name] = (self._drain(name)
                         if len(elements) != consumed[name] else [])
        return out

    def _drain(self, name: str) -> list[StreamElement]:
        elements = self._sinks[name].elements
        consumed = self._consumed
        start = consumed[name]
        callback = self._callbacks.get(name)
        if callback is None:
            consumed[name] = len(elements)
        else:
            # The cursor moves one element at a time: an element whose
            # callback raised was delivered (at most once), the rest of
            # the slice is delivered by the next push or close.
            while (at := consumed[name]) < len(elements):
                consumed[name] = at + 1
                callback(elements[at])
        return elements[start:consumed[name]]

    def results(self, query_name: str) -> list[DataTuple]:
        """All data tuples delivered to a query so far."""
        if query_name not in self._sinks:
            raise QueryError(f"unknown query: {query_name!r}")
        return [e for e in self._sinks[query_name].elements
                if isinstance(e, DataTuple)]

    def report(self) -> ExecutionReport:
        """Point-in-time execution report over the live plan.

        Unlike :meth:`~repro.engine.dsms.DSMS.run`'s report this can be
        taken mid-session: counts and stage metrics reflect everything
        pushed so far.  The element counts are of pushed elements, so
        they equal a ``run()`` report's over the same elements field by
        field.
        """
        report = ExecutionReport()
        report.elements_in = self.elements_pushed
        report.sps_in = self._sps_pushed
        report.tuples_in = self.elements_pushed - self._sps_pushed
        report.stages = self._executor.stage_stats()
        report.entry_drops = self._executor.entry_drops()
        return report

    # -- lifecycle -------------------------------------------------------------
    def close(self) -> dict[str, list[StreamElement]]:
        """Close trailing sp-batches, flush operator state; final
        results."""
        if self._closed:
            return {name: [] for name in self._sinks}
        self._executor._flush()  # noqa: SLF001 - same package
        self._closed = True
        self._dsms._sessions.discard(self)  # noqa: SLF001 - same package
        if self._tracer is not None:
            self._tracer.span("session.close",
                              elements_pushed=self.elements_pushed)
        return self._collect_new()

    def __enter__(self) -> "StreamingSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
