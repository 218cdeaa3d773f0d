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
callback is given).  ``push``, ``push_many`` and ``close`` return the
new results of only the queries that got any, one fresh list each, in
registration order — a push that reached no sink returns ``{}``.  A
session watches its sinks (:meth:`CollectingSink.watch`): a sink an
element reaches puts its query on the session's pending list, and a
push drains that list, so its cost follows the queries it reached, not
the queries registered::

    session = dsms.open_session()
    session.subscribe("q1", lambda el: print("q1 got", el))
    session.push("HeartRate", sp)
    session.push("HeartRate", reading)
    session.close()
"""

from __future__ import annotations

import math
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
        # Per query, by registration index (its key): the sink, the
        # subscriber and the cursor of what was drained.
        self._watched = list(self._sinks.items())
        self._keys = {name: key for key, name in enumerate(self._sinks)}
        self._callbacks: list[ResultCallback | None] = [None] * len(
            self._watched)
        self._consumed = [0] * len(self._watched)
        #: Keys of the sinks that grew since they were last drained.
        self._pending: list[int] = []
        for key, (_, sink) in enumerate(self._watched):
            sink.watch(self._pending, key)
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
        key = self._keys.get(query_name)
        if key is None:
            raise QueryError(f"unknown query: {query_name!r}")
        self._callbacks[key] = callback
        self._drain(key)

    # -- pushing ---------------------------------------------------------------
    def push(self, stream_id: str,
             element: StreamElement) -> dict[str, list[StreamElement]]:
        """Feed one element; returns the new results of the queries
        that got any (``{}`` when it reached no sink).

        Elements of one stream must arrive in timestamp order (a NaN
        timestamp is in no order, so it is refused).  The
        element goes to the stream's entry gate, which holds an
        sp-batch and runs the DSMS's SP Analyzer on it when its first
        tuple — or an sp with a different timestamp — arrives.
        """
        if self._closed:
            raise StreamError("session is closed")
        if stream_id not in self._dsms.catalog:
            raise StreamError(f"unknown stream: {stream_id!r}")
        last = self._last_ts.get(stream_id, -math.inf)
        if not element.ts >= last:
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
            instruments.ingest_wall = time.perf_counter()
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
        """Push a sequence of elements; returns the accumulated results
        of the queries that got any, in registration order."""
        out: dict[str, list[StreamElement]] = {}
        for element in elements:
            for name, items in self.push(stream_id, element).items():
                got = out.get(name)
                if got is None:
                    out[name] = items
                else:
                    got.extend(items)
        return {name: out[name]
                for name in sorted(out, key=self._keys.__getitem__)}

    # -- result delivery ----------------------------------------------------
    def _collect_new(self) -> dict[str, list[StreamElement]]:
        # Only the sinks on the pending list grew; each is drained in
        # registration order and watched again.  A raising callback
        # leaves its query and the ones after it pending.
        pending = self._pending
        if not pending:
            return {}
        if len(pending) > 1:
            pending.sort()
        out = {}
        drained = 0
        try:
            for key in pending:
                items = self._drain(key)
                drained += 1
                name, sink = self._watched[key]
                sink._pending = pending  # noqa: SLF001 - watch it again
                if items:
                    out[name] = items
        finally:
            del pending[:drained]
        return out

    def _drain(self, key: int) -> list[StreamElement]:
        elements = self._watched[key][1].elements
        consumed = self._consumed
        start = consumed[key]
        callback = self._callbacks[key]
        if callback is None:
            consumed[key] = len(elements)
        else:
            # The cursor moves one element at a time: an element whose
            # callback raised was delivered (at most once), the rest of
            # the slice is delivered by the next push or close.
            while (at := consumed[key]) < len(elements):
                consumed[key] = at + 1
                callback(elements[at])
        return elements[start:consumed[key]]

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
        """Close trailing sp-batches, flush operator state; returns the
        final results of the queries that got any (``{}`` once
        closed)."""
        if self._closed:
            return {}
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
