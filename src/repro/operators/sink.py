"""Output sink: the plan leaf collecting a query's results.

Sinks are where results *emerge*, so they are also where end-to-end
tuple latency is measured: with metrics bound, each delivered tuple
closes the span the executor (or streaming session) opened when the
source element entered the plan — the
``repro_tuple_latency_seconds`` histogram.
"""

from __future__ import annotations

import time

from repro.core.punctuation import SecurityPunctuation
from repro.operators.base import UnaryOperator
from repro.stream.batch import TupleBatch
from repro.stream.element import StreamElement
from repro.stream.tuples import DataTuple

__all__ = ["CollectingSink"]


class CollectingSink(UnaryOperator):
    """Stores everything it receives; used by tests and examples.

    A streaming session *watches* its sinks: a watched sink puts its
    key on the session's pending list when an element or run reaches
    it and sets ``_pending`` to ``None``; it stays quiet until the
    session, having drained it, restores ``_pending``.  Under ``run()``
    nothing watches a sink.
    """

    def __init__(self, name: str | None = None):
        super().__init__(name)
        self.elements: list[StreamElement] = []
        self._m_e2e = None
        #: The watcher's pending list while armed, else ``None``.
        self._pending: list | None = None
        self._key = None

    def bind_metrics(self, instruments) -> None:
        super().bind_metrics(instruments)
        self._instruments = instruments
        query = self.name.removeprefix("sink:")
        self._m_e2e = instruments.tuple_latency.labels(query)

    def _observe_emit(self) -> None:
        """One latency observation for the element(s) just emitted."""
        wall = self._instruments.ingest_wall
        if wall is not None:
            self._m_e2e.observe(time.perf_counter() - wall)

    def watch(self, pending: list, key) -> None:
        """Put ``key`` on ``pending`` when the next element arrives."""
        self._pending = pending
        self._key = key

    def _process(self, element: StreamElement,
                 port: int) -> list[StreamElement]:
        self.elements.append(element)
        if self._pending is not None:
            self._pending.append(self._key)
            self._pending = None
        if (self._m_e2e is not None
                and not isinstance(element, SecurityPunctuation)):
            self._observe_emit()
        return []

    def _process_batch(self, batch: TupleBatch,
                       port: int) -> list[StreamElement]:
        # Batches are unwrapped at the sink: collected results are
        # identical with and without batched execution.
        self.elements.extend(batch.tuples)
        if self._pending is not None:
            self._pending.append(self._key)
            self._pending = None
        if self._m_e2e is not None:
            # One observation per run (its tuples share one ingest).
            self._observe_emit()
        return []

    def tuples(self) -> list[DataTuple]:
        return [e for e in self.elements if isinstance(e, DataTuple)]

    def sps(self) -> list[SecurityPunctuation]:
        return [e for e in self.elements
                if isinstance(e, SecurityPunctuation)]

    def clear(self) -> None:
        self.elements.clear()

    def state_size(self) -> int:
        return len(self.elements)
