"""The Observability hub: audit + tracing + metrics for one DSMS.

:class:`Observability` bundles the three optional parts a DSMS runs
with — an :class:`AuditLog`, a :class:`Tracer` and a
:class:`~repro.observability.metrics.MetricsRegistry`.  Each is either
an object or ``None``; the default hub carries none, so instrumented
code paths reduce to ``is None`` checks.  Compose the parts you want
(``Observability(metrics=MetricsRegistry())`` is the cheapest
always-on configuration, ``Observability(tracer=Tracer())`` the
leave-it-on tracing one); :meth:`Observability.in_memory` turns
everything on with bounded in-memory storage.

Security decisions have one store, the audit log, so a hub with a
:class:`Tracer` always carries one: sampling then decides which
*passes* are recorded, never whether a denial is.
"""

from __future__ import annotations

from repro.observability.audit import DEFAULT_CAPACITY, AuditLog
from repro.observability.instruments import EngineInstruments
from repro.observability.metrics import MetricsRegistry
from repro.observability.provenance import Tracer

__all__ = ["Observability"]


class Observability:
    """Audit log + tracer + metrics shared by one DSMS."""

    def __init__(self, *, audit: AuditLog | None = None,
                 tracer: Tracer | None = None,
                 metrics: MetricsRegistry | None = None):
        if not isinstance(tracer, Tracer | None):
            raise TypeError(
                f"tracer must be a Tracer or None, not "
                f"{type(tracer).__name__} (to stream spans to a file: "
                f"Tracer(JsonlTraceSink(path)))")
        if tracer is not None:
            if audit is None:
                audit = AuditLog()
            audit.tracer = tracer
        self.audit = audit
        self.tracer = tracer
        self.metrics = metrics
        self._instruments: EngineInstruments | None = None

    @classmethod
    def in_memory(cls, *, audit_capacity: int = DEFAULT_CAPACITY,
                  trace_capacity: int = 4096) -> "Observability":
        """Bounded in-memory audit log + tracer + metrics registry
        (everything on, every trace sampled)."""
        return cls(audit=AuditLog(audit_capacity),
                   tracer=Tracer(sample=1.0,
                                 recorder_capacity=trace_capacity),
                   metrics=MetricsRegistry())

    @property
    def instruments(self) -> EngineInstruments | None:
        """The engine's canonical instruments (``None`` without a
        registry); built lazily, once, on first access."""
        if self.metrics is None:
            return None
        if self._instruments is None:
            self._instruments = EngineInstruments(self.metrics)
        return self._instruments

    # -- wiring -------------------------------------------------------------
    def bind(self, operator, query: str | None = None) -> None:
        """Point one plan operator at this hub's audit log.

        Operators record through their ``audit`` attribute; ``query``
        attributes events to a specific registered query (shields and
        delivery shields), ``None`` leaves shared operators
        query-anonymous.  The query attribution is kept even without
        an audit log: metric series label by it too.
        """
        if query is not None:
            operator.audit_query = query
        if self.audit is not None:
            operator.audit = self.audit

    def __repr__(self) -> str:
        return (f"Observability(audit={self.audit!r}, "
                f"tracer={self.tracer!r}, "
                f"metrics={self.metrics!r})")
