"""Runtime observability: audit trail, operator metrics, tracing.

The paper's enforcement mechanisms are deliberately *silent*: a
Security Shield drops unauthorized tuples, the SAJoin skips
incompatible probes (Lemma 5.1), the SP Analyzer intersects provider
sps with server policies — and none of it leaves a runtime trace.
Production access-control systems treat the decision log as a
first-class output; this package adds one without touching enforcement
semantics:

* :class:`AuditLog` — a bounded, structured record of every security
  decision (shield segment verdicts and per-tuple drops, analyzer
  server-policy refinements, SAJoin policy rejections and skip-rule
  hits, delivery-shield rejections, and — for head-sampled traces —
  shield/filter passes, a query's outlet marking its delivered
  tuples), queryable per query and exportable as JSONL.
  It is the only place a decision is stored: :func:`reconstruct_why`
  (``repro why``) renders ``AuditLog.explain``, with the ``op.process``
  spans of each sampled trace as the cost of its decisions.
* :class:`StageStats` — per-operator metrics (elements in/out, drops,
  processing-time EWMA, queue depth) snapshotted from every plan
  operator and aggregated into the
  :class:`~repro.engine.executor.ExecutionReport`.
* :class:`Tracer` — the one producer of :class:`SpanEvent` records:
  head-sampled per-element traces with per-operator child spans plus
  the control points of the executor, streaming sessions and the SP
  Analyzer, kept in a bounded ring and optionally streamed to a
  :class:`JsonlTraceSink`; "tracing off" is ``None``.
* :class:`MetricsRegistry` — Prometheus-style counters, gauges and
  log-bucketed latency histograms (:class:`EngineInstruments` declares
  the engine's canonical families: per-operator latency, end-to-end
  tuple latency, policy-propagation lag, shield verdicts, Lemma 5.1
  skip rates, …),
  exported as Prometheus text or JSON (:func:`render_prometheus`,
  :func:`render_json`; ``repro metrics``).

Everything is off by default — a :class:`~repro.engine.dsms.DSMS`
built without an explicit :class:`Observability` pays only a handful
of ``is None`` checks.  Enable with::

    from repro import DSMS, Observability

    dsms = DSMS(observability=Observability.in_memory())
    ...
    dsms.run()
    for event in dsms.audit.explain(tuple_id):
        print(event)
"""

from repro.observability.audit import AuditEvent, AuditLog
from repro.observability.export import (parse_prometheus, render_json,
                                        render_prometheus)
from repro.observability.hub import Observability
from repro.observability.instruments import EngineInstruments
from repro.observability.metrics import (Counter, Gauge, Histogram,
                                         MetricFamily, MetricsRegistry,
                                         log_buckets)
from repro.observability.provenance import (DEFAULT_SAMPLE_RATE, Tracer,
                                            WhyReport, reconstruct_why)
from repro.observability.stats import StageStats, aggregate_stages
from repro.observability.trace import JsonlTraceSink, SpanEvent

__all__ = [
    "AuditEvent",
    "AuditLog",
    "Counter",
    "DEFAULT_SAMPLE_RATE",
    "EngineInstruments",
    "Gauge",
    "Histogram",
    "JsonlTraceSink",
    "MetricFamily",
    "MetricsRegistry",
    "Observability",
    "SpanEvent",
    "StageStats",
    "Tracer",
    "WhyReport",
    "aggregate_stages",
    "log_buckets",
    "parse_prometheus",
    "reconstruct_why",
    "render_json",
    "render_prometheus",
]
