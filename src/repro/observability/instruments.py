"""The engine's canonical instruments on one metrics registry.

:class:`EngineInstruments` is the single place where the engine's
metric names, kinds, labels and bucket layouts are declared — the
catalog ``docs/OBSERVABILITY.md`` documents and the exporters expose.
The hub builds one lazily when a
:class:`~repro.observability.metrics.MetricsRegistry` is attached;
operators pre-bind the children they record into at
:meth:`~repro.operators.base.Operator.bind_metrics` time.

It also carries the *ingest clock*: the executor (or a streaming
session) stamps ``ingest_wall`` when a source element enters the
plan, and sinks read it when results emerge — the end-to-end tuple
latency of the paper's "speed of enforcement" claim, measured rather
than asserted.
"""

from __future__ import annotations

from repro.observability.metrics import (LATENCY_BUCKETS, SIZE_BUCKETS,
                                         MetricsRegistry)

__all__ = ["EngineInstruments"]


class EngineInstruments:
    """Pre-declared engine metric families plus the ingest clock."""

    __slots__ = ("registry", "operator_latency", "tuple_latency",
                 "propagation", "segment_size", "sp_batch_size",
                 "shield_tuples", "denial_drops", "spindex_entries",
                 "queue_depth", "elements", "runs", "run_seconds",
                 "tuples_in", "sps_in", "ingest_wall")

    def __init__(self, registry: MetricsRegistry):
        self.registry = registry
        self.operator_latency = registry.histogram(
            "repro_operator_latency_seconds",
            "Per-element processing latency inside each plan operator",
            labels=("operator", "kind"), buckets=LATENCY_BUCKETS)
        self.tuple_latency = registry.histogram(
            "repro_tuple_latency_seconds",
            "End-to-end latency: source ingest / session push to sink "
            "emit", labels=("query",), buckets=LATENCY_BUCKETS)
        self.propagation = registry.histogram(
            "repro_policy_propagation_seconds",
            "Policy propagation lag: sp arrival to first enforcement "
            "decision under that policy",
            labels=("operator", "query"), buckets=LATENCY_BUCKETS)
        self.segment_size = registry.histogram(
            "repro_segment_size_tuples",
            "Tuples per s-punctuated segment observed at each shield",
            labels=("operator",), buckets=SIZE_BUCKETS)
        self.sp_batch_size = registry.histogram(
            "repro_sp_batch_size_sps",
            "Security punctuations per sp-batch at the SP Analyzer",
            buckets=SIZE_BUCKETS)
        self.shield_tuples = registry.counter(
            "repro_shield_tuples_total",
            "Shield verdicts per tuple, per role predicate",
            labels=("operator", "query", "roles", "verdict"))
        self.denial_drops = registry.counter(
            "repro_denial_by_default_drops_total",
            "Tuples dropped before any policy arrived "
            "(denial-by-default)", labels=("operator", "query"))
        self.spindex_entries = registry.gauge(
            "repro_spindex_entries_total",
            "SPIndex probe accounting (Lemma 5.1 skipping rule)",
            labels=("operator", "side", "outcome"))
        self.queue_depth = registry.gauge(
            "repro_queue_depth",
            "Elements currently held in operator state",
            labels=("operator",))
        self.elements = registry.counter(
            "repro_elements_total",
            "Stream elements entering the plan", labels=("kind",))
        self.runs = registry.counter(
            "repro_runs_total", "Completed executor runs")
        self.run_seconds = registry.histogram(
            "repro_run_seconds",
            "Wall-clock duration of whole executor runs",
            buckets=LATENCY_BUCKETS)
        #: Pre-bound element counters (per-element hot path).
        self.tuples_in = self.elements.labels("tuple")
        self.sps_in = self.elements.labels("sp")
        #: Wall clock (``time.perf_counter()``) of the element
        #: currently being pushed; read by sinks at emit time.
        self.ingest_wall: float | None = None

    def __repr__(self) -> str:
        return f"EngineInstruments({self.registry!r})"
