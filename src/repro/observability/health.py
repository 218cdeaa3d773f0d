"""Stream-health checks over the live metric registry.

:class:`HealthMonitor` evaluates a small set of rules against an
:class:`~repro.observability.instruments.EngineInstruments` and
reports :class:`HealthAlert` records:

* **stalled stream** — no element has entered the plan for longer
  than ``stall_after`` seconds (measured against the instrument's
  ``last_ingest_wall`` ingest clock);
* **punctuation lag** — the p95 of
  ``repro_policy_propagation_seconds`` for some shield exceeds
  ``propagation_p95`` — policies are arriving but taking too long to
  become enforcement decisions;
* **denial-by-default churn** — tuples are being dropped because no
  policy has arrived at all (``repro_denial_by_default_drops_total``
  grew since the last check), which usually means a source forgot to
  emit sps.

Alerts are returned to the caller *and* raised through the hub's
:class:`~repro.observability.provenance.Tracer` as always-kept
``health.alert`` spans, so a JSONL trace of a long run doubles as its
incident log.
The monitor is pull-based: call :meth:`check` on whatever cadence
suits (the ``repro monitor`` view does so once per frame).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.observability.instruments import EngineInstruments
from repro.observability.provenance import Tracer

__all__ = ["HealthAlert", "HealthMonitor"]


@dataclass(frozen=True)
class HealthAlert:
    """One triggered health rule."""

    #: Rule identifier: ``stalled_stream`` | ``propagation_lag``
    #: | ``denial_by_default``.
    rule: str
    severity: str  # "warn" | "critical"
    message: str
    #: The measured value that tripped the rule (seconds or count).
    value: float
    #: The configured threshold it exceeded.
    threshold: float

    def to_dict(self) -> dict:
        return {"rule": self.rule, "severity": self.severity,
                "message": self.message, "value": self.value,
                "threshold": self.threshold}


class HealthMonitor:
    """Evaluate stall/lag/denial rules against live instruments."""

    def __init__(self, instruments: EngineInstruments, *,
                 tracer: Tracer | None = None,
                 stall_after: float = 5.0,
                 propagation_p95: float = 0.5,
                 flight_path: str | None = None,
                 flight_window: float = 60.0,
                 clock=time.perf_counter):
        if stall_after <= 0.0:
            raise ValueError("stall_after must be positive")
        if propagation_p95 <= 0.0:
            raise ValueError("propagation_p95 must be positive")
        if flight_window <= 0.0:
            raise ValueError("flight_window must be positive")
        self.instruments = instruments
        self.tracer = tracer
        self.stall_after = stall_after
        self.propagation_p95 = propagation_p95
        #: JSONL path the tracer's ring is dumped to when a rule fires
        #: (``None`` disables the dump; it needs a tracer).
        self.flight_path = flight_path
        #: Wall-clock window (seconds before the alert) of the dump.
        self.flight_window = flight_window
        #: ``(path, events)`` of each completed flight-recorder dump.
        self.flight_dumps: list[tuple[str, int]] = []
        self._clock = clock
        self._last_denials: float = 0.0
        #: Alert history across checks (most recent last).
        self.alerts: list[HealthAlert] = []

    # -- rules ---------------------------------------------------------------
    def _check_stall(self, now: float) -> HealthAlert | None:
        last = self.instruments.last_ingest_wall
        if last is None:  # nothing ever ingested: idle, not stalled
            return None
        age = now - last
        if age <= self.stall_after:
            return None
        return HealthAlert(
            rule="stalled_stream", severity="critical",
            message=(f"no stream element ingested for {age:.1f}s "
                     f"(threshold {self.stall_after:.1f}s)"),
            value=age, threshold=self.stall_after)

    def _check_propagation(self) -> list[HealthAlert]:
        alerts = []
        for values, child in self.instruments.propagation.series():
            if child.count == 0:
                continue
            p95 = child.quantile(0.95)
            if p95 <= self.propagation_p95:
                continue
            operator, query = values
            alerts.append(HealthAlert(
                rule="propagation_lag", severity="warn",
                message=(f"policy propagation p95 at {operator!r} "
                         f"(query {query!r}) is {p95:.4f}s "
                         f"(threshold {self.propagation_p95:.4f}s)"),
                value=p95, threshold=self.propagation_p95))
        return alerts

    def _check_denials(self) -> HealthAlert | None:
        total = sum(child.current() for _, child
                    in self.instruments.denial_drops.series())
        grown = total - self._last_denials
        self._last_denials = total
        if grown <= 0:
            return None
        return HealthAlert(
            rule="denial_by_default", severity="warn",
            message=(f"{int(grown)} tuple(s) dropped with no policy in "
                     f"effect since last check (denial-by-default)"),
            value=grown, threshold=0.0)

    # -- entry point ---------------------------------------------------------
    def check(self, *, now: float | None = None) -> list[HealthAlert]:
        """Run all rules once; returns (and records) new alerts."""
        if now is None:
            now = self._clock()
        new: list[HealthAlert] = []
        stall = self._check_stall(now)
        if stall is not None:
            new.append(stall)
        new.extend(self._check_propagation())
        denial = self._check_denials()
        if denial is not None:
            new.append(denial)
        tracer = self.tracer
        if new and tracer is not None:
            for alert in new:
                # keep=True: alert spans survive head sampling.
                tracer.event("health.alert", keep=True, **alert.to_dict())
            if self.flight_path is not None:
                # Retroactive context: dump the spans that led up to
                # the alert (everything within flight_window of now).
                count = tracer.dump_jsonl(
                    self.flight_path,
                    since_wall=time.time() - self.flight_window)
                self.flight_dumps.append((self.flight_path, count))
        self.alerts.extend(new)
        return new

    def __repr__(self) -> str:
        return (f"HealthMonitor(stall_after={self.stall_after}, "
                f"propagation_p95={self.propagation_p95}, "
                f"alerts={len(self.alerts)})")
