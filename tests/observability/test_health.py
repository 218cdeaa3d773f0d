"""Health rules: stalled streams, propagation lag, denial churn."""

import pytest

from repro.observability.health import HealthMonitor
from repro.observability.instruments import EngineInstruments
from repro.observability.metrics import MetricsRegistry
from repro.observability.provenance import Tracer


@pytest.fixture
def instruments():
    return EngineInstruments(MetricsRegistry())


def make_monitor(instruments, *, now=100.0, **kwargs):
    clock = lambda: now  # noqa: E731 - deterministic test clock
    return HealthMonitor(instruments, clock=clock, **kwargs)


class TestStalledStream:
    def test_idle_engine_is_not_stalled(self, instruments):
        monitor = make_monitor(instruments, stall_after=5.0)
        assert monitor.check() == []

    def test_recent_ingest_is_healthy(self, instruments):
        instruments.mark_ingest(98.0)
        monitor = make_monitor(instruments, stall_after=5.0)
        assert monitor.check() == []

    def test_old_ingest_trips_critical(self, instruments):
        instruments.mark_ingest(90.0)
        monitor = make_monitor(instruments, stall_after=5.0)
        alerts = monitor.check()
        assert [a.rule for a in alerts] == ["stalled_stream"]
        assert alerts[0].severity == "critical"
        assert alerts[0].value == pytest.approx(10.0)

    def test_explicit_now_overrides_clock(self, instruments):
        instruments.mark_ingest(90.0)
        monitor = make_monitor(instruments, stall_after=5.0)
        assert monitor.check(now=92.0) == []


class TestPropagationLag:
    def test_fast_propagation_is_healthy(self, instruments):
        for _ in range(20):
            instruments.propagation.labels("shield", "q").observe(1e-4)
        monitor = make_monitor(instruments, propagation_p95=0.5)
        assert monitor.check() == []

    def test_slow_propagation_warns_per_series(self, instruments):
        for _ in range(20):
            instruments.propagation.labels("slow", "q1").observe(2.0)
            instruments.propagation.labels("fast", "q2").observe(1e-4)
        monitor = make_monitor(instruments, propagation_p95=0.5)
        alerts = monitor.check()
        assert [a.rule for a in alerts] == ["propagation_lag"]
        assert "slow" in alerts[0].message
        assert alerts[0].value > 0.5

    def test_threshold_validation(self, instruments):
        with pytest.raises(ValueError):
            HealthMonitor(instruments, propagation_p95=0.0)
        with pytest.raises(ValueError):
            HealthMonitor(instruments, stall_after=-1.0)


class TestDenialChurn:
    def test_growth_between_checks_warns_once(self, instruments):
        monitor = make_monitor(instruments)
        assert monitor.check() == []
        instruments.denial_drops.labels("shield", "q").inc(4)
        alerts = monitor.check()
        assert [a.rule for a in alerts] == ["denial_by_default"]
        assert alerts[0].value == pytest.approx(4.0)
        # No further growth: no repeat alert.
        assert monitor.check() == []


class TestAlertRouting:
    def test_alerts_reach_the_trace_sink(self, instruments):
        tracer = Tracer()
        instruments.mark_ingest(0.0)
        monitor = make_monitor(instruments, now=50.0, stall_after=5.0,
                               tracer=tracer)
        monitor.check()
        spans = tracer.events("health.alert")
        assert len(spans) == 1
        assert spans[0].attrs["rule"] == "stalled_stream"
        assert spans[0].attrs["severity"] == "critical"

    def test_history_accumulates(self, instruments):
        monitor = make_monitor(instruments, stall_after=5.0)
        instruments.mark_ingest(90.0)
        monitor.check()
        monitor.check()
        assert len(monitor.alerts) == 2

    def test_causal_alert_survives_head_sampling(self, instruments):
        tracer = Tracer(sample=0.0)  # no trace is ever head-sampled
        instruments.mark_ingest(0.0)
        monitor = make_monitor(instruments, now=50.0, stall_after=5.0,
                               tracer=tracer)
        monitor.check()
        (span,) = tracer.events("health.alert")
        assert span.attrs["rule"] == "stalled_stream"
        assert span.span_id is not None

    def test_alert_dumps_flight_recorder_window(self, instruments,
                                                tmp_path):
        import json

        tracer = Tracer(sample=1.0)
        for i in range(5):
            tracer.begin("tuple")
            tracer.op_span("op.process", 0, 1000, operator="psi", rows=1)
        path = tmp_path / "flight.jsonl"
        instruments.mark_ingest(0.0)
        monitor = make_monitor(instruments, now=50.0, stall_after=5.0,
                               tracer=tracer, flight_path=str(path))
        monitor.check()
        assert monitor.flight_dumps and monitor.flight_dumps[0][0] \
            == str(path)
        records = [json.loads(line)
                   for line in path.read_text().splitlines()]
        assert len(records) == monitor.flight_dumps[0][1]
        # spans leading up to the alert AND the alert itself are there
        names = [r["name"] for r in records]
        assert names.count("ingest") == names.count("op.process") == 5
        assert "health.alert" in names
        # second check with no new alert: no second dump
        monitor.check()
        assert len(monitor.flight_dumps) == 2  # stall still firing
        instruments.mark_ingest(49.0)
        flights = len(monitor.flight_dumps)
        monitor.check()
        assert len(monitor.flight_dumps) == flights
