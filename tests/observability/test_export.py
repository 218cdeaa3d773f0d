"""Exposition surfaces: Prometheus text and JSON."""

import json
import os
import subprocess
import sys

import pytest

from repro.observability.export import (parse_prometheus, render_json,
                                        render_prometheus)
from repro.observability.metrics import MetricsRegistry


def populated_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter("demo_total", "a counter", labels=("k",)).labels(
        "v1").inc(3)
    registry.gauge("demo_depth", "a gauge").set(7)
    hist = registry.histogram("demo_seconds", "a histogram",
                              buckets=(0.1, 1.0, 10.0))
    for value in (0.05, 0.5, 0.7, 20.0):
        hist.observe(value)
    return registry


class TestPrometheusText:
    def test_round_trip_parses(self):
        text = render_prometheus(populated_registry())
        samples = parse_prometheus(text)
        assert samples["demo_total"] == [({"k": "v1"}, 3.0)]
        assert samples["demo_depth"] == [({}, 7.0)]

    def test_help_and_type_headers(self):
        text = render_prometheus(populated_registry())
        assert "# HELP demo_total a counter" in text
        assert "# TYPE demo_total counter" in text
        assert "# TYPE demo_seconds histogram" in text

    def test_histogram_series_shape(self):
        samples = parse_prometheus(
            render_prometheus(populated_registry()))
        buckets = {labels["le"]: value for labels, value
                   in samples["demo_seconds_bucket"]}
        # Cumulative le semantics, ending in +Inf == _count.
        assert buckets["0.1"] == 1.0
        assert buckets["1"] == 3.0
        assert buckets["10"] == 3.0
        assert buckets["+Inf"] == 4.0
        assert samples["demo_seconds_count"] == [({}, 4.0)]
        assert samples["demo_seconds_sum"][0][1] == pytest.approx(21.25)

    def test_label_escaping_round_trips(self):
        registry = MetricsRegistry()
        tricky = 'role "D",\nbackslash\\'
        registry.counter("esc_total", labels=("who",)).labels(
            tricky).inc()
        samples = parse_prometheus(render_prometheus(registry))
        assert samples["esc_total"][0][0]["who"] == tricky

    @pytest.mark.parametrize("value", [
        'quote " inside',
        "newline\nsplits the line",
        "backslash \\ and tab\there",
        'all three: "\\\n"',
        "trailing backslash \\",
        "\\n literal-escape lookalike",
        "unicode: ψ-shield über señor 診療",
        "",
    ])
    def test_adversarial_label_values_round_trip(self, value):
        registry = MetricsRegistry()
        registry.counter("esc_total", labels=("who",)).labels(
            value).inc(2)
        samples = parse_prometheus(render_prometheus(registry))
        assert samples["esc_total"] == [({"who": value}, 2.0)]

    def test_adversarial_values_in_multiple_labels(self):
        registry = MetricsRegistry()
        registry.counter("multi_total", labels=("a", "b")).labels(
            'x="1"\n', "\\,}").inc()
        ((labels, value),) = parse_prometheus(
            render_prometheus(registry))["multi_total"]
        assert labels == {"a": 'x="1"\n', "b": "\\,}"}
        assert value == 1.0

    def test_concurrent_updates_never_torn_snapshots(self):
        """Scrapes racing writers always parse and never go backwards."""
        import threading

        registry = MetricsRegistry()
        counter = registry.counter("race_total", labels=("w",))
        hist = registry.histogram("race_seconds",
                                  buckets=(0.1, 1.0))
        stop = threading.Event()

        def writer(name):
            series = counter.labels(name)
            while not stop.is_set():
                series.inc()
                hist.observe(0.5)

        workers = [threading.Thread(target=writer, args=(f"w{i}",))
                   for i in range(4)]
        for worker in workers:
            worker.start()
        try:
            last_count = 0.0
            for _ in range(50):
                samples = parse_prometheus(render_prometheus(registry))
                total = sum(v for _, v in samples.get("race_total", []))
                assert total >= last_count
                last_count = total
                if "race_seconds_bucket" in samples:
                    buckets = {labels["le"]: v for labels, v
                               in samples["race_seconds_bucket"]}
                    # cumulative le semantics hold within one snapshot
                    assert buckets["0.1"] <= buckets["1"] <= buckets["+Inf"]
        finally:
            stop.set()
            for worker in workers:
                worker.join()
        assert last_count > 0

    def test_empty_families_are_omitted(self):
        registry = MetricsRegistry()
        registry.counter("never_used_total", "no series yet")
        assert render_prometheus(registry) == ""

    def test_engine_registry_renders(self):
        """The full engine catalog renders and parses."""
        from repro.observability.instruments import EngineInstruments

        registry = MetricsRegistry()
        instruments = EngineInstruments(registry)
        instruments.tuples_in.inc(5)
        instruments.propagation.labels("shield", "q").observe(1e-4)
        samples = parse_prometheus(render_prometheus(registry))
        assert ({"kind": "tuple"}, 5.0) in samples["repro_elements_total"]
        assert ("repro_policy_propagation_seconds_count" in samples)


class TestParserValidation:
    def test_rejects_sample_without_type(self):
        with pytest.raises(ValueError, match="before its # TYPE"):
            parse_prometheus("lonely_total 1\n")

    def test_rejects_bad_value(self):
        with pytest.raises(ValueError, match="bad sample value"):
            parse_prometheus("# TYPE x counter\nx not-a-number\n")

    def test_rejects_unterminated_label(self):
        with pytest.raises(ValueError):
            parse_prometheus('# TYPE x counter\nx{k="v} 1\n')

    def test_rejects_missing_value(self):
        with pytest.raises(ValueError, match="without a value"):
            parse_prometheus('# TYPE x counter\nx{k="v"}\n')


class TestJson:
    def test_valid_json_with_quantiles(self):
        doc = json.loads(render_json(populated_registry()))
        assert doc["demo_total"]["series"][0]["value"] == 3.0
        hist = doc["demo_seconds"]["series"][0]
        assert hist["count"] == 4
        assert "p95" in hist and "p50" in hist


class TestScrapeEndpoint:
    """There is no scrape endpoint: ``repro metrics`` prints."""

    def test_import_repro_starts_no_http_stack(self):
        """Nothing imports ``http.server`` (and with it
        ``socketserver``, ``email``, ``ssl``…): a plain import is paid
        in every process start."""
        code = ("import sys, repro, repro.observability.export\n"
                "print([m for m in ('http.server', 'socketserver')"
                " if m in sys.modules])")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, timeout=60)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "[]"
