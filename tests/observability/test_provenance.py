"""Tests for causal tracing, sampling and why-reconstruction."""

import json

import pytest

from repro.algebra.expressions import ScanExpr
from repro.core.punctuation import SecurityPunctuation
from repro.engine.dsms import DSMS
from repro.observability import Observability
from repro.observability.provenance import (DEFAULT_SAMPLE_RATE,
                                            FlightRecorder, TraceContext,
                                            Tracer, _sampled,
                                            reconstruct_why)
from repro.observability.trace import RingBufferTraceSink, SpanEvent
from repro.stream.schema import StreamSchema
from repro.stream.tuples import DataTuple

from tests.drive import push_all

SCHEMA = StreamSchema("hr", ("patient", "bpm"), key="patient")

#: A session pushed element by element, and segment-batched ``run()``.
MODES = [
    pytest.param(push_all, id="element-wise"),
    pytest.param(DSMS.run, id="batched"),
]


def segmented_elements(n_per_segment=40):
    """A denied leading tuple, a granted run, then a denied run."""
    elements = [DataTuple("hr", 999, {"patient": 9, "bpm": 50}, 0.5)]
    elements.append(
        SecurityPunctuation.grant(["D"], 1.0, provider="patient"))
    for i in range(n_per_segment):
        elements.append(
            DataTuple("hr", 100 + i, {"patient": 1, "bpm": 70}, 2.0 + i))
    elements.append(SecurityPunctuation.grant(
        ["C"], 100.0, provider="patient"))
    for i in range(n_per_segment):
        elements.append(
            DataTuple("hr", 500 + i, {"patient": 2, "bpm": 80}, 101.0 + i))
    return elements


def run_traced(sample, drive):
    dsms = DSMS(observability=Observability.with_tracing(sample=sample))
    dsms.register_stream(SCHEMA, segmented_elements())
    dsms.register_query("doc", ScanExpr("hr"), roles={"D"})
    results = drive(dsms)
    return dsms, results


class TestSampling:
    def test_verdict_is_deterministic_per_trace_id(self):
        threshold = int(DEFAULT_SAMPLE_RATE * 2**32)
        for tid in range(1, 500):
            assert _sampled(tid, threshold) == _sampled(tid, threshold)

    def test_rate_is_approximately_honoured(self):
        threshold = int(DEFAULT_SAMPLE_RATE * 2**32)
        hits = sum(_sampled(tid, threshold) for tid in range(1, 100_001))
        assert 100_000 * DEFAULT_SAMPLE_RATE * 0.5 < hits \
            < 100_000 * DEFAULT_SAMPLE_RATE * 2.0

    def test_sample_one_keeps_everything(self):
        threshold = int(1.0 * 2**32)
        assert all(_sampled(tid, threshold) for tid in range(1, 1000))

    def test_sample_zero_keeps_nothing(self):
        assert not any(_sampled(tid, 0) for tid in range(1, 1000))

    def test_begin_matches_pure_function(self):
        tracer = Tracer(sample=DEFAULT_SAMPLE_RATE)
        threshold = tracer._threshold
        for expected_tid in range(1, 300):
            verdict = tracer.begin("tuple")
            assert tracer.trace_id == expected_tid
            assert verdict == _sampled(expected_tid, threshold)
            assert tracer.active == verdict
            if verdict:
                assert tracer.trace_ref() == expected_tid
                assert tracer.context() is not None
            else:
                assert tracer.trace_ref() is None
                assert tracer.context() is None

    def test_rejects_out_of_range_rate(self):
        with pytest.raises(ValueError):
            Tracer(sample=1.5)
        with pytest.raises(ValueError):
            Tracer(sample=-0.1)

    def test_flat_span_is_head_sampled(self):
        kept_all = Tracer(sample=1.0)
        for _ in range(50):
            kept_all.span("analyzer.batch")
        assert len(kept_all.events("analyzer.batch")) == 50
        sparse = Tracer(sample=DEFAULT_SAMPLE_RATE)
        for _ in range(1000):
            sparse.span("analyzer.batch")
        kept = len(sparse.events("analyzer.batch"))
        assert 0 < kept < 1000 // 16


class TestTraceContext:
    def test_child_chains_parent(self):
        root = TraceContext(7, 1)
        child = root.child(2)
        assert child.trace_id == 7
        assert child.span_id == 2
        assert child.parent_id == 1

    def test_equality_and_hash(self):
        assert TraceContext(1, 2, 3) == TraceContext(1, 2, 3)
        assert TraceContext(1, 2, 3) != TraceContext(1, 2, 4)
        assert hash(TraceContext(1, 2)) == hash(TraceContext(1, 2))


class TestKeepSemantics:
    def test_unsampled_record_without_keep_vanishes(self):
        tracer = Tracer(sample=0.0)
        tracer.begin("tuple")
        tracer.record("provenance.shield.pass", {"tid": 1})
        assert tracer.events() == []

    def test_keep_overrides_head_sampling(self):
        tracer = Tracer(sample=0.0)
        tracer.begin("tuple")
        tracer.record("provenance.shield.drop", {"tid": 1}, keep=True)
        (event,) = tracer.events()
        assert event.name == "provenance.shield.drop"
        assert event.span_id is not None

    def test_decision_and_event_keep(self):
        tracer = Tracer(sample=0.0)
        tracer.begin("tuple")
        tracer.decision("shield.drop", operator="psi", verdict="drop",
                        keep=True, tid=4)
        tracer.event("health.alert", keep=True, rule="stall")
        tracer.decision("shield.pass", operator="psi", verdict="pass",
                        tid=5)  # not kept: unsampled, keep=False
        tracer.event("debug", x=1)
        names = [e.name for e in tracer.events()]
        assert names == ["provenance.shield.drop", "health.alert"]

    def test_lazy_run_record_materializes_at_read_time(self):
        tracer = Tracer(sample=0.0)
        tracer.begin("batch")
        run = [DataTuple("hr", tid, {"patient": 1, "bpm": 70}, float(tid))
               for tid in (11, 12, 13)]
        tracer.record("provenance.shield.drop",
                      {"verdict": "drop", "_run": run}, keep=True)
        (event,) = tracer.events()
        # the hot-path dict holds the shared run list, no tid copy
        assert event.attrs["_run"] is run
        rendered = event.to_dict()
        assert rendered["tids"] == [11, 12, 13]
        assert "_run" not in rendered


class TestFlightRecorder:
    def test_window_cuts_by_wall_time(self):
        recorder = FlightRecorder(16)
        for i in range(5):
            recorder.emit(SpanEvent("tick", wall=float(i), attrs={"i": i}))
        window = recorder.window(3.0)
        assert [e.attrs["i"] for e in window] == [3, 4]

    def test_dump_jsonl_materializes_runs(self, tmp_path):
        recorder = FlightRecorder(16)
        run = [DataTuple("hr", 21, {"patient": 1, "bpm": 70}, 1.0)]
        recorder.emit(SpanEvent("provenance.shield.drop", wall=1.0,
                                attrs={"verdict": "drop", "_run": run}))
        path = tmp_path / "flight.jsonl"
        count = recorder.dump_jsonl(str(path))
        assert count == 1
        record = json.loads(path.read_text())
        assert record["tids"] == [21]
        assert "_run" not in record

    def test_always_on_and_bounded(self):
        tracer = Tracer(sample=0.0, recorder_capacity=8)
        for i in range(50):
            tracer.begin("tuple")
            tracer.record("provenance.shield.drop", {"i": i}, keep=True)
        assert len(tracer.recorder) == 8
        assert tracer.recorder.events()[-1].attrs["i"] == 49


class TestMentionsAndWhy:
    @staticmethod
    def prov(attrs, name="provenance.shield.drop", trace_id=None):
        return SpanEvent(name, wall=0.0, attrs=attrs, trace_id=trace_id)

    def test_matches_direct_tid(self):
        report = reconstruct_why(
            7, [self.prov({"tid": 7, "verdict": "drop"})])
        assert report.found()
        assert len(report.denials) == 1

    def test_matches_tids_list_and_lazy_run(self):
        run = [DataTuple("hr", 9, {"patient": 1, "bpm": 70}, 1.0)]
        spans = [self.prov({"tids": [8, 9], "verdict": "drop"}),
                 self.prov({"_run": run, "verdict": "drop"})]
        assert len(reconstruct_why(9, spans).decisions) == 2
        assert len(reconstruct_why(8, spans).decisions) == 1
        assert not reconstruct_why(1, spans).found()

    def test_ignores_non_provenance_events(self):
        spans = [SpanEvent("executor.run.end", wall=0.0,
                           attrs={"tid": 7})]
        assert not reconstruct_why(7, spans).found()

    def test_render_names_sp_policy_and_denial(self):
        spans = [
            self.prov({"tid": 7, "operator": "psi", "verdict": "drop",
                       "sp": "grant D on hr", "policy": ["C", "D"],
                       "predicate": ["ND"]}, trace_id=3),
            self.prov({"tid": 7, "operator": "shield",
                       "verdict": "denied", "denial_by_default": True}),
        ]
        text = reconstruct_why(7, spans).render_text()
        assert "governed by sp: grant D on hr" in text
        assert "policy roles: C, D" in text
        assert "role predicate: ND" in text
        assert "no applicable sp (denial-by-default)" in text
        assert "not delivered (denied)" in text
        assert "trace 3" in text

    def test_delivered_queries_from_delivery_shields(self):
        spans = [
            self.prov({"tid": 7, "operator": "delivery:doc",
                       "verdict": "pass"}, name="provenance.shield.pass"),
            self.prov({"tid": 7, "operator": "delivery:doc",
                       "verdict": "pass"}, name="provenance.shield.pass"),
        ]
        report = reconstruct_why(7, spans)
        assert report.delivered_queries == ["doc"]
        assert "delivered to: doc" in report.render_text()


class TestEndToEndWhy:
    """Acceptance: ``why`` for a delivered AND a denied tuple, all tiers."""

    @pytest.mark.parametrize("drive", MODES)
    def test_delivered_and_denied_reconstruct(self, drive):
        dsms, results = run_traced(1.0, drive)
        delivered_tids = {t.tid for t in results["doc"].tuples}
        assert 105 in delivered_tids       # granted-D segment
        assert 505 not in delivered_tids   # granted-C segment, D query
        events = dsms.observability.tracer.events()

        delivered = reconstruct_why(105, events, audit=dsms.audit)
        assert delivered.found()
        assert delivered.delivered_queries == ["doc"]
        assert "delivered to: doc" in delivered.render_text()

        denied = reconstruct_why(505, events, audit=dsms.audit)
        assert denied.found()
        assert denied.denials
        assert denied.delivered_queries == []
        text = denied.render_text()
        assert "not delivered (denied)" in text
        assert "governed by sp" in text

    @pytest.mark.parametrize("drive", MODES)
    def test_denial_by_default_reconstructs(self, drive):
        dsms, results = run_traced(1.0, drive)
        report = reconstruct_why(
            999, dsms.observability.tracer.events(), audit=dsms.audit)
        assert report.found()
        assert "denial-by-default" in report.render_text()
        assert all(t.tid != 999 for t in results["doc"].tuples)

    @pytest.mark.parametrize("drive", MODES)
    def test_denials_survive_default_sampling(self, drive):
        """Tail-based keep: drops reconstruct even at 1/64 sampling."""
        dsms, _results = run_traced(DEFAULT_SAMPLE_RATE, drive)
        events = dsms.observability.tracer.events()
        for tid in (505, 999):
            report = reconstruct_why(tid, events)
            assert report.found(), f"denied tuple {tid} left no provenance"
            assert report.denials

    @pytest.mark.parametrize("drive", MODES)
    def test_traced_results_identical_to_untraced(self, drive):
        def delivered(observability):
            dsms = DSMS(observability=observability)
            dsms.register_stream(SCHEMA, segmented_elements())
            dsms.register_query("doc", ScanExpr("hr"), roles={"D"})
            return [(t.tid, t.ts, t.values)
                    for t in drive(dsms)["doc"].tuples]

        assert delivered(Observability.disabled()) \
            == delivered(Observability.with_tracing())


class TestCliWhy:
    def test_why_explains_demo_tuple(self, capsys):
        from repro.cli import main
        assert main(["why", "120"]) == 0
        out = capsys.readouterr().out
        assert "tuple 120:" in out
        assert "delivered to: q" in out

    def test_why_unknown_tuple_fails(self, capsys):
        from repro.cli import main
        assert main(["why", "424242"]) == 1
        assert "no trace or audit records" in capsys.readouterr().out
