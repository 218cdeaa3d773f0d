"""Tests for causal tracing, sampling and why-reconstruction.

A security decision is recorded once, in the audit log; the tracer
holds spans only and ``reconstruct_why`` renders ``audit.explain``.
"""

import pytest

from repro.algebra.expressions import ScanExpr
from repro.core.punctuation import SecurityPunctuation
from repro.engine.dsms import DSMS
from repro.core.analyzer import SPAnalyzer
from repro.observability import AuditLog, Observability
from repro.observability.provenance import (DEFAULT_SAMPLE_RATE, Tracer,
                                            _sampled, reconstruct_why)
from repro.operators.conditions import Comparison
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
    dsms = DSMS(observability=Observability(tracer=Tracer(sample=sample)))
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
            else:
                assert tracer.trace_ref() is None

    def test_rejects_out_of_range_rate(self):
        with pytest.raises(ValueError):
            Tracer(sample=1.5)
        with pytest.raises(ValueError):
            Tracer(sample=-0.1)

    def test_flat_span_is_head_sampled(self):
        """The per-sp-batch ``analyzer.batch`` span follows the one
        sampling rule: kept while the current trace is sampled."""
        def batches(sample, n):
            analyzer = SPAnalyzer()
            analyzer.bind_observability(
                Observability(tracer=Tracer(sample=sample)))
            for i in range(n):
                analyzer.tracer.begin("sp")
                analyzer.process_batch(
                    [SecurityPunctuation.grant(["D"], float(i))])
            return analyzer.tracer

        assert len(batches(1.0, 50).events("analyzer.batch")) == 50
        sparse = batches(DEFAULT_SAMPLE_RATE, 1000)
        kept = len(sparse.events("analyzer.batch"))
        assert 0 < kept == sparse.sampled_traces < 1000 // 16
        assert batches(0.0, 50).events() == []


def run_of(tids, ts=1.0):
    return [DataTuple("hr", tid, {"patient": 1, "bpm": 70}, ts)
            for tid in tids]


class TestKeepSemantics:
    """One sampling rule: an unsampled trace leaves no span, a control
    span (:meth:`Tracer.span`) is always kept."""

    def test_unsampled_record_without_keep_vanishes(self):
        tracer = Tracer(sample=0.0)
        assert not tracer.begin("tuple")
        assert tracer.events() == []

    def test_keep_overrides_head_sampling(self):
        tracer = Tracer(sample=0.0)
        tracer.begin("tuple")
        tracer.span("session.close", elements_pushed=1)
        (event,) = tracer.events()
        assert event.name == "session.close"
        assert event.trace_id is None and event.span_id is None

    def test_decision_and_event_keep(self):
        """On an unsampled trace a denial decision is still recorded
        (in the log — it is not a span), a pass is not; of spans only
        the control span survives."""
        hub = Observability(tracer=Tracer(sample=0.0))
        tracer, log = hub.tracer, hub.audit
        tracer.begin("tuple")
        assert not log.wants_passes()
        log.record_run("shield.drop", run_of([4]), operator="psi")
        tracer.span("executor.run.end", elements_in=1)
        assert [e.name for e in tracer.events()] == ["executor.run.end"]
        (denial,) = log.explain(4)
        assert denial.kind == "shield.drop" and denial.trace_id is None


class TestFlightRecorder:
    """The tracer's ring: bounded, always on."""

    def test_always_on_and_bounded(self):
        tracer = Tracer(sample=0.0, recorder_capacity=8)
        for i in range(50):
            tracer.begin("tuple")
            tracer.span("tick", i=i)
        assert len(tracer) == 8
        assert tracer.events()[-1].attrs["i"] == 49


class TestMentionsAndWhy:
    """``reconstruct_why`` over hand-recorded logs."""

    def test_matches_direct_tid(self):
        log = AuditLog()
        log.record("shield.drop", ts=1.0, operator="psi", sid="hr", tid=7)
        report = reconstruct_why(7, log)
        assert report.found()
        assert len(report.denials) == 1
        assert not reconstruct_why(1, log).found()

    def test_ignores_non_provenance_events(self):
        """Decisions are read from the log, never from spans."""
        hub = Observability(tracer=Tracer(sample=1.0))
        hub.tracer.begin("tuple")
        hub.tracer.span("executor.run.end", tid=7)
        assert hub.tracer.events("executor.run.end")
        assert not reconstruct_why(7, hub.audit).found()

    def test_render_names_sp_policy_and_denial(self):
        hub = Observability(tracer=Tracer(sample=1.0))
        log = hub.audit
        for _ in range(3):
            hub.tracer.begin("tuple")
        log.record_run("shield.drop", run_of([7]), operator="psi",
                       sp="grant D on hr", policy=("C", "D"),
                       predicate=("ND",))
        log.record_run("entry.drop", run_of([7], ts=2.0),
                       operator="entry:hr")
        text = reconstruct_why(7, log).render_text()
        assert "shield.drop at psi: drop  hr:7@1.0  trace 3" in text
        assert "governed by sp: grant D on hr" in text
        assert "policy roles: C, D" in text
        assert "role predicate: ND" in text
        assert "no applicable sp (denial-by-default)" in text
        assert "not delivered (denied)" in text

    def test_delivered_queries_from_delivery_shields(self):
        """A delivery is a pass at the query's outlet (``outlet=True``,
        set when the plan is bound), whatever the shield is named; an
        in-plan pass is not one."""
        log = AuditLog()
        log.record_run("shield.pass", run_of([7]), operator="SecurityShield",
                       query="nurse")
        for ts, operator in ((1.0, "SecurityShield"), (2.0, "delivery:doc")):
            log.record_run("shield.pass", run_of([7], ts=ts),
                           operator=operator, query="doc", outlet=True)
        report = reconstruct_why(7, log)
        assert report.delivered_queries == ["doc"]
        assert report.denials == []
        assert "delivered to: doc" in report.render_text()


class TestEndToEndWhy:
    """Acceptance: ``why`` for a delivered AND a denied tuple, all tiers."""

    @pytest.mark.parametrize("drive", MODES)
    def test_delivered_and_denied_reconstruct(self, drive):
        dsms, results = run_traced(1.0, drive)
        delivered_tids = {t.tid for t in results["doc"].tuples}
        assert 105 in delivered_tids       # granted-D segment
        assert 505 not in delivered_tids   # granted-C segment, D query

        delivered = reconstruct_why(105, dsms.audit)
        assert delivered.found()
        assert delivered.delivered_queries == ["doc"]
        assert "delivered to: doc" in delivered.render_text()

        denied = reconstruct_why(505, dsms.audit)
        assert denied.found()
        # Each decision once: no query may see the {C} segment, so the
        # stream's entry denied it and no operator saw it.
        assert [e.kind for e in denied.decisions] == ["entry.drop"]
        assert denied.delivered_queries == []
        text = denied.render_text()
        assert "not delivered (denied)" in text
        assert "governed by sp" in text
        assert "denied to every query reading hr: doc" in text

    @pytest.mark.parametrize("drive", MODES)
    def test_inner_pass_is_not_a_delivery(self, drive):
        """ψ_D(σ(ψ_D(hr))) under its ``delivery:doc`` outlet: all three
        shields are bound to ``doc``; a tuple the select drops after the
        inner shield passed it was not delivered."""
        dsms = DSMS(observability=Observability(tracer=Tracer(sample=1.0)))
        dsms.register_stream(SCHEMA, [
            SecurityPunctuation.grant(["D"], 0.0, provider="patient"),
            DataTuple("hr", 1, {"patient": 1, "bpm": 70}, 1.0),
            DataTuple("hr", 2, {"patient": 1, "bpm": 90}, 2.0)])
        dsms.register_query("doc", ScanExpr("hr").shield({"D"}).select(
            Comparison("bpm", ">", 80)).shield({"D"}), roles={"D"})
        results = drive(dsms)
        assert [t.tid for t in results["doc"].tuples] == [2]
        dropped, delivered = (reconstruct_why(tid, dsms.audit)
                              for tid in (1, 2))
        assert [e.kind for e in dropped.decisions] == ["shield.pass"]
        assert dropped.delivered_queries == []
        assert "delivered to" not in dropped.render_text()
        assert [e.kind for e in delivered.decisions] == ["shield.pass"] * 3
        assert delivered.delivered_queries == ["doc"]

    @pytest.mark.parametrize("drive", MODES)
    def test_denial_by_default_reconstructs(self, drive):
        dsms, results = run_traced(1.0, drive)
        report = reconstruct_why(999, dsms.audit)
        assert report.found()
        assert "denial-by-default" in report.render_text()
        assert all(t.tid != 999 for t in results["doc"].tuples)

    @pytest.mark.parametrize("drive", MODES)
    def test_denials_survive_default_sampling(self, drive):
        """Denials are audit records, never sampled away: every one of
        them reconstructs at the default 1/64 rate."""
        dsms, results = run_traced(DEFAULT_SAMPLE_RATE, drive)
        delivered = {t.tid for t in results["doc"].tuples}
        denied = [e.tid for e in segmented_elements()
                  if isinstance(e, DataTuple) and e.tid not in delivered]
        assert 505 in denied and 999 in denied
        # 999 (denial-by-default) at the shield, the {C} run at the entry.
        assert dsms.audit.counts["shield.drop"] == 1
        assert dsms.audit.counts["entry.drop"] == len(denied) - 1
        for tid in denied:
            report = reconstruct_why(tid, dsms.audit)
            assert report.denials, f"denied tuple {tid} left no record"

    @pytest.mark.parametrize("drive", MODES)
    def test_no_decision_is_a_span(self, drive):
        dsms, _results = run_traced(1.0, drive)
        names = {e.name for e in dsms.observability.tracer.events()}
        assert names and not any(n.startswith("provenance.") for n in names)

    @pytest.mark.parametrize("drive", MODES)
    def test_traced_results_identical_to_untraced(self, drive):
        def delivered(observability):
            dsms = DSMS(observability=observability)
            dsms.register_stream(SCHEMA, segmented_elements())
            dsms.register_query("doc", ScanExpr("hr"), roles={"D"})
            return [(t.tid, t.ts, t.values)
                    for t in drive(dsms)["doc"].tuples]

        assert delivered(Observability()) \
            == delivered(Observability(tracer=Tracer()))


def cost_lines(text):
    return [line for line in text.splitlines()
            if line.startswith("    cost: ")]


class TestWhyCost:
    """``why`` prints what a decision cost: the ``op.process`` spans of
    its sampled trace, once per trace, read from the tracer's ring."""

    @pytest.mark.parametrize("drive", MODES)
    def test_a_sampled_delivery_lists_its_trace_hops(self, drive):
        dsms, _results = run_traced(1.0, drive)
        report = reconstruct_why(105, dsms.audit)
        traces = {event.trace_id for event in report.decisions}
        assert traces and None not in traces
        spans = [span for span in dsms.observability.tracer.events(
            "op.process") if span.trace_id in traces]
        assert {span.attrs["operator"] for span in spans} \
            >= {"delivery:doc", "sink:doc"}
        assert sorted(cost_lines(report.render_text())) == sorted(
            f"    cost: {span.attrs['operator']}, {span.attrs['rows']} "
            f"row(s), {span.attrs['dur_ns'] / 1e3:.1f} µs"
            for span in spans)

    @pytest.mark.parametrize("drive", MODES)
    def test_an_entry_drop_ran_no_operator_hop(self, drive):
        dsms, _results = run_traced(1.0, drive)
        report = reconstruct_why(505, dsms.audit)
        assert report.decisions[0].trace_id is not None
        assert cost_lines(report.render_text()) == [
            "    cost: no operator hop ran"]

    @pytest.mark.parametrize("drive", MODES)
    def test_an_unsampled_decision_says_so(self, drive):
        dsms, _results = run_traced(0.0, drive)
        report = reconstruct_why(505, dsms.audit)
        assert [e.trace_id for e in report.decisions] == [None]
        assert cost_lines(report.render_text()) == [
            "    cost: not sampled"]

    @pytest.mark.parametrize("drive", MODES)
    def test_an_evicted_trace_is_not_read_as_no_hop(self, drive):
        """The ring keeps the newest spans: the first granted tuple's
        trace is gone from a four-span ring, the last push's is not."""
        tracer = Tracer(sample=1.0, recorder_capacity=4)
        dsms = DSMS(observability=Observability(tracer=tracer))
        dsms.register_stream(SCHEMA, segmented_elements())
        dsms.register_query("doc", ScanExpr("hr"), roles={"D"})
        drive(dsms)
        assert cost_lines(reconstruct_why(100, dsms.audit).render_text()) \
            == ["    cost: evicted from the span ring"]
        assert cost_lines(reconstruct_why(539, dsms.audit).render_text()) \
            == ["    cost: no operator hop ran"]


class TestCliWhy:
    def test_why_explains_demo_tuple(self, capsys):
        from repro.cli import main
        assert main(["why", "120"]) == 0
        out = capsys.readouterr().out
        assert "tuple 120:" in out
        assert "delivered to: q" in out
        # The demo's {C, D} segment names no role of q: its stream's
        # entry drops it.
        assert out.count("entry.drop at entry:HeartRate: drop") == 1
        assert "denied to every query reading HeartRate: q" in out
        assert "audit:" not in out

    def test_why_prints_each_hop_cost(self, capsys):
        """The demo's tuple 120: trace 2 (two delivered readings) ran
        its outlet and sink twice each; trace 4, the entry drop, ran no
        operator hop."""
        from repro.cli import main
        assert main(["why", "120"]) == 0
        lines = capsys.readouterr().out.splitlines()
        costs = cost_lines("\n".join(lines))
        assert sorted(line.split(",")[0] for line in costs
                      if line.endswith(" µs")) == (
            ["    cost: delivery:q"] * 2 + ["    cost: sink:q"] * 2)
        assert costs.count("    cost: no operator hop ran") == 1
        drop = lines.index("    cost: no operator hop ran")
        assert lines[drop - 1].startswith("    denied to every query")

    def test_why_unknown_tuple_fails(self, capsys):
        from repro.cli import main
        assert main(["why", "424242"]) == 1
        assert "no audit records" in capsys.readouterr().out

    def test_why_renders_an_entry_drop(self, tmp_path, capsys):
        """A tuple of a segment no registered role may see is dropped at
        its stream's entry; ``repro why`` names that one record as the
        reason for every query reading the stream."""
        from repro.cli import main
        from repro.stream.wire import encode_element

        path = tmp_path / "s.jsonl"
        path.write_text("\n".join(encode_element(e) for e in [
            SecurityPunctuation.grant(["ND"], 0.0),
            DataTuple("s", 1, {"v": 1}, 1.0),
            SecurityPunctuation.grant(["C"], 2.0),
            DataTuple("s", 7, {"v": 2}, 3.0)]))
        assert main(["why", "7", str(path), "--roles", "ND"]) == 0
        out = capsys.readouterr().out
        assert "entry.drop at entry:s: drop  s:7@3.0" in out
        assert "governed by sp: <*, *, * | C | + | F | 2.0>" in out
        assert "policy roles: C" in out and "role predicate: ND" in out
        assert "denied to every query reading s: q" in out
        assert "not delivered (denied)" in out
        assert "shield.drop" not in out
