"""Tests for per-operator stage metrics and report aggregation."""

from repro.algebra.expressions import ScanExpr
from repro.core.punctuation import SecurityPunctuation
from repro.engine.dsms import DSMS
from repro.observability import StageStats, aggregate_stages
from repro.operators.shield import SecurityShield
from repro.stream.schema import StreamSchema
from repro.stream.tuples import DataTuple

SCHEMA = StreamSchema("hr", ("patient", "bpm"), key="patient")


def elements():
    return [
        SecurityPunctuation.grant(["D"], 0.0, provider="p"),
        DataTuple("hr", 1, {"patient": 1, "bpm": 70}, 1.0),
        SecurityPunctuation.grant(["C"], 2.0, provider="p"),
        DataTuple("hr", 2, {"patient": 2, "bpm": 80}, 3.0),
    ]


def run_dsms():
    dsms = DSMS()
    dsms.register_stream(SCHEMA, elements())
    dsms.register_query("doc", ScanExpr("hr"), roles={"D"})
    results = dsms.run()
    return dsms, results


class TestStageStats:
    def test_report_contains_all_stages(self):
        dsms, _ = run_dsms()
        report = dsms.last_report
        assert report is not None
        # The query's delivery:doc outlet and its sink.
        assert len(report.stages) == 2
        assert {s.kind for s in report.stages} == {
            "SecurityShield", "CollectingSink"}

    def test_shield_stage_counts_drops(self):
        dsms, results = run_dsms()
        report = dsms.last_report
        shield = next(s for s in report.stages
                      if s.kind == "SecurityShield")
        # Tuple 2's {C} segment, its sp included, is dropped at the
        # stream's entry (was 2 tuples and 2 sps in, 1 drop).
        assert shield.tuples_in == 1
        assert shield.tuples_out == 1
        assert shield.drops == 0
        assert shield.sps_in == 1
        assert shield.selectivity == 1.0
        assert shield.processing_time > 0.0
        assert shield.ewma_seconds > 0.0
        assert len(results["doc"].tuples) == 1

    def test_report_lookup_and_totals(self):
        dsms, _ = run_dsms()
        report = dsms.last_report
        assert report.stage("sink:doc") is not None
        assert report.stage("no-such-operator") is None
        totals = report.totals()
        assert totals["operators"] == 2  # the delivery shield, the sink
        # The {C} segment is dropped at the stream's entry, which is no
        # operator stage (was 1).
        assert totals["drops"] == report.total_drops == 0
        assert totals["processing_time"] > 0.0

    def test_stage_stats_snapshot_is_immutable_view(self):
        shield = SecurityShield({"D"})
        shield.process(SecurityPunctuation.grant(["D"], 0.0))
        shield.process(DataTuple("s", 1, {"x": 1}, 1.0))
        snap = shield.stage_stats()
        assert isinstance(snap, StageStats)
        assert snap.elements_in == 2
        assert snap.queue_depth == shield.state_size()
        shield.process(DataTuple("s", 2, {"x": 2}, 2.0))
        assert snap.tuples_in == 1  # old snapshot unchanged

    def test_aggregate_of_empty_is_zero(self):
        totals = aggregate_stages([])
        assert totals["operators"] == 0
        assert totals["drops"] == 0


class TestSessionReport:
    def test_mid_session_report(self):
        dsms = DSMS()
        dsms.register_stream(SCHEMA, [])
        dsms.register_query("doc", ScanExpr("hr"), roles={"D"})
        session = dsms.open_session()
        session.push("hr", SecurityPunctuation.grant(["D"], 0.0,
                                                     provider="p"))
        session.push("hr", DataTuple("hr", 1, {"patient": 1, "bpm": 70},
                                     1.0))
        report = session.report()
        assert report.elements_in == 2
        shield = next(s for s in report.stages
                      if s.kind == "SecurityShield")
        assert shield.tuples_in == 1
        session.close()
