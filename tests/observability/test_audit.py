"""Tests for the security audit trail."""

import gc
import io
import json
import weakref
from dataclasses import replace

import pytest

from repro.algebra.expressions import ScanExpr
from repro.core.punctuation import SecurityPunctuation
from repro.engine.dsms import DSMS
from repro.observability import AuditLog, Observability, Tracer
from repro.operators.join import NestedLoopSAJoin
from repro.stream.schema import StreamSchema
from repro.stream.tuples import DataTuple

from tests.drive import push_all

SCHEMA = StreamSchema("hr", ("patient", "bpm"), key="patient")


def grant(roles, ts):
    return SecurityPunctuation.grant(roles, ts, provider="p1")


def reading(patient, bpm, ts):
    return DataTuple("hr", patient, {"patient": patient, "bpm": bpm}, ts)


def quickstart_elements():
    return [
        grant(["D", "ND"], 0.0),
        reading(1, 72, 1.0),
        reading(2, 75, 2.0),
        grant(["D", "C"], 3.0),
        reading(3, 148, 4.0),
    ]


def observed_dsms():
    dsms = DSMS(observability=Observability.in_memory())
    dsms.register_stream(SCHEMA, quickstart_elements())
    return dsms


class TestShieldAudit:
    def test_denied_tuple_produces_exactly_one_drop_record(self):
        dsms = observed_dsms()
        dsms.register_query("nurse", ScanExpr("hr"), roles={"ND"})
        # A D query keeps the {C, D} segment past the stream's entry,
        # so the nurse shield decides it.
        dsms.register_query("doctor", ScanExpr("hr"), roles={"D"})
        dsms.run()
        drops = dsms.audit.events(kind="shield.drop")
        # Tuple 3 is in the {C, D} segment; the nurse shield denies it
        # once (the delivery shield never sees it).
        assert len(drops) == 1
        event = drops[0]
        assert event.tid == 3
        assert event.sid == "hr"
        assert event.operator  # names the deciding shield
        assert event.predicate == ("ND",)
        assert event.sp is not None and "C" in event.sp and "3.0" in event.sp
        assert event.query == "nurse"

    def test_every_drop_attributable_to_an_sp(self):
        dsms = observed_dsms()
        dsms.register_query("nurse", ScanExpr("hr"), roles={"ND"})
        dsms.register_query("cardio", ScanExpr("hr"), roles={"C"})
        dsms.run()
        blocked = sum(s.tuples_blocked
                      for name in ("nurse", "cardio")
                      for s in dsms.shields(name))
        drops = dsms.audit.events(kind="shield.drop")
        assert blocked == len(drops) > 0
        for event in drops:
            assert event.sp is not None
            explained = dsms.audit.explain(event.tid)
            assert event in explained

    def test_explain_names_the_deciding_sp(self):
        dsms = observed_dsms()
        dsms.register_query("nurse", ScanExpr("hr"), roles={"ND"})
        dsms.run()
        events = dsms.audit.explain(3)
        assert events and all(e.tid == 3 for e in events)
        assert any("{C, D}" in (e.sp or "") for e in events)

    def test_segment_verdicts_recorded(self):
        dsms = observed_dsms()
        dsms.register_query("nurse", ScanExpr("hr"), roles={"ND"})
        # A D query keeps the {C, D} segment past the stream's entry,
        # so the nurse shield evaluates it.
        dsms.register_query("doctor", ScanExpr("hr"), roles={"D"})
        dsms.run()
        segments = dsms.audit.events(kind="shield.segment",
                                     query="nurse")
        verdicts = [e.detail["verdict"] for e in segments
                    if e.operator == "delivery:nurse"]
        assert verdicts == ["pass", "drop"]

    def test_segment_no_query_may_see_is_one_entry_record(self):
        """Alone, the nurse query leaves no role of the {C, D} segment
        registered: the stream's entry drops it, and the drop is an
        ``entry.drop`` record naming ∪R, the grant and the readers."""
        dsms = observed_dsms()
        dsms.register_query("nurse", ScanExpr("hr"), roles={"ND"})
        dsms.run()
        assert not dsms.audit.events(kind="shield.drop")
        (event,) = dsms.audit.events(kind="entry.drop")
        assert (event.tid, event.sid, event.operator) == (3, "hr", "entry:hr")
        assert event.query is None and event.detail["queries"] == ("nurse",)
        assert event.predicate == ("ND",) and event.policy == ("C", "D")
        assert event.sp is not None and "3.0" in event.sp
        verdicts = [e.detail["verdict"]
                    for e in dsms.audit.events(kind="shield.segment")]
        assert verdicts == ["pass"]

    def test_disabled_observability_records_nothing(self):
        dsms = DSMS()
        dsms.register_stream(SCHEMA, quickstart_elements())
        dsms.register_query("nurse", ScanExpr("hr"), roles={"ND"})
        dsms.run()
        assert dsms.audit is None
        assert all(s.audit is None for s in dsms.shields("nurse"))


class TestMidSessionRebind:
    def test_role_switch_visible_in_audit(self):
        dsms = DSMS(observability=Observability.in_memory())
        dsms.register_stream(SCHEMA, [])
        dsms.register_query("q", ScanExpr("hr"), roles={"D"})
        session = dsms.open_session()
        session.push("hr", grant(["D"], 0.0))
        out = session.push("hr", reading(1, 70, 1.0))
        assert [t.tid for t in out["q"] if isinstance(t, DataTuple)] == [1]

        dsms.update_query_roles("q", {"C"})
        out = session.push("hr", reading(2, 80, 2.0))
        assert out == {}
        session.close()

        rebinds = dsms.audit.events(kind="shield.rebind")
        assert len(rebinds) == len(dsms.shields("q"))
        assert all(e.predicate == ("C",) for e in rebinds)
        assert all(e.detail["previous"] == ["D"] for e in rebinds)

        # The re-bind left no registered role the {D} segment grants,
        # so the stream's entry drops tuple 2 under the new ∪R.
        assert not dsms.audit.events(kind="shield.drop")
        drops = dsms.audit.events(kind="entry.drop")
        assert [e.tid for e in drops] == [2]
        assert drops[0].predicate == ("C",)
        # The trail shows the order: rebind happened before the drop.
        assert rebinds[0].seq < drops[0].seq


class TestAnalyzerAudit:
    def test_server_refinement_recorded(self):
        dsms = observed_dsms()
        dsms.add_server_policy(SecurityPunctuation.grant(["D"], ts=0.0))
        dsms.register_query("doc", ScanExpr("hr"), roles={"D"})
        dsms.run()
        refines = dsms.audit.events(kind="analyzer.refine")
        assert len(refines) == 2  # both provider sps intersected
        assert refines[0].operator == "SPAnalyzer"
        assert refines[0].detail["result_roles"] == ["D"]
        assert refines[0].policy == ("D", "ND")


class TestJoinAudit:
    def test_policy_reject_recorded(self):
        audit = AuditLog()
        join = NestedLoopSAJoin("k", "k", 100.0,
                                left_sid="l", right_sid="r")
        join.audit = audit
        join.process(SecurityPunctuation.grant(["A"], 0.0), 0)
        join.process(DataTuple("l", 1, {"k": 7}, 1.0), 0)
        join.process(SecurityPunctuation.grant(["B"], 0.0), 1)
        out = join.process(DataTuple("r", 2, {"k": 7}, 1.0), 1)
        assert out == []  # join value matched, policies disjoint
        rejects = audit.events(kind="join.policy_reject")
        assert len(rejects) == 1
        assert rejects[0].detail["other_policy"] == ["A"]
        assert rejects[0].policy == ("B",)


class TestAuditLogMechanics:
    def test_bounded_eviction_keeps_counts_exact(self):
        log = AuditLog(capacity=5)
        for i in range(12):
            log.record("shield.drop", ts=float(i), operator="ss", tid=i)
        assert len(log) == 5
        assert log.evicted == 7
        assert log.counts["shield.drop"] == 12
        assert [e.tid for e in log] == [7, 8, 9, 10, 11]

    def test_filtering_by_query_and_kind(self):
        log = AuditLog()
        log.record("shield.drop", ts=0.0, operator="a", query="q1")
        log.record("shield.drop", ts=0.0, operator="b", query="q2")
        log.record("shield.segment", ts=0.0, operator="a", query="q1")
        assert len(log.events(query="q1")) == 2
        assert len(log.events(query="q1", kind="shield.drop")) == 1
        assert log.last("shield.drop").operator == "b"

    def test_jsonl_export_round_trips(self):
        log = AuditLog()
        log.record("shield.drop", ts=1.0, operator="ss", query="q",
                   sid="hr", tid=3, predicate=("ND",),
                   policy=("C", "D"), sp="<sp>", note="x")
        buffer = io.StringIO()
        assert log.to_jsonl(buffer) == 1
        record = json.loads(buffer.getvalue())
        assert record["kind"] == "shield.drop"
        assert record["predicate"] == ["ND"]
        assert record["detail"] == {"note": "x"}

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            AuditLog(capacity=0)


class TestRunRecords:
    """A verdict over a run is held once but read per decision."""

    SHARED = dict(operator="ss", query="q", predicate=("ND",),
                  policy=("C", "D"), sp="<sp>")

    @staticmethod
    def run_of(n, start=0):
        return [reading(start + i, 60 + i, float(start + i))
                for i in range(n)]

    def per_tuple_log(self, runs, **kwargs):
        """The same decisions recorded one event at a time."""
        log = AuditLog(**kwargs)
        for run in runs:
            for item in run:
                log.record("shield.drop", ts=item.ts, sid=item.sid,
                           tid=item.tid, **self.SHARED)
        return log

    def run_log(self, runs, **kwargs):
        log = AuditLog(**kwargs)
        for run in runs:
            log.record_run("shield.drop", run, **self.SHARED)
        return log

    def test_per_decision_view_equals_per_tuple_recording(self):
        runs = [self.run_of(7), self.run_of(5, start=7)]
        by_run, by_tuple = self.run_log(runs), self.per_tuple_log(runs)
        assert list(by_run) == list(by_tuple)
        assert by_run.events(kind="shield.drop") == list(by_tuple)
        assert by_run.events(query="other") == []
        assert len(by_run) == 12 and by_run.counts == by_tuple.counts
        assert by_run.last() == by_tuple.last()
        # Mid-run tuple: one per-tuple event, seq and ts its own.
        (event,) = by_run.explain(3)
        assert event == by_tuple.explain(3)[0]
        assert (event.seq, event.tid, event.ts) == (3, 3, 3.0)
        assert by_run.explain(3, sid="other") == []

    def test_jsonl_lines_unchanged(self):
        runs = [self.run_of(4), self.run_of(3, start=4)]
        by_run, by_tuple = io.StringIO(), io.StringIO()
        assert self.run_log(runs).to_jsonl(by_run) == 7
        assert self.per_tuple_log(runs).to_jsonl(by_tuple) == 7
        assert by_run.getvalue() == by_tuple.getvalue()

    def test_eviction_is_whole_run_oldest_first(self):
        log = self.run_log([self.run_of(4), self.run_of(4, start=4),
                            self.run_of(4, start=8)], capacity=10)
        # 12 decisions into 10 slots: the oldest run goes as a whole.
        assert [e.tid for e in log] == list(range(4, 12))
        assert len(log) == 8 and log.evicted == 4
        assert log.counts["shield.drop"] == 12
        log.record("shield.rebind", ts=12.0, operator="ss")
        log.record("shield.rebind", ts=12.0, operator="ss")
        log.record("shield.rebind", ts=12.0, operator="ss")
        assert len(log) == 7 and log.evicted == 8
        assert len(log) + log.evicted == sum(log.counts.values()) == 15
        assert [e.seq for e in log] == list(range(8, 15))

    def test_capacity_smaller_than_one_run_keeps_newest(self):
        log = self.run_log([self.run_of(100)], capacity=30)
        assert len(log) == 30 and log.evicted == 70
        assert log.counts["shield.drop"] == 100
        assert [(e.seq, e.tid) for e in log] == [(i, i)
                                                 for i in range(70, 100)]
        assert log.explain(10) == []
        assert log.explain(99)[0].seq == 99

    def test_record_does_not_keep_tuples_alive(self):
        class Tracked(DataTuple):
            """Weak-referenceable (``DataTuple`` itself is slotted)."""

        run = [Tracked("hr", i, {"bpm": 60}, float(i)) for i in range(5)]
        probe = weakref.ref(run[2])
        log = self.run_log([run])
        del run
        gc.collect()
        assert probe() is None
        assert [e.tid for e in log] == [0, 1, 2, 3, 4]

    def test_clear_restarts_seq(self):
        log = self.run_log([self.run_of(5)], capacity=3)
        log.clear()
        assert len(log) == log.evicted == 0 and not log.counts
        assert log.record("shield.rebind", ts=0.0, operator="ss").seq == 0
        assert len(log) + log.evicted == sum(log.counts.values()) == 1

    @pytest.mark.parametrize("drive,held_records", [
        pytest.param(push_all, 100, id="session"),
        pytest.param(DSMS.run, 1, id="run")])
    def test_all_denied_segment(self, drive, held_records):
        """100 tuples denied by one verdict — the stream's entry, since
        no query may see the {C} segment: ``run()`` holds them as one
        record, a session pushed tuple by tuple as 100; either way
        ``explain`` names the sp."""
        elements = [grant(["C"], 0.0)] + [
            reading(i, 70, 1.0 + i) for i in range(100)]
        dsms = DSMS(observability=Observability.in_memory())
        dsms.register_stream(SCHEMA, elements)
        dsms.register_query("nurse", ScanExpr("hr"), roles={"ND"})
        drive(dsms)
        log = dsms.audit
        assert log.counts["entry.drop"] == 100
        held = [r for r in log._records if r.kind == "entry.drop"]
        assert len(held) == held_records
        (event,) = log.explain(57)
        assert (event.kind, event.tid, event.ts) == ("entry.drop", 57, 58.0)
        assert event.detail["queries"] == ("nurse",)
        assert event.predicate == ("ND",)
        assert event.policy == ("C",) and "| C |" in event.sp


class TestPassRing:
    """Sampled ``*.pass`` verdicts live in the same log, in a ring of
    their own: they can be read back but never evict anything else."""

    SHARED = dict(operator="ss", query="q", predicate=("ND",),
                  policy=("D", "ND"), sp="<sp>")

    def test_pass_flood_cannot_evict_a_denial(self):
        from repro.observability.audit import _PASS_RECORDS

        log = AuditLog(capacity=10)
        log.record_run("shield.drop", [reading(0, 60, 0.0)], **self.SHARED)
        for i in range(1, 20_001):
            log.record_run("shield.pass", [reading(i, 60, float(i))],
                           **self.SHARED)
        (denial,) = log.explain(0)
        assert denial.kind == "shield.drop"
        assert log.evicted == 0 and len(log) == 1
        assert [e.tid for e in log] == [0]
        assert len(log._passes) == _PASS_RECORDS
        assert log.counts == {"shield.drop": 1, "shield.pass": 20_000}
        passes = log.events(kind="shield.pass")
        assert [e.tid for e in passes] == list(
            range(20_001 - _PASS_RECORDS, 20_001))
        assert log.last().tid == 20_000
        assert log.last("shield.drop") == denial
        buffer = io.StringIO()
        assert log.to_jsonl(buffer) == 1

    def test_both_rings_read_in_seq_order(self):
        log = AuditLog()
        for tid, kind in enumerate(["shield.pass", "shield.drop",
                                    "shield.pass", "shield.drop"]):
            log.record_run(kind, [reading(tid, 60, 1.0),
                                  reading(9, 60, 2.0)], **self.SHARED)
        assert [e.seq for e in log.events()] == list(range(8))
        assert [(e.seq, e.kind) for e in log.explain(9)] == [
            (1, "shield.pass"), (3, "shield.drop"),
            (5, "shield.pass"), (7, "shield.drop")]
        assert len(log) == 4
        log.clear()
        assert log.events() == [] and not log.counts

    @staticmethod
    def explained(sample, tid):
        dsms = DSMS(observability=Observability(
            tracer=Tracer(sample=sample)))
        dsms.register_stream(SCHEMA, quickstart_elements())
        dsms.register_query("doc", ScanExpr("hr"), roles={"D"})
        dsms.register_query("nurse", ScanExpr("hr"), roles={"ND"})
        push_all(dsms)
        return dsms.audit.explain(tid)

    def test_explain_carries_trace_ids_of_sampled_traces(self):
        # Tuple 3: passes the doctor's shields, denied by the nurse's.
        events = self.explained(1.0, 3)
        assert [e.seq for e in events] == sorted(e.seq for e in events)
        # Each query's one shield is its delivery outlet, so the
        # doctor's pass is the delivery.
        assert sorted((e.kind, e.operator, e.query) for e in events) == [
            ("shield.drop", "delivery:nurse", "nurse"),
            ("shield.pass", "delivery:doc", "doc")]
        assert [e.detail for e in events if e.kind == "shield.pass"] == [
            {"outlet": True}]
        # One push, one trace: the fifth element's.
        assert {e.trace_id for e in events} == {5}
        event = events[0]
        assert "trace_id" in event.to_dict()
        # ...which is where the decision was seen, not part of it.
        assert replace(event, trace_id=None) == event

    def test_unsampled_traces_record_denials_only(self):
        (event,) = self.explained(0.0, 3)
        assert event.kind == "shield.drop" and event.trace_id is None
        assert "trace_id" not in event.to_dict()


class TestFilterAudit:
    """``shield.drop`` names the governing sp under pre- and
    post-filtering (Section IV.A: the shield placed before or after the
    query's selection), element-wise and batched."""

    @pytest.mark.parametrize("placement", [
        pytest.param("pre", id="pre-filter"),
        pytest.param("post", id="post-filter")])
    @pytest.mark.parametrize("batched", [False, True])
    def test_filter_drop_carries_governing_sp(self, placement, batched):
        from repro.operators.conditions import Comparison
        from repro.operators.select import Select
        from repro.operators.shield import SecurityShield
        from repro.stream.batch import TupleBatch

        shield = SecurityShield(["ND"])
        shield.audit = log = AuditLog()
        select = Select(Comparison("bpm", ">", 0))
        chain = (shield, select) if placement == "pre" else (select, shield)
        early = [reading(8, 60, 0.25), reading(9, 61, 0.5)]
        late = [reading(3, 148, 4.0), reading(4, 150, 5.0)]
        for run in (early, [grant(["D", "C"], 3.0)], late):
            if batched and not hasattr(run[0], "srp"):
                items = [TupleBatch(run)]
            else:
                items = list(run)
            for operator in chain:
                out = []
                for item in items:
                    out.extend(operator.process_batch(item)
                               if isinstance(item, TupleBatch)
                               else operator.process(item))
                items = out
        drops = log.events(kind="shield.drop")
        assert [(e.tid, e.policy) for e in drops] == [
            (8, ()), (9, ()), (3, ("C", "D")), (4, ("C", "D"))]
        # Before any sp: denial-by-default, no sp to name.
        assert drops[0].sp is None and drops[1].sp is None
        assert "{C, D}" in drops[2].sp and "3.0" in drops[2].sp
        assert drops[2].sp == drops[3].sp
        assert shield.tuples_blocked == log.counts["shield.drop"] == 4
        assert "shield.pass" not in log.counts  # audit-only: no passes
