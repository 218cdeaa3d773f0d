"""Failure injection and robustness tests."""

import pytest

from repro.algebra.expressions import ScanExpr
from repro.core.punctuation import (DataDescription, SecurityPunctuation,
                                    SecurityRestriction)
from repro.engine.dsms import DSMS
from repro.engine.plan import PhysicalPlan
from repro.errors import PlanError, PunctuationError
from repro.operators.conditions import Comparison
from repro.operators.select import Select
from repro.operators.shield import SecurityShield
from repro.operators.sink import CollectingSink
from repro.stream.schema import StreamSchema
from repro.stream.tuples import DataTuple

SCHEMA = StreamSchema("s", ("v",))


def tup(tid, ts, **values):
    return DataTuple("s", tid, values or {"v": tid}, ts)


class TestMalformedPolicies:
    def test_unresolved_open_pattern_sp_fails_closed(self):
        """An sp with an open role pattern that skipped the analyzer
        raises rather than silently granting or denying wrongly."""
        shield = SecurityShield(["D"])
        raw_sp = SecurityPunctuation(
            ddp=DataDescription(),
            srp=SecurityRestriction.parse("/r[0-9]+/"),
            ts=1.0)
        shield.process(raw_sp)
        with pytest.raises(PunctuationError):
            shield.process(tup(1, 2.0))

    def test_analyzer_makes_open_patterns_safe(self):
        """The same sp routed through the DSMS (analyzer) is fine."""
        from repro.core.bitmap import RoleUniverse

        universe = RoleUniverse(["r1", "r2", "D"])
        dsms = DSMS(universe=universe)
        raw_sp = SecurityPunctuation(
            ddp=DataDescription(),
            srp=SecurityRestriction.parse("/r[0-9]+/"),
            ts=1.0, provider="p")
        dsms.register_stream(SCHEMA, [raw_sp, tup(1, 2.0)])
        dsms.register_query("q", ScanExpr("s"), roles={"r1"})
        results = dsms.run()
        assert [t.tid for t in results["q"].tuples] == [1]


class TestDegenerateInputs:
    def test_tuple_missing_condition_attribute(self):
        select = Select(Comparison("missing", ">", 1))
        assert select.process(tup(1, 1.0)) == []

    def test_incomparable_types_fail_closed(self):
        select = Select(Comparison("v", "<", 10))
        assert select.process(tup(1, 1.0, v="not-a-number")) == []

    def test_empty_stream_run(self):
        dsms = DSMS()
        dsms.register_stream(SCHEMA, [])
        dsms.register_query("q", ScanExpr("s"), roles={"D"})
        assert dsms.run()["q"].tuples == []

    def test_sp_only_stream(self):
        dsms = DSMS()
        dsms.register_stream(SCHEMA, [
            SecurityPunctuation.grant(["D"], ts=float(i), provider="p")
            for i in range(10)
        ])
        dsms.register_query("q", ScanExpr("s"), roles={"D"})
        assert dsms.run()["q"].tuples == []

    def test_unknown_stream_elements_ignored(self):
        """Elements for streams no query reads are simply dropped."""
        from repro.engine.executor import Executor
        from repro.stream.batch import segment_feed
        from repro.stream.source import ListSource

        plan = PhysicalPlan()
        sink = plan.compile_expr(ScanExpr("s").shield({"D"}),
                                 CollectingSink())
        other = ListSource(StreamSchema("other", ("v",)),
                           [DataTuple("other", 1, {"v": 1}, 1.0)])
        report = Executor(plan).run(segment_feed([other]))
        assert report.elements_in == 1
        assert sink.operator.elements == []


class TestPlanValidation:
    def test_cycle_detected(self):
        plan = PhysicalPlan()
        a = plan.add(Select(Comparison("v", ">", 0)))
        b = plan.add(Select(Comparison("v", ">", 0)))
        plan.connect(a, b)
        plan.connect(b, a)
        with pytest.raises(PlanError):
            plan.topological()

    def test_invalid_port_on_process(self):
        shield = SecurityShield(["D"])
        with pytest.raises(PlanError):
            shield.process(tup(1, 1.0), port=3)

    def test_compile_chain_requires_operators(self):
        plan = PhysicalPlan()
        with pytest.raises(PlanError):
            plan.compile_chain(ScanExpr("s"), [])


class TestStatsAccounting:
    def test_operator_stats_track_elements(self):
        shield = SecurityShield(["D"])
        shield.process(SecurityPunctuation.grant(["D"], ts=0.0))
        shield.process(tup(1, 1.0))
        shield.process(tup(2, 2.0))
        assert shield.stats.sps_in == 1
        assert shield.stats.tuples_in == 2
        assert shield.stats.tuples_out == 2
        assert shield.stats.sps_out == 1
        assert shield.stats.processing_time > 0
        shield.stats.reset()
        assert shield.stats.tuples_in == 0
