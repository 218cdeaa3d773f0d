"""Tests for physical plan construction, compilation and execution."""

import pytest

from repro.algebra.expressions import ScanExpr, ShieldExpr
from repro.core.punctuation import SecurityPunctuation
from repro.engine.executor import Executor
from repro.engine.plan import PhysicalPlan
from repro.errors import PlanError
from repro.operators.conditions import Comparison
from repro.operators.index_join import IndexSAJoin
from repro.operators.join import NestedLoopSAJoin
from repro.operators.select import Select
from repro.operators.shield import SecurityShield
from repro.operators.sink import CollectingSink
from repro.stream.batch import segment_feed
from repro.stream.schema import StreamSchema
from repro.stream.source import ListSource, merge_sources
from repro.stream.tuples import DataTuple


def grant(roles, ts):
    return SecurityPunctuation.grant(roles, ts)


def tup(tid, value, ts, sid="s1"):
    return DataTuple(sid, tid, {"v": value}, ts)


SCHEMA = StreamSchema("s1", ("v",))


class TestManualConstruction:
    def test_linear_plan(self):
        plan = PhysicalPlan()
        shield = plan.add(SecurityShield(["D"]))
        sink = plan.add(CollectingSink())
        plan.connect(shield, sink)
        plan.connect_source("s1", shield)
        source = ListSource(SCHEMA, [grant(["D"], 0.0), tup(1, 5, 1.0)])
        Executor(plan).run(segment_feed([source]))
        assert [t.tid for t in sink.operator.tuples()] == [1]

    def test_invalid_port_rejected(self):
        plan = PhysicalPlan()
        a = plan.add(Select(Comparison("v", ">", 0)))
        b = plan.add(Select(Comparison("v", ">", 0)))
        with pytest.raises(PlanError):
            plan.connect(a, b, port=1)
        with pytest.raises(PlanError):
            plan.connect_source("s1", a, port=2)

    def test_topological_order(self):
        plan = PhysicalPlan()
        a = plan.add(Select(Comparison("v", ">", 0)))
        b = plan.add(Select(Comparison("v", ">", 0)))
        c = plan.add(CollectingSink())
        plan.connect(a, b)
        plan.connect(b, c)
        order = plan.topological()
        assert order.index(a) < order.index(b) < order.index(c)


class TestCompilation:
    def test_compiles_each_node_type(self):
        plan = PhysicalPlan()
        expr = (ScanExpr("s1")
                .select(Comparison("v", ">", 0))
                .project(["v"])
                .shield({"D"})
                .distinct(10.0, ["v"]))
        plan.compile_expr(expr, CollectingSink())
        names = {type(op).__name__ for op in plan.operators()}
        assert {"Select", "Project", "SecurityShield",
                "DuplicateElimination", "CollectingSink"} <= names

    def test_join_variants_compile(self):
        plan = PhysicalPlan()
        nl = ScanExpr("a").join(ScanExpr("b"), "x", "x", 5.0, variant="nl")
        ix = ScanExpr("a").join(ScanExpr("b"), "x", "x", 5.0,
                                variant="index")
        plan.compile_expr(nl, CollectingSink())
        plan.compile_expr(ix, CollectingSink())
        assert plan.find_operators(NestedLoopSAJoin)
        assert plan.find_operators(IndexSAJoin)

    def test_common_subexpression_shared(self):
        """Figure 5: queries sharing a subexpression share its node."""
        plan = PhysicalPlan()
        shared = ScanExpr("s1").select(Comparison("v", ">", 0)).shield({"D"})
        plan.compile_expr(shared.project(["v"]), CollectingSink())
        plan.compile_expr(shared.distinct(5.0), CollectingSink())
        selects = plan.find_operators(Select)
        shields = plan.find_operators(SecurityShield)
        assert len(selects) == 1
        assert len(shields) == 1

    def test_distinct_predicates_not_shared(self):
        plan = PhysicalPlan()
        base = ScanExpr("s1").select(Comparison("v", ">", 0))
        plan.compile_expr(base.shield({"D"}), CollectingSink())
        plan.compile_expr(base.shield({"C"}), CollectingSink())
        assert len(plan.find_operators(Select)) == 1
        assert len(plan.find_operators(SecurityShield)) == 2

    def test_shield_conjuncts_compiled(self):
        plan = PhysicalPlan()
        expr = ShieldExpr(ScanExpr("s1"),
                          (frozenset({"a"}), frozenset({"b"})))
        plan.compile_expr(expr, CollectingSink())
        (shield,) = plan.find_operators(SecurityShield)
        assert len(shield.conjuncts) == 2


class TestExecutor:
    def test_merges_sources_and_reports(self):
        plan = PhysicalPlan()
        sink = plan.compile_expr(ScanExpr("s1").shield({"D"}),
                                 CollectingSink())
        source = ListSource(SCHEMA, [grant(["D"], 0.0), tup(1, 5, 1.0),
                                     tup(2, 6, 2.0)])
        report = Executor(plan).run(segment_feed([source]))
        assert report.elements_in == 3
        assert report.tuples_in == 2
        assert report.sps_in == 1
        assert len(sink.operator.tuples()) == 2

    def test_two_stream_join_execution(self):
        plan = PhysicalPlan()
        expr = ScanExpr("a").join(ScanExpr("b"), "v", "v", 100.0)
        sink = plan.compile_expr(expr, CollectingSink())
        source_a = ListSource(StreamSchema("a", ("v",)), [
            grant(["D"], 0.0), tup(1, 7, 1.0, "a")])
        source_b = ListSource(StreamSchema("b", ("v",)), [
            grant(["D"], 0.0), tup(2, 7, 2.0, "b")])
        Executor(plan).run(segment_feed([source_a, source_b]))
        assert [t.tid for t in sink.operator.tuples()] == [(1, 2)]

    def test_feed_incremental(self):
        plan = PhysicalPlan()
        sink = plan.compile_expr(ScanExpr("s1").shield({"D"}),
                                 CollectingSink())
        executor = Executor(plan)
        executor.feed("s1", grant(["D"], 0.0))
        executor.feed("s1", tup(1, 5, 1.0))
        assert len(sink.operator.tuples()) == 1


class TestIterativePush:
    def test_deep_plan_exceeds_recursion_limit(self):
        """A >1000-operator chain must run without recursion errors."""
        import sys
        depth = sys.getrecursionlimit() + 100
        for cut in (merge_sources, segment_feed):  # bare tuples, one run
            plan = PhysicalPlan()
            nodes = [plan.add(Select(Comparison("v", ">", -1)))
                     for _ in range(depth)]
            sink = plan.add(CollectingSink())
            for upstream, downstream in zip(nodes, nodes[1:]):
                plan.connect(upstream, downstream)
            plan.connect(nodes[-1], sink)
            plan.connect_source("s1", nodes[0])
            source = ListSource(SCHEMA, [tup(i, 5, float(i + 1))
                                         for i in range(8)])
            Executor(plan).run(cut([source]))
            assert [t.tid for t in sink.operator.tuples()] == list(range(8))

    def test_batched_run_matches_element_wise_counters(self):
        def build():
            plan = PhysicalPlan()
            sink = plan.compile_expr(
                ScanExpr("s1").shield({"D"}), CollectingSink())
            source = ListSource(SCHEMA, [
                grant(["D"], 0.0), tup(1, 5, 1.0), tup(2, 6, 2.0),
                grant(["N"], 3.0), tup(3, 7, 4.0),
            ])
            return plan, sink, source

        reports, outputs = [], []
        for cut in (merge_sources, segment_feed):  # bare elements, runs
            plan, sink, source = build()
            reports.append(Executor(plan).run(cut([source])))
            outputs.append([t.tid for t in sink.operator.tuples()])
        assert outputs[0] == outputs[1] == [1, 2]
        assert reports[0].elements_in == reports[1].elements_in == 5
        assert reports[0].tuples_in == reports[1].tuples_in == 3
        assert reports[0].sps_in == reports[1].sps_in == 2
        assert reports[0].total_drops == reports[1].total_drops == 1


class TestExecutionReportStageLookup:
    def test_stage_lookup_by_name(self):
        plan = PhysicalPlan()
        plan.compile_expr(ScanExpr("s1").shield({"D"}), CollectingSink())
        source = ListSource(SCHEMA, [grant(["D"], 0.0), tup(1, 5, 1.0)])
        report = Executor(plan).run(segment_feed([source]))
        shield_stage = report.stage("SecurityShield")
        assert shield_stage is not None
        assert shield_stage.tuples_in == 1
        assert report.stage("NoSuchOperator") is None

    def test_stage_index_rebuilt_on_assignment(self):
        plan = PhysicalPlan()
        plan.compile_expr(ScanExpr("s1").shield({"D"}), CollectingSink())
        source = ListSource(SCHEMA, [grant(["D"], 0.0), tup(1, 5, 1.0)])
        report = Executor(plan).run(segment_feed([source]))
        report.stages = []
        assert report.stage("SecurityShield") is None
