"""Multi-query plans: shared subplans bracketed by shields."""

from repro.algebra.expressions import ScanExpr, ShieldExpr
from repro.core.punctuation import SecurityPunctuation
from repro.engine.dsms import DSMS
from repro.engine.plan import PhysicalPlan
from repro.operators.conditions import Comparison
from repro.operators.select import Select
from repro.operators.shield import SecurityShield
from repro.operators.sink import CollectingSink
from repro.stream.schema import StreamSchema
from repro.stream.tuples import DataTuple

SCHEMA = StreamSchema("s", ("v",))


def elements():
    out = []
    ts = 0.0
    for segment, roles in enumerate((["a"], ["b"], ["a", "b"], ["c"])):
        ts += 1.0
        out.append(SecurityPunctuation.grant(roles, ts))
        for item in range(3):
            ts += 1.0
            tid = segment * 10 + item
            out.append(DataTuple("s", tid, {"v": tid}, ts))
    return out


class TestSharedSubplans:
    def test_three_queries_share_one_select(self):
        dsms = DSMS()
        dsms.register_stream(SCHEMA, elements())
        base = ScanExpr("s").select(Comparison("v", ">=", 10))
        dsms.register_query("qa", base, roles={"a"})
        dsms.register_query("qb", base, roles={"b"})
        dsms.register_query("qc", base, roles={"c"})
        plan, sinks = dsms.build_plan()
        # One shared Select; per query one shield, its delivery:<q>
        # outlet.
        assert len(plan.find_operators(Select)) == 1
        assert len(plan.find_operators(SecurityShield)) == 3

    def test_shared_plan_results_are_per_query_correct(self):
        dsms = DSMS()
        dsms.register_stream(SCHEMA, elements())
        base = ScanExpr("s")
        dsms.register_query("qa", base, roles={"a"})
        dsms.register_query("qb", base, roles={"b"})
        results = dsms.run()
        tids_a = [t.tid for t in results["qa"].tuples]
        tids_b = [t.tid for t in results["qb"].tuples]
        assert tids_a == [0, 1, 2, 20, 21, 22]
        assert tids_b == [10, 11, 12, 20, 21, 22]

    def test_merged_shield_feeding_shared_fragment(self):
        """Section VI.C: merge shields at the beginning of a shared
        fragment, split at the end — outputs equal per-query plans."""
        data = elements()

        def run_split():
            plan = PhysicalPlan()
            sink_a = plan.compile_expr(
                ShieldExpr(ScanExpr("s"), frozenset({"a"})),
                CollectingSink())
            sink_b = plan.compile_expr(
                ShieldExpr(ScanExpr("s"), frozenset({"b"})),
                CollectingSink())
            from repro.engine.executor import Executor
            from repro.stream.batch import segment_feed
            from repro.stream.source import ListSource
            Executor(plan).run(segment_feed([ListSource(SCHEMA, data)]))
            return ([t.tid for t in sink_a.operator.tuples()],
                    [t.tid for t in sink_b.operator.tuples()])

        def run_merged():
            plan = PhysicalPlan()
            merged = plan.add(SecurityShield(["a", "b"]))  # union predicate
            plan.connect_source("s", merged)
            shield_a = plan.add(SecurityShield(["a"]))
            shield_b = plan.add(SecurityShield(["b"]))
            sink_a = plan.add(CollectingSink())
            sink_b = plan.add(CollectingSink())
            plan.connect(merged, shield_a)
            plan.connect(merged, shield_b)
            plan.connect(shield_a, sink_a)
            plan.connect(shield_b, sink_b)
            from repro.engine.executor import Executor
            from repro.stream.batch import segment_feed
            from repro.stream.source import ListSource
            Executor(plan).run(segment_feed([ListSource(SCHEMA, data)]))
            return ([t.tid for t in sink_a.operator.tuples()],
                    [t.tid for t in sink_b.operator.tuples()])

        assert run_split() == run_merged()

    def test_operator_sharing_reduces_work(self):
        dsms = DSMS()
        dsms.register_stream(SCHEMA, elements())
        base = ScanExpr("s").select(Comparison("v", ">=", 0))
        dsms.register_query("qa", base, roles={"a"})
        dsms.register_query("qb", base, roles={"b"})
        plan, _ = dsms.build_plan()
        from repro.engine.executor import Executor
        from repro.stream.batch import segment_feed
        Executor(plan).run(segment_feed(dsms.catalog.sources()))
        (select,) = plan.find_operators(Select)
        # The shared select processed the stream once, not twice; the
        # 3 tuples granted to neither a nor b are dropped at the entry
        # (was 12).
        assert select.stats.tuples_in == 9
