"""Tests for continuous-query objects and auto-shielding."""

import pytest

from repro.algebra.expressions import ScanExpr, ShieldExpr
from repro.engine.query import ContinuousQuery
from repro.errors import QueryError


class TestContinuousQuery:
    def test_auto_shield_added_at_root(self):
        query = ContinuousQuery("q", ScanExpr("s"), roles={"D"})
        assert isinstance(query.expr, ShieldExpr)
        assert query.expr.roles == frozenset({"D"})

    def test_existing_shield_not_doubled(self):
        expr = ScanExpr("s").shield({"D"})
        query = ContinuousQuery("q", expr, roles={"D"})
        assert query.expr is expr

    def test_nested_shield_counts(self):
        expr = ScanExpr("s").shield({"D"}).project(["v"])
        query = ContinuousQuery("q", expr, roles={"D"})
        assert query.expr is expr  # shield anywhere in the tree suffices

    def test_auto_shield_can_be_disabled(self):
        query = ContinuousQuery("q", ScanExpr("s"), roles={"D"},
                                auto_shield=False)
        assert isinstance(query.expr, ScanExpr)

    def test_requires_name_and_roles(self):
        with pytest.raises(QueryError):
            ContinuousQuery("", ScanExpr("s"), roles={"D"})
        with pytest.raises(QueryError):
            ContinuousQuery("q", ScanExpr("s"), roles=set())

    def test_with_expr_preserves_identity(self):
        query = ContinuousQuery("q", ScanExpr("s"), roles={"D"},
                                user_id="alice")
        rewritten = query.with_expr(ScanExpr("other"))
        assert rewritten.name == "q"
        assert rewritten.roles == frozenset({"D"})
        assert rewritten.user_id == "alice"
        assert rewritten.expr == ScanExpr("other")


class TestIntersectCompilation:
    def test_intersect_expr_compiles_and_runs(self):
        from repro.algebra.expressions import IntersectExpr
        from repro.core.punctuation import SecurityPunctuation
        from repro.engine.executor import Executor
        from repro.stream.batch import segment_feed
        from repro.engine.plan import PhysicalPlan
        from repro.operators.sink import CollectingSink
        from repro.stream.schema import StreamSchema
        from repro.stream.source import ListSource
        from repro.stream.tuples import DataTuple

        expr = IntersectExpr(ScanExpr("a"), ScanExpr("b"), ("v",), 100.0)
        plan = PhysicalPlan()
        sink = plan.compile_expr(expr, CollectingSink())
        source_a = ListSource(StreamSchema("a", ("v",)), [
            SecurityPunctuation.grant(["D"], ts=0.0),
            DataTuple("a", 1, {"v": 7}, 1.0),
        ])
        source_b = ListSource(StreamSchema("b", ("v",)), [
            SecurityPunctuation.grant(["D"], ts=0.0),
            DataTuple("b", 2, {"v": 7}, 2.0),
            DataTuple("b", 3, {"v": 9}, 3.0),
        ])
        Executor(plan).run(segment_feed([source_a, source_b]))
        values = [t.values["v"] for t in sink.operator.tuples()]
        assert values == [7]
