"""Tests for the classical selection rules (split/merge/pushdown)."""

from repro.algebra.expressions import (JoinExpr, ScanExpr, SelectExpr,
                                       ShieldExpr)
from repro.operators.conditions import And, Comparison
from tests.algebra.table2 import (MergeSelects, PushSelectIntoJoin,
                                  RewriteContext, SplitSelect)

LEFT_COND = Comparison("x", ">", 1)
RIGHT_COND = Comparison("y", "<", 5)

CTX = RewriteContext(
    policy_streams=frozenset({"a", "b"}),
    schemas={"a": frozenset({"k", "x"}), "b": frozenset({"k", "y"})},
)


def join():
    return JoinExpr(ScanExpr("a"), ScanExpr("b"), "k", "k", 10.0)


class TestSplitMerge:
    def test_split(self):
        expr = SelectExpr(ScanExpr("a"), And((LEFT_COND, RIGHT_COND)))
        rule = SplitSelect()
        assert rule.matches(expr, CTX)
        split = rule.apply(expr, CTX)
        assert isinstance(split, SelectExpr)
        assert isinstance(split.input, SelectExpr)

    def test_single_conjunct_no_split(self):
        expr = SelectExpr(ScanExpr("a"), LEFT_COND)
        assert not SplitSelect().matches(expr, CTX)

    def test_merge_inverts_split(self):
        expr = SelectExpr(ScanExpr("a"), And((LEFT_COND, RIGHT_COND)))
        split = SplitSelect().apply(expr, CTX)
        merged = MergeSelects().apply(split, CTX)
        assert merged == expr


class TestPushdown:
    def test_left_side(self):
        expr = SelectExpr(join(), LEFT_COND)
        rule = PushSelectIntoJoin()
        assert rule.matches(expr, CTX)
        pushed = rule.apply(expr, CTX)
        assert isinstance(pushed, JoinExpr)
        assert isinstance(pushed.left, SelectExpr)
        assert isinstance(pushed.right, ScanExpr)

    def test_right_side(self):
        expr = SelectExpr(join(), RIGHT_COND)
        pushed = PushSelectIntoJoin().apply(expr, CTX)
        assert isinstance(pushed.right, SelectExpr)

    def test_shared_attribute_not_pushed(self):
        # 'k' exists on both sides: ambiguous, must not push.
        expr = SelectExpr(join(), Comparison("k", "=", 3))
        assert not PushSelectIntoJoin().matches(expr, CTX)

    def test_no_schemas_no_pushdown(self):
        bare = RewriteContext(policy_streams=frozenset({"a", "b"}))
        expr = SelectExpr(join(), LEFT_COND)
        assert not PushSelectIntoJoin().matches(expr, bare)

    def test_semantics_preserved_on_execution(self):
        from repro.core.punctuation import SecurityPunctuation
        from repro.engine.executor import Executor
        from repro.stream.batch import segment_feed
        from repro.engine.plan import PhysicalPlan
        from repro.operators.sink import CollectingSink
        from repro.stream.schema import StreamSchema
        from repro.stream.source import ListSource
        from repro.stream.tuples import DataTuple

        expr = ShieldExpr(SelectExpr(join(), LEFT_COND),
                          frozenset({"D"}))
        pushed = ShieldExpr(
            PushSelectIntoJoin().apply(expr.input, CTX),
            frozenset({"D"}))

        def run(plan_expr):
            plan = PhysicalPlan()
            sink = plan.compile_expr(plan_expr, CollectingSink())
            sources = [
                ListSource(StreamSchema("a", ("k", "x")), [
                    SecurityPunctuation.grant(["D"], ts=0.0),
                    DataTuple("a", 1, {"k": 7, "x": 0}, 1.0),
                    DataTuple("a", 2, {"k": 7, "x": 9}, 2.0),
                ]),
                ListSource(StreamSchema("b", ("k", "y")), [
                    SecurityPunctuation.grant(["D"], ts=0.0),
                    DataTuple("b", 3, {"k": 7, "y": 1}, 3.0),
                ]),
            ]
            Executor(plan).run(segment_feed(sources))
            return sorted(t.tid for t in sink.operator.tuples())

        assert run(expr) == run(pushed) == [(2, 3)]
