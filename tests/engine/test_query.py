"""Tests for continuous-query objects."""

import pytest

from repro.algebra.expressions import ScanExpr
from repro.engine.query import ContinuousQuery
from repro.errors import QueryError


class TestContinuousQuery:
    def test_expression_kept_as_registered(self):
        # The query's shield is its delivery:q outlet, built by the plan.
        expr = ScanExpr("s")
        query = ContinuousQuery("q", expr, roles={"D"})
        assert query.expr is expr

    def test_existing_shield_not_doubled(self):
        expr = ScanExpr("s").shield({"D"})
        query = ContinuousQuery("q", expr, roles={"D"})
        assert query.expr is expr

    def test_nested_shield_counts(self):
        expr = ScanExpr("s").shield({"D"}).project(["v"])
        query = ContinuousQuery("q", expr, roles={"D"})
        assert query.expr is expr

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

