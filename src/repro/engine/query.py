"""Continuous queries.

A continuous query pairs a logical expression with the roles of the
query specifier registered to receive its results (paper Section II.B:
"each query inherits the security restriction(s) associated with the
query specifier").  The DSMS compiles the expression as registered and
hands the query its results through one Security Shield for those
roles, its ``delivery:<name>`` outlet
(:meth:`~repro.engine.plan.PhysicalPlan.compile_queries`).
"""

from __future__ import annotations

from repro.algebra.expressions import LogicalExpr
from repro.errors import QueryError

__all__ = ["ContinuousQuery"]


class ContinuousQuery:
    """One registered continuous query."""

    def __init__(self, name: str, expr: LogicalExpr,
                 roles: frozenset[str] | set[str] | tuple | list,
                 *, user_id: str | None = None):
        if not name:
            raise QueryError("query requires a name")
        roles = frozenset(roles)
        if not roles:
            raise QueryError(
                f"query {name!r} has no roles; every query specifier "
                "must belong to at least one role"
            )
        self.name = name
        self.roles = roles
        self.user_id = user_id
        self.expr = expr

    def with_expr(self, expr: LogicalExpr) -> "ContinuousQuery":
        """Same query over ``expr`` (role re-binding rewrites its shields)."""
        clone = ContinuousQuery.__new__(ContinuousQuery)
        clone.name = self.name
        clone.roles = self.roles
        clone.user_id = self.user_id
        clone.expr = expr
        return clone

    def __repr__(self) -> str:
        return (f"ContinuousQuery({self.name!r}, "
                f"roles={sorted(self.roles)})")
