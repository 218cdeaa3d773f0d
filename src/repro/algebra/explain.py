"""EXPLAIN for security-aware plans.

Renders a logical plan as an indented operator tree::

    >>> print(explain(plan))        # doctest: +SKIP
    π[object_id]
      ψ[{retail}]
        σ[(x > 10)]
          Scan(locations)
"""

from __future__ import annotations

from repro.algebra.expressions import (DupElimExpr, GroupByExpr,
                                       JoinExpr, LogicalExpr, ProjectExpr,
                                       ScanExpr, SelectExpr, ShieldExpr,
                                       UnionExpr)

__all__ = ["explain", "node_label"]


def node_label(expr: LogicalExpr) -> str:
    """One-line label for a plan node (no children)."""
    if isinstance(expr, ScanExpr):
        return f"Scan({expr.stream_id})"
    if isinstance(expr, ShieldExpr):
        predicates = "∧".join(
            "{" + ",".join(sorted(p)) + "}" for p in expr.predicates)
        return f"ψ[{predicates}]"
    if isinstance(expr, SelectExpr):
        return f"σ[{expr.condition!r}]"
    if isinstance(expr, ProjectExpr):
        return f"π[{','.join(expr.attributes)}]"
    if isinstance(expr, JoinExpr):
        return (f"⋈[{expr.left_on}={expr.right_on}, W={expr.window}, "
                f"{expr.variant}]")
    if isinstance(expr, DupElimExpr):
        attrs = ",".join(expr.attributes) if expr.attributes else "*"
        return f"δ[{attrs}, W={expr.window}]"
    if isinstance(expr, GroupByExpr):
        return (f"G[{expr.key or '*'}; {expr.agg}({expr.attribute}); "
                f"W={expr.window}]")
    if isinstance(expr, UnionExpr):
        return "∪"
    return type(expr).__name__


def explain(expr: LogicalExpr, *, indent: int = 2) -> str:
    """Indented tree rendering, one node per line."""
    lines: list[str] = []

    def visit(node: LogicalExpr, depth: int) -> None:
        lines.append(" " * (indent * depth) + node_label(node))
        for child in node.children():
            visit(child, depth + 1)

    visit(expr, 0)
    return "\n".join(lines)
