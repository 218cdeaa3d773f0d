"""Security-aware algebra: logical expressions and their EXPLAIN form."""

from repro.algebra.explain import explain, node_label
from repro.algebra.expressions import (DupElimExpr, GroupByExpr,
                                       JoinExpr, LogicalExpr, ProjectExpr,
                                       ScanExpr, SelectExpr, ShieldExpr,
                                       UnionExpr, walk)

__all__ = [
    "DupElimExpr",
    "GroupByExpr",
    "JoinExpr",
    "LogicalExpr",
    "ProjectExpr",
    "ScanExpr",
    "SelectExpr",
    "ShieldExpr",
    "UnionExpr",
    "explain",
    "node_label",
    "walk",
]
