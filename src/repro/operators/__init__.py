"""Security-aware physical operators (Tables I and the Section V algorithms)."""

from repro.operators.aggregates import (Aggregate, Avg, Count, Max, Min, Sum,
                                        make_aggregate)
from repro.operators.base import (BinaryOperator, Operator, OperatorStats,
                                  PolicyTracker, SPEmitter, UnaryOperator)
from repro.operators.conditions import (And, Comparison, Condition,
                                        FuncCondition, Not, Or, TrueCondition)
from repro.operators.dupelim import DuplicateElimination
from repro.operators.groupby import GroupBy
from repro.operators.index_join import IndexSAJoin
from repro.operators.join import NestedLoopSAJoin, SAJoinBase
from repro.operators.project import Project
from repro.operators.select import Select
from repro.operators.setops import Union
from repro.operators.shield import SecurityShield
from repro.operators.sink import CollectingSink
from repro.operators.spindex import IndexEntry, SPIndex

__all__ = [
    "Aggregate",
    "And",
    "Avg",
    "BinaryOperator",
    "CollectingSink",
    "Comparison",
    "Condition",
    "Count",
    "DuplicateElimination",
    "FuncCondition",
    "GroupBy",
    "IndexEntry",
    "IndexSAJoin",
    "Max",
    "Min",
    "NestedLoopSAJoin",
    "Not",
    "Operator",
    "OperatorStats",
    "Or",
    "PolicyTracker",
    "Project",
    "SAJoinBase",
    "SecurityShield",
    "Select",
    "SPEmitter",
    "SPIndex",
    "Sum",
    "TrueCondition",
    "UnaryOperator",
    "Union",
]
