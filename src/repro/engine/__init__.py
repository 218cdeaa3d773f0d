"""Query engine: physical plans, pipelined executor, DSMS facade."""

from repro.engine.catalog import RegisteredStream, StreamCatalog
from repro.engine.dsms import DSMS, QueryResult
from repro.engine.executor import ExecutionReport, Executor
from repro.engine.plan import PhysicalPlan, PlanNode
from repro.engine.query import ContinuousQuery

__all__ = [
    "ContinuousQuery",
    "DSMS",
    "ExecutionReport",
    "Executor",
    "PhysicalPlan",
    "PlanNode",
    "QueryResult",
    "RegisteredStream",
    "StreamCatalog",
]
