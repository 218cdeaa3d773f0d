"""Security Punctuations: access control for streaming data.

A from-scratch reproduction of *"A Security Punctuation Framework for
Enforcing Access Control on Streaming Data"* (Nehme, Rundensteiner,
Bertino — ICDE 2008): in-stream access-control metadata (security
punctuations), a security-aware stream algebra with the Security
Shield operator and SAJoin, a pipelined DSMS that compiles each query
as registered, the paper's baselines, and the full Section VII
experiment harness.

Quickstart::

    from repro import DSMS, ScanExpr, SecurityPunctuation, DataTuple
    from repro.stream import StreamSchema

    dsms = DSMS()
    dsms.register_stream(StreamSchema("hr", ["patient", "bpm"]), [
        SecurityPunctuation.grant(["D"], ts=0.0),
        DataTuple("hr", 1, {"patient": 1, "bpm": 72}, 1.0),
    ])
    dsms.register_query("q", ScanExpr("hr"), roles={"D"})
    print(dsms.run()["q"].tuples)
"""

from repro.algebra import (JoinExpr, ProjectExpr, ScanExpr, SelectExpr,
                           ShieldExpr)
from repro.core import (Policy, RoleUniverse, SecurityPunctuation, Sign,
                        SPAnalyzer, TuplePolicy)
from repro.engine import DSMS, ContinuousQuery, QueryResult
from repro.errors import ReproError
from repro.observability import (AuditEvent, AuditLog, JsonlTraceSink,
                                 Observability, StageStats, Tracer)
from repro.operators import (IndexSAJoin, NestedLoopSAJoin, Project,
                             SecurityShield, Select)
from repro.stream import DataTuple, StreamSchema

__version__ = "1.0.0"

__all__ = [
    "AuditEvent",
    "AuditLog",
    "ContinuousQuery",
    "DSMS",
    "DataTuple",
    "IndexSAJoin",
    "JoinExpr",
    "JsonlTraceSink",
    "NestedLoopSAJoin",
    "Observability",
    "Policy",
    "Project",
    "ProjectExpr",
    "QueryResult",
    "ReproError",
    "RoleUniverse",
    "SPAnalyzer",
    "ScanExpr",
    "SecurityPunctuation",
    "SecurityShield",
    "Select",
    "SelectExpr",
    "ShieldExpr",
    "Sign",
    "StageStats",
    "StreamSchema",
    "Tracer",
    "TuplePolicy",
    "__version__",
]
