"""The DSMS facade: streams in, sps analyzed, queries out (Figure 1).

:class:`DSMS` wires together everything the paper's architecture
diagram shows: data providers' streams (with embedded sps) enter
through the SP Analyzer; registered continuous queries — each guarded
by Security Shields for its specifier's roles — run as one shared
physical plan; each query's results are collected separately.

Typical use::

    dsms = DSMS()
    dsms.register_stream(schema, elements)
    dsms.register_query("q1", ScanExpr("s1").select(cond), roles={"D"})
    results = dsms.run()
    results["q1"].tuples

The facade also implements the paper's future-work items: runtime
role re-binding for queries (:meth:`update_query_roles`) and
incremental policy changes (new sps simply stream in; nothing is
stored server-side).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.access.rbac import RBACModel
from repro.algebra.expressions import LogicalExpr, ShieldExpr
from repro.core.analyzer import SPAnalyzer
from repro.core.bitmap import RoleUniverse
from repro.core.punctuation import SecurityPunctuation
from repro.engine.catalog import StreamCatalog
from repro.engine.executor import ExecutionReport, Executor
from repro.engine.plan import PhysicalPlan
from repro.engine.query import ContinuousQuery
from repro.errors import QueryError
from repro.observability import AuditLog, Observability
from repro.operators.shield import SecurityShield
from repro.operators.sink import CollectingSink
from repro.stream.batch import segment_feed
from repro.stream.element import StreamElement
from repro.stream.schema import StreamSchema
from repro.stream.source import ListSource, StreamSource
from repro.stream.tuples import DataTuple

if TYPE_CHECKING:
    from repro.engine.session import StreamingSession

__all__ = ["DSMS", "QueryResult"]


@dataclass
class QueryResult:
    """Results of one query after a run."""

    name: str
    elements: list[StreamElement] = field(default_factory=list)

    @property
    def tuples(self) -> list[DataTuple]:
        return [e for e in self.elements if isinstance(e, DataTuple)]

    @property
    def sps(self) -> list[SecurityPunctuation]:
        return [e for e in self.elements
                if isinstance(e, SecurityPunctuation)]

    def __repr__(self) -> str:
        return (f"QueryResult({self.name!r}, tuples={len(self.tuples)}, "
                f"sps={len(self.sps)})")


class DSMS:
    """A centralized data stream management system with sp enforcement."""

    def __init__(self, *, rbac: RBACModel | None = None,
                 universe: RoleUniverse | None = None,
                 observability: Observability | None = None):
        if universe is None:
            universe = rbac.universe if rbac is not None else RoleUniverse()
        self.universe = universe
        self.rbac = rbac
        #: Audit log + tracer + metrics; the default hub holds none
        #: of them and costs nothing (pass
        #: ``Observability.in_memory()`` to turn all three on).
        self.observability = (observability if observability is not None
                              else Observability())
        self.analyzer = SPAnalyzer(universe)
        self.analyzer.bind_observability(self.observability)
        self.catalog = StreamCatalog()
        self.queries: dict[str, ContinuousQuery] = {}
        #: The last compiled plan, whose shields :meth:`shields` shows;
        #: :meth:`update_query_roles` rewrites it and every open
        #: session's plan.
        self._live_plan: PhysicalPlan | None = None
        self._sessions: "weakref.WeakSet[StreamingSession]" = \
            weakref.WeakSet()
        self.last_report: ExecutionReport | None = None

    @property
    def audit(self) -> AuditLog | None:
        """The security audit trail — the one store of security
        decisions (``None`` unless the hub has an audit log or a
        tracer)."""
        return self.observability.audit

    # -- streams --------------------------------------------------------
    def register_stream(self, schema: StreamSchema,
                        elements=None, *,
                        source: StreamSource | None = None) -> None:
        """Register an input stream with its element source."""
        if source is None and elements is not None:
            source = ListSource(schema, list(elements))
        self.catalog.register(schema, source)

    def add_server_policy(self, sp: SecurityPunctuation) -> None:
        """Server-side policy, intersected with provider sps on entry."""
        self.analyzer.add_server_policy(sp)

    # -- queries ---------------------------------------------------------
    def register_query(self, name: str, expr: LogicalExpr, *,
                       roles=None, user_id: str | None = None
                       ) -> ContinuousQuery:
        """Register a continuous query for a set of roles or a user.

        With ``user_id`` (requires an RBAC model) the query inherits
        the user's active roles and the user is locked against role
        re-assignment for the lifetime of the registration.
        """
        if name in self.queries:
            raise QueryError(f"query {name!r} already registered")
        if roles is None:
            if user_id is None or self.rbac is None:
                raise QueryError(
                    "provide roles, or a user_id with an RBAC model")
            roles = self.rbac.roles_of(user_id)
            session = self.rbac.session_of(user_id)
            if session is not None:
                roles = session.active_roles
            self.rbac.lock(user_id)
        for role in roles:
            self.universe.register(role)
        query = ContinuousQuery(name, expr, roles, user_id=user_id)
        self.queries[name] = query
        return query

    def deregister_query(self, name: str) -> None:
        query = self.queries.pop(name, None)
        if query is None:
            raise QueryError(f"unknown query: {name!r}")
        if query.user_id is not None and self.rbac is not None:
            self.rbac.unlock(query.user_id)

    def update_query_roles(self, name: str, roles) -> None:
        """Runtime role re-binding (paper future work).

        Updates the registered query's roles and rewrites the predicates
        of that query's Security Shields in place, in every live plan —
        each open session's and the plan compiled last — taking effect
        from the next processed element, so the query answers as if
        registered with ``roles``.

        Raises :class:`~repro.errors.QueryError`, and changes nothing,
        when in any live plan one of the query's shields is also another
        query's: that shield must keep its predicate for the other
        query, and the re-bound query would silently get old ∩ new roles.
        """
        query = self.queries.get(name)
        if query is None:
            raise QueryError(f"unknown query: {name!r}")
        roles = frozenset(roles)
        if not roles:
            raise QueryError("a query must keep at least one role")
        plans = [plan for plan in dict.fromkeys(
            [self._live_plan, *(s._plan for s in list(self._sessions))])
            if plan is not None]
        for plan in plans:
            shared = {shield for other, shields in plan.shields.items()
                      if other != name for shield in shields}
            if shared.intersection(plan.shields.get(name, ())):
                raise QueryError(
                    f"cannot re-bind query {name!r}: its compiled plan "
                    "shares a Security Shield with another query, which "
                    "would narrow it to the old roles ∩ the new")
        new_expr = _replace_shield_roles(query.expr, query.roles, roles)
        self.queries[name] = query.with_expr(new_expr)
        self.queries[name].roles = roles  # type: ignore[misc]
        for plan in plans:
            for shield in plan.shields.get(name, ()):
                shield.rebind(roles)
            # ∪R at every stream entry follows the outlets' predicates.
            plan.refresh_gates()

    def shields(self, query_name: str) -> tuple[SecurityShield, ...]:
        """Read-only view of a query's live Security Shields.

        The shields its plan compiled to, then its outlet — the
        ``delivery:<name>`` shield that hands the query its results;
        empty until a plan has been
        compiled (:meth:`build_plan`, :meth:`run` or
        :meth:`open_session`).  This is the public surface callers and
        the audit layer use instead of reaching into plan internals.
        """
        if query_name not in self.queries:
            raise QueryError(f"unknown query: {query_name!r}")
        if self._live_plan is None:
            return ()
        return tuple(self._live_plan.shields.get(query_name, ()))

    # -- execution -----------------------------------------------------------
    def build_plan(self) -> tuple[PhysicalPlan, dict[str, CollectingSink]]:
        """Compile all registered queries, as registered, into one
        shared physical plan."""
        if not self.queries:
            raise QueryError("no queries registered")
        plan = PhysicalPlan(self.universe)
        # Every stream entry runs the SP Analyzer on its sp-batches.
        plan.analyzer = self.analyzer
        # Each query's results leave through one fixed check for its
        # roles, its ``delivery:<name>`` outlet (docs/PERFORMANCE.md,
        # "One shield per query").
        sinks = plan.compile_queries(
            (name, query.expr, query.roles)
            for name, query in self.queries.items())
        plan.bind_observability(self.observability)
        self._live_plan = plan
        return plan, sinks

    def open_session(self):
        """Open a live :class:`~repro.engine.session.StreamingSession`.

        The session keeps the compiled plan and lets the caller push
        elements incrementally; results arrive per push (or via
        subscriptions).  Useful where :meth:`run`'s finite-source model
        does not fit.
        """
        from repro.engine.session import StreamingSession

        session = StreamingSession(self)
        self._sessions.add(session)
        return session

    def run(self) -> dict[str, QueryResult]:
        """Execute all queries over all registered sources.

        Execution is segment-batched: the sources are cut into runs of
        tuples sharing one sp-batch
        (:func:`~repro.stream.batch.segment_feed`) and each run is
        pushed through the plan as one
        :class:`~repro.stream.batch.TupleBatch`, so per-segment
        decisions amortize over whole runs.  The SP Analyzer runs in
        each stream's entry gate, as in a session.  Results, the
        :class:`~repro.engine.executor.ExecutionReport`'s element
        counts and, with observability on, each operator's audit
        decisions are those of a :meth:`open_session` pushed the same
        elements one at a time, which is what the equivalence tests
        compare against.
        """
        plan, sinks = self.build_plan()
        # Streams merge in stream-id order (the tie-break for equal
        # timestamps).
        sources = sorted(self.catalog.sources(),
                         key=lambda source: source.stream_id)
        feed = segment_feed(sources)
        executor = Executor(plan, tracer=self.observability.tracer,
                            instruments=self.observability.instruments)
        self.last_report = executor.run(feed)
        return {
            name: QueryResult(name, list(sink.elements))
            for name, sink in sinks.items()
        }


def _replace_shield_roles(expr: LogicalExpr, old: frozenset[str],
                          new: frozenset[str]) -> LogicalExpr:
    """Rewrite shields whose only predicate is ``old`` to ``new``."""
    if isinstance(expr, ShieldExpr) and expr.predicates == (frozenset(old),):
        return ShieldExpr(
            _replace_shield_roles(expr.input, old, new), frozenset(new))
    children = tuple(_replace_shield_roles(c, old, new)
                     for c in expr.children())
    if not children:
        return expr
    return expr.with_children(*children)
