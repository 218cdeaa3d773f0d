"""Physical query plans.

A physical plan is a DAG of operator nodes fed by named stream sources.
Plans are built either directly (``add`` / ``connect``) or compiled
from logical expressions (:meth:`PhysicalPlan.compile_expr`).  The
compiler hash-conses on structural expression equality, so queries
sharing a subexpression share the corresponding operator nodes — the
shared subplans of Figure 5 — and each shared stateful operator keeps a
single copy of its state.  Registered queries compile through
:meth:`PhysicalPlan.compile_queries`, the one place that decides which
shield hands each query its results.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence, cast

from repro.algebra.expressions import (DupElimExpr, GroupByExpr,
                                       JoinExpr, LogicalExpr, ProjectExpr,
                                       ScanExpr, SelectExpr, ShieldExpr,
                                       UnionExpr, walk)
from repro.core.bitmap import RoleUniverse
from repro.core.patterns import ANY
from repro.core.punctuation import SecurityPunctuation, Sign
from repro.errors import PlanError
from repro.operators.base import Operator, PolicyTracker, credit
from repro.operators.conditions import Comparison
from repro.operators.dupelim import DuplicateElimination
from repro.operators.groupby import GroupBy
from repro.operators.index_join import IndexSAJoin
from repro.operators.join import NestedLoopSAJoin
from repro.operators.project import Project
from repro.operators.select import Select
from repro.operators.setops import Union
from repro.operators.shield import SecurityShield
from repro.operators.sink import CollectingSink
from repro.stream.batch import TupleBatch
from repro.stream.tuples import DataTuple

if TYPE_CHECKING:
    from repro.core.analyzer import SPAnalyzer

__all__ = ["EntryGate", "PlanNode", "PhysicalPlan", "SelectGroup"]

_POSITIVE = Sign.POSITIVE
_NO_ROLES: frozenset[str] = frozenset()
#: No member passed yet (never appended to: a pass builds a new list).
_NO_RUNS: list = []

#: Operators below which a tuple no query's role may see can change no
#: delivered result (σ, π, ψ, ⋈, ∪, the sinks).  δ and G merge a
#: tuple's policy with other tuples' — a G subgroup's policy is the
#: union of its members' — so a stream that reaches one is not gated.
_GATEABLE = frozenset({Select, Project, SecurityShield, NestedLoopSAJoin,
                       IndexSAJoin, Union, CollectingSink})


class PlanNode:
    """One operator in the DAG plus its downstream edges."""

    __slots__ = ("operator", "downstream", "node_id", "serial")

    def __init__(self, operator: Operator, node_id: int):
        self.operator = operator
        self.node_id = node_id
        #: (child node, child input port) pairs.
        self.downstream: list[tuple["PlanNode", int]] = []
        #: Two downstream edges reach one operator (``push_sites``).
        self.serial = False

    def __repr__(self) -> str:
        return f"PlanNode#{self.node_id}({self.operator.name})"


class SelectGroup:
    """Entry selects ``attr <op> c_i`` of one stream on one attribute and
    ordering op, served by one executor hop: a value passes a prefix of
    the members sorted by constant (negated for ``<``/``<=``).

    A hop touches only the members a run passes.  The group counts the
    hops, tuples, sps and seconds so far (the executor bumps all but
    ``sps``) and keeps the sps of the current segment (an sp after a
    tuple hop starts the next one); an sp hop and a run no member
    passes change nothing else.  Every member sees the same hops, so
    those counts are the group's: a passing run calls, per passer, the
    ``hold`` of the segment's sps it has not taken (once per segment)
    and its ``emit`` (:meth:`emit`); :meth:`settle` credits the counts
    to every member, and brings each level, before anyone reads their
    counters."""

    __slots__ = ("nodes", "selects", "attribute", "name", "members",
                 "_sign", "_order", "_keys", "_cut", "_prefix", "hops",
                 "tuples", "sps", "seconds", "segment", "_first_sp",
                 "_first_tuple", "_took", "_settled", "_passed")

    def __init__(self, stream_id: str, nodes: "list[PlanNode]"):
        self.nodes = tuple(nodes)  # plan order
        self.selects = tuple(cast(Select, node.operator) for node in nodes)
        conditions = [cast(Comparison, s.condition) for s in self.selects]
        self.attribute, op = conditions[0].attribute, conditions[0].op
        #: What the one ``op.process`` span of a traced hop names.
        self.name = f"group:{stream_id}.{self.attribute}{op}"
        self.members = tuple(select.name for select in self.selects)
        self._sign = sign = -1 if op in ("<", "<=") else 1
        keys = [sign * cast(float, c.value) for c in conditions]
        self._order = sorted(range(len(keys)), key=keys.__getitem__)  # by key
        self._keys = [keys[i] for i in self._order]
        #: A strict op passes the constants below the value.
        self._cut = bisect_left if op in ("<", ">") else bisect_right
        #: Per prefix length, what a run of one passes (:meth:`passing`).
        self._prefix = [tuple((index, None) for index
                              in sorted(self._order[:count]))
                        for count in range(len(keys) + 1)]
        #: Hops, tuples, sps and seconds so far.
        self.hops = self.tuples = self.sps = 0
        self.seconds = 0.0
        #: The current segment's sps, and the sps and tuples hopped
        #: before its first.
        self.segment: list[SecurityPunctuation] = []
        self._first_sp = self._first_tuple = 0
        #: Per member, the sp count when it last took the segment's sps.
        self._took = [0] * len(keys)
        #: The four counts at the last settle, and the tuples when a run
        #: last passed or the group last settled.
        self._settled = (0, 0, 0, 0.0)
        self._passed = 0

    @property
    def rejected(self) -> int:
        """Tuples of the runs since the last run some member passed, or
        the last :meth:`settle`."""
        return self.tuples - self._passed

    def add_sp(self, sp: SecurityPunctuation) -> None:
        """An sp hop: the sp joins the current segment, or starts the
        next one after a tuple hop."""
        if self.tuples != self._first_tuple:
            self.segment = [sp]
            self._first_sp, self._first_tuple = self.sps, self.tuples
        else:
            self.segment.append(sp)
        self.sps += 1

    def passing(self, tuples: Sequence[DataTuple]
                ) -> "Sequence[tuple[int, list[DataTuple] | None]]":
        """``(member index, its passing tuples)`` of each member one run
        passes, in plan order (``None`` passes none; a non-number or NaN
        sends the run to ``Condition.filter``).  A run of one int or
        non-NaN float is one bisection: its prefix's precomputed
        members, each with ``None``, the whole run."""
        attribute, keys, cut, sign = (
            self.attribute, self._keys, self._cut, self._sign)
        if len(tuples) == 1:
            value = tuples[0].values.get(attribute)
            kind = type(value)
            if kind is int or kind is float and value == value:
                return self._prefix[cut(keys, sign * value)]
        # By rank, the passing tuples of the members passed so far.
        ranked: list[list[DataTuple]] = _NO_RUNS
        top = 0  # len(ranked)
        for item in tuples:
            value = item.values.get(attribute)
            if value is None:
                continue
            kind = type(value)
            if kind is not int and (kind is not float or value != value):
                return [(index, passed) for index, select
                        in enumerate(self.selects)
                        if (passed := select.condition.filter(tuples))]
            count = cut(keys, sign * value)
            if count > top:
                ranked = ranked + [[] for _ in range(count - top)]
                top = count
            for rank in range(count):
                ranked[rank].append(item)
        return sorted(zip(self._order, ranked)) if top else ()

    def emit(self, size: int,
             passing: "Sequence[tuple[int, list[DataTuple] | None]]",
             run: Sequence[DataTuple]) -> "list[tuple[PlanNode, list]]":
        """``(node, output)`` of each member of ``passing`` (``(index,
        its passing tuples)``, ``None`` for all of ``run``, the hopped
        run of ``size`` tuples): the member holds the current segment's
        sps if it has not taken them yet, emits its tuples, and its
        outputs are counted on its stats."""
        selects, nodes, took, sps, segment = (
            self.selects, self.nodes, self._took, self.sps, self.segment)
        self._passed = self.tuples
        emitted = []
        for index, tuples in passing:
            select = selects[index]
            stats = select.stats
            if took[index] != sps:
                # Behind by a segment at least: this one's sps are new.
                took[index] = sps
                for sp in segment:
                    select.hold(sp)
                stats.sps_out += len(segment)
            if tuples is None:
                tuples = run
            emitted.append((nodes[index], select.emit(size, tuples)))
            stats.tuples_out += len(tuples)
        return emitted

    def settle(self, end: bool = False) -> None:
        """Credit every member the hops, tuples, sps and an equal share
        of the seconds since the last settle (one ``credit`` call), and
        bring each level: one ``emit`` of the tuples it was not
        emitted, one ``discard`` of the sps of ended segments it never
        took — at the ``end`` of the stream the current one's too, as a
        lone select's ``flush`` does.  What a member was emitted, took
        and discarded is read off its counters, which start at zero
        with the group's."""
        now = hops, tuples, sps, seconds = (
            self.hops, self.tuples, self.sps, self.seconds)
        last, self._settled, self._passed = self._settled, now, tuples
        ended = sps if end else self._first_sp
        selects = self.selects
        for select, took in zip(selects, self._took):
            stats = select.stats
            if stats.comparisons != tuples:
                select.emit(tuples - stats.comparisons, [])
            skipped = (max(took, ended) - stats.sps_out
                       - select.sps_discarded)
            if skipped:
                select.discard(skipped)
        if end:
            self._took = [sps] * len(selects)
        credit(selects, hops - last[0], (seconds - last[3]) / len(selects),
               tuples - last[1], sps - last[2], [()] * len(selects))


class EntryGate(PolicyTracker):
    """A stream's entry: one ψ_{∪R} check every query shares.

    It is the stream's first :class:`PolicyTracker` and its one sp-batch
    holder: it holds each sp-batch (:meth:`observe_sp`) until the first
    tuple of its segment, runs the SP Analyzer (``analyzer``, the
    DSMS's, when the plan has one) on it as it closes it, then hands on
    the batch that took over — an incremental batch as its absolute
    equivalent, a stale one never — so nothing below an entry needs a
    batch an operator discarded.  A gated entry
    (``outlets`` given) also drops a segment, its batch and every run
    of it, when the batch is a *plain grant* (positive,
    non-incremental, fully wildcard-scoped sps with concrete roles:
    what :meth:`~SecurityPunctuation.segment_policy` requires) none of
    whose roles is in ∪R, the union of the predicates of the outlets of
    the queries reading the stream.  The decision is made once per
    sp-batch, from the sps' role sets, never through a resolved policy
    (it never calls :meth:`policy_for`); each query's outlet stays its
    own check.
    """

    __slots__ = ("outlets", "union", "audit", "analyzer", "dropped", "_sps",
                 "_roles", "_drop", "_fields")

    #: Audit kind of a dropped run.
    KIND = "entry.drop"

    def __init__(self, stream_id: str,
                 outlets: "Sequence[tuple[str, SecurityShield]] | None",
                 audit=None, analyzer: "SPAnalyzer | None" = None):
        super().__init__(stream_id)
        #: ``(query, outlet)`` of every query reading the stream, or
        #: ``None``: the entry normalises and never drops.
        self.outlets = outlets
        self.union: frozenset[str] | None = None
        self.audit = audit
        self.analyzer = analyzer
        #: Tuples dropped so far.
        self.dropped = 0
        #: Sps of the segment in force not yet handed on.
        self._sps: "Sequence[SecurityPunctuation]" = ()
        #: Roles of the batch in force if it is a plain grant, else None.
        self._roles: frozenset[str] | None = None
        self._drop = False
        #: ``(predicate, policy, sp, queries)`` of the segment's audit
        #: records, rendered once per dropped segment.
        self._fields: tuple | None = None
        self.rebind()

    def rebind(self) -> None:
        """Recompute ∪R from the outlets (after a role re-binding); the
        segment in force is decided again before the next element."""
        if self.outlets is None:
            return
        self.union = frozenset().union(
            *(outlet.predicate for _, outlet in self.outlets))
        self._fields = None
        self._drop = (self._roles is not None
                      and self._roles.isdisjoint(self.union))

    def _finalize_batch(self) -> None:
        """Close the arrived sp-batch in one walk.

        What the analyzer makes of it is the batch the tracker installs
        (an empty answer, a no-op delta, leaves the policy in force).
        One read of each sp gives the install its delta count and the
        drop decision its plain-grant roles; a batch that took over is
        the segment's to hand on, a stale one changes nothing."""
        batch = self._batch
        if not batch:
            return
        analyzer = self.analyzer
        if analyzer is not None:
            batch = analyzer.process_batch(batch)
            if not batch:
                self._batch = []
                return
        incremental = 0
        # The union of the sps' roles while every sp read so far is a
        # plain grant (positive, absolute, fully wildcard-scoped, with
        # concrete roles: what ``segment_policy`` requires), else None.
        roles: frozenset[str] | None = _NO_ROLES
        for sp in batch:
            if sp.incremental:
                incremental += 1
                roles = None
            elif roles is not None:
                granted = sp.srp.concrete_roles()
                ddp = sp.ddp
                if (granted is not None and sp.sign is _POSITIVE
                        and (ddp.stream is ANY or ddp.stream.is_wildcard())
                        and (ddp.tuple_id is ANY
                             or ddp.tuple_id.is_wildcard())
                        and (ddp.attribute is ANY
                             or ddp.attribute.is_wildcard())):
                    roles = roles | granted if roles else granted
                else:
                    roles = None
        if not self._install(batch, incremental):
            return
        self._sps, self._pending = self._pending, ()
        self._fields = None
        self._roles = roles
        union = self.union
        self._drop = (union is not None and roles is not None
                      and roles.isdisjoint(union))

    def close(self) -> None:
        """End of stream: close a trailing sp-batch.  No tuple follows,
        so nothing is handed on."""
        self._finalize_batch()

    def admit(self, run) -> "Sequence[SecurityPunctuation] | None":
        """The sps to push ahead of ``run`` (a tuple or a
        :class:`TupleBatch`), or ``None``: the run is dropped."""
        if self._batch:  # an sp arrived since the last tuple
            self._finalize_batch()
        if self._drop:
            tuples = run.tuples if type(run) is TupleBatch else (run,)
            self.dropped += len(tuples)
            if self.audit is not None:
                self._record(tuples)
            return None
        sps = self._sps
        if sps:
            self._sps = ()
        return sps

    def _record(self, tuples) -> None:
        """One must-keep ``entry.drop`` run record per dropped run."""
        fields = self._fields
        if fields is None:
            fields = self._fields = (
                tuple(sorted(self.union)), tuple(sorted(self._roles)),
                " | ".join(sp.to_text() for sp in self.current_sps()),
                tuple(name for name, _ in self.outlets))
        predicate, policy, sp, queries = fields
        self.audit.record_run(self.KIND, tuples,
                              operator=f"entry:{self.stream_id}",
                              predicate=predicate, policy=policy, sp=sp,
                              queries=queries)


class PhysicalPlan:
    """An executable operator DAG."""

    def __init__(self, universe: RoleUniverse | None = None):
        self.universe = universe if universe is not None else RoleUniverse()
        self.nodes: list[PlanNode] = []
        #: stream id -> [(entry node, port)]
        self.entries: dict[str, list[tuple[PlanNode, int]]] = {}
        self._expr_cache: dict[LogicalExpr, PlanNode] = {}
        #: query name -> (compiled expression, outlet shield), filled by
        #: :meth:`compile_queries`.
        self.queries: dict[str, tuple[LogicalExpr, SecurityShield]] = {}
        #: A query's sink -> ``(query, outlet)`` (:meth:`compile_queries`).
        self._sinks: dict[Operator, tuple[str, SecurityShield]] = {}
        #: stream id -> its :class:`EntryGate`, built by :meth:`entry_gates`.
        self.gates: dict[str, EntryGate] = {}
        #: The audit log entry drops are recorded into
        #: (:meth:`bind_observability`).
        self.audit = None
        #: The SP Analyzer every entry gate runs on its sp-batches
        #: (``DSMS.build_plan`` sets the DSMS's; ``None`` analyses
        #: nothing).
        self.analyzer: "SPAnalyzer | None" = None
        #: query name -> its shields, outlet last (:meth:`bind_observability`).
        self.shields: dict[str, list[SecurityShield]] = {}

    # -- construction ------------------------------------------------------
    def add(self, operator: Operator) -> PlanNode:
        node = PlanNode(operator, len(self.nodes))
        self.nodes.append(node)
        return node

    def connect(self, parent: PlanNode, child: PlanNode,
                port: int = 0) -> None:
        if not 0 <= port < child.operator.arity:
            raise PlanError(
                f"{child.operator.name} has no port {port}"
            )
        parent.downstream.append((child, port))

    def connect_source(self, stream_id: str, node: PlanNode,
                       port: int = 0) -> None:
        if not 0 <= port < node.operator.arity:
            raise PlanError(f"{node.operator.name} has no port {port}")
        self.entries.setdefault(stream_id, []).append((node, port))

    # -- compilation from logical expressions ------------------------------------
    def compile_expr(self, expr: LogicalExpr, sink: Operator) -> PlanNode:
        """Compile ``expr``, attach ``sink`` to its output, return sink node.

        Structurally equal subexpressions compile to shared nodes.
        """
        return self.compile_chain(expr, [sink])[-1]

    def compile_chain(self, expr: LogicalExpr,
                      operators: list[Operator]) -> list[PlanNode]:
        """Compile ``expr`` and attach a chain of unary operators (a
        query's outlet and its sink); returns the chain's nodes in order.
        """
        if not operators:
            raise PlanError("compile_chain requires at least one operator")
        nodes = [self.add(op) for op in operators]
        outlet = self._compile(expr)
        self._attach(outlet, nodes[0], 0)
        for parent, child in zip(nodes, nodes[1:]):
            self.connect(parent, child)
        return nodes

    def compile_queries(
        self, queries: "Iterable[tuple[str, LogicalExpr, Iterable[str]]]",
    ) -> dict[str, CollectingSink]:
        """Compile ``(name, expr, roles)`` queries; returns their sinks.

        A query's *outlet*, a ``delivery:<name>`` shield for ``roles``
        between its expression and its sink, hands the sink its
        results.  No compiled expression is an outlet, so no two
        queries share one and role re-binding rewrites it freely.
        """
        sinks: dict[str, CollectingSink] = {}
        for name, expr, roles in queries:
            sink = sinks[name] = CollectingSink(name=f"sink:{name}")
            outlet = SecurityShield(roles, name=f"delivery:{name}")
            self.compile_chain(expr, [outlet, sink])
            self.queries[name] = (expr, outlet)
            self._sinks[sink] = (name, outlet)
        return sinks

    def _attach(self, outlet: "str | PlanNode", node: PlanNode,
                port: int) -> None:
        if isinstance(outlet, str):
            self.connect_source(outlet, node, port)
        else:
            self.connect(outlet, node, port)

    def _compile(self, expr: LogicalExpr) -> "str | PlanNode":
        """Returns either a stream id (scan) or the producing node."""
        if isinstance(expr, ScanExpr):
            return expr.stream_id
        cached = self._expr_cache.get(expr)
        if cached is not None:
            return cached
        node = self._build_node(expr)
        self._expr_cache[expr] = node
        return node

    def _build_node(self, expr: LogicalExpr) -> PlanNode:
        children = [self._compile(child) for child in expr.children()]
        operator = self._make_operator(expr, children)
        node = self.add(operator)
        for port, outlet in enumerate(children):
            self._attach(outlet, node, port)
        return node

    def _make_operator(self, expr: LogicalExpr,
                       children: list) -> Operator:
        def sid(outlet, default: str) -> str:
            return outlet if isinstance(outlet, str) else default

        if isinstance(expr, ShieldExpr):
            for role in sorted(expr.roles):
                self.universe.register(role)
            return SecurityShield(expr.roles, sid(children[0], "*"),
                                  conjuncts=expr.predicates)
        if isinstance(expr, SelectExpr):
            return Select(expr.condition)
        if isinstance(expr, ProjectExpr):
            return Project(expr.attributes)
        if isinstance(expr, JoinExpr):
            left_sid = sid(children[0], "left")
            right_sid = sid(children[1], "right")
            if expr.variant == "nl":
                return NestedLoopSAJoin(
                    expr.left_on, expr.right_on, expr.window,
                    method=expr.method, left_sid=left_sid,
                    right_sid=right_sid,
                )
            return IndexSAJoin(
                expr.left_on, expr.right_on, expr.window,
                universe=self.universe, left_sid=left_sid,
                right_sid=right_sid,
            )
        if isinstance(expr, DupElimExpr):
            return DuplicateElimination(
                expr.window, expr.attributes,
                stream_id=sid(children[0], "*"),
            )
        if isinstance(expr, GroupByExpr):
            return GroupBy(expr.key, expr.agg, expr.attribute,
                           window=expr.window,
                           stream_id=sid(children[0], "*"))
        if isinstance(expr, UnionExpr):
            return Union(left_sid=sid(children[0], "left"),
                         right_sid=sid(children[1], "right"))
        raise PlanError(f"cannot compile {type(expr).__name__}")

    # -- dispatch -------------------------------------------------------------
    def push_sites(self) -> "dict[str, tuple[tuple, bool]]":
        """Per stream ``(hops, serial)``: a push site (entry list, node
        downstream) where two targets reach one operator (a self-join)
        takes runs tuple by tuple, as a session does; elsewhere, entry
        selects a bisection can serve are one :class:`SelectGroup`."""
        # Two paths first meet at a node with two inputs: reach only those.
        inputs = Counter(child for targets in [*self.entries.values(), *(
            node.downstream for node in self.nodes)] for child, _ in targets)
        reach: dict[PlanNode, set[PlanNode]] = {}
        for node in reversed(self.topological()):
            reach[node] = ({node} if inputs[node] > 1 else set()).union(
                *(reach[child] for child, _ in node.downstream))

        def crossing(targets: "list[tuple[PlanNode, int]]") -> bool:
            below = [reach[node] for node, _ in targets]
            return sum(map(len, below)) > len(set().union(*below))

        for node in self.nodes:
            node.serial = crossing(node.downstream)
        sites: dict[str, tuple[tuple, bool]] = {}
        for stream_id, targets in self.entries.items():
            serial, siblings = crossing(targets), {}
            for node, _ in targets:
                condition = getattr(node.operator, "condition", None)
                bisectable = (not serial and type(node.operator) is Select
                              and type(condition) is Comparison
                              and not condition.rhs_attribute
                              and condition.op in ("<", "<=", ">", ">=")
                              and type(condition.value) in (int, float)
                              and condition.value == condition.value)
                siblings.setdefault((condition.attribute, condition.op)
                                    if bisectable else None, []).append(node)
            groups = {nodes[0]: SelectGroup(stream_id, nodes)
                      for key, nodes in siblings.items()
                      if key is not None and len(nodes) > 1}
            later = set().union(*(g.nodes[1:] for g in groups.values()))
            sites[stream_id] = (tuple(
                groups.get(node, (node, port)) for node, port in targets
                if node not in later), serial)
        return sites

    def entry_gates(self) -> dict[str, EntryGate]:
        """A fresh :class:`EntryGate` per stream entry.

        A stream is gated — its entry may drop — when everything
        reachable from it is σ, π, ψ, ⋈, ∪ or a sink, and every node
        with nothing downstream is the sink of a query compiled by
        :meth:`compile_queries`; ∪R is then the union of those queries'
        outlet predicates (:meth:`refresh_gates` recomputes it).
        Otherwise — a hand-built reader, a δ or a G — the entry only
        normalises.
        """
        self.gates = {}
        order = {name: rank for rank, name in enumerate(self.queries)}
        for stream_id, targets in self.entries.items():
            outlets: "list[tuple[str, SecurityShield]] | None" = []
            seen: set[PlanNode] = set()
            stack = [node for node, _ in targets]
            while stack and outlets is not None:
                node = stack.pop()
                if node in seen:
                    continue
                seen.add(node)
                operator = node.operator
                if type(operator) not in _GATEABLE:
                    outlets = None
                elif not node.downstream:
                    query = self._sinks.get(operator)
                    if query is None:
                        outlets = None
                    else:
                        outlets.append(query)
                stack.extend(child for child, _ in node.downstream)
            if outlets is not None:
                outlets.sort(key=lambda query: order[query[0]])
            self.gates[stream_id] = EntryGate(stream_id, outlets, self.audit,
                                              self.analyzer)
        return self.gates

    def refresh_gates(self) -> None:
        """Recompute each gate's ∪R from the outlets' predicates (role
        re-binding: takes effect from the next element)."""
        for gate in self.gates.values():
            gate.rebind()

    # -- introspection ----------------------------------------------------------
    def bind_observability(self, observability) -> None:
        """Wire the compiled plan to an ``Observability`` hub.

        A query's shields (:attr:`queries`) — those its expression
        compiled to, then its outlet — are bound with ``query=name``,
        and the outlet is marked so its pass records say the tuple was
        delivered; every other operator (joins, dup-elim, group-by:
        shared, so query-anonymous) records through the same audit log
        when there is one; with a metrics registry every operator
        pre-binds its instrument children, so recording sites cost one
        attribute check.  Each query's shields, outlet last, are kept as
        :attr:`shields`.
        """
        shields = self.shields = {}
        for name, (expr, outlet) in self.queries.items():
            found = []
            for sub in walk(expr):
                # A ShieldExpr compiled into this plan maps to its node.
                node = (self._expr_cache.get(sub)
                        if isinstance(sub, ShieldExpr) else None)
                if node is not None and isinstance(node.operator,
                                                   SecurityShield):
                    found.append(node.operator)
            shields[name] = found + [outlet]
            outlet.outlet = True
            for shield in shields[name]:
                observability.bind(shield, query=name)
        if observability.audit is not None:
            self.audit = observability.audit
            for operator in self.operators():
                if operator.audit is None:
                    observability.bind(operator)
        instruments = observability.instruments
        if instruments is not None:
            for operator in self.operators():
                operator.bind_metrics(instruments)

    def topological(self) -> list[PlanNode]:
        """Nodes ordered so parents precede children."""
        indegree: dict[int, int] = {node.node_id: 0 for node in self.nodes}
        for node in self.nodes:
            for child, _ in node.downstream:
                indegree[child.node_id] += 1
        order: list[PlanNode] = []
        ready = [node for node in self.nodes
                 if indegree[node.node_id] == 0]
        while ready:
            node = ready.pop()
            order.append(node)
            for child, _ in node.downstream:
                indegree[child.node_id] -= 1
                if indegree[child.node_id] == 0:
                    ready.append(child)
        if len(order) != len(self.nodes):
            raise PlanError("plan contains a cycle")
        return order

    def operators(self) -> Iterator[Operator]:
        for node in self.nodes:
            yield node.operator

    def find_operators(self, op_type: type) -> list[Operator]:
        return [op for op in self.operators() if isinstance(op, op_type)]

    def __repr__(self) -> str:
        return (f"PhysicalPlan(nodes={len(self.nodes)}, "
                f"entries={sorted(self.entries)})")
