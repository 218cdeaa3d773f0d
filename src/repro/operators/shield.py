"""The Security Shield (SS, ψ) operator.

Table I: ``(t, Pt) ∈ ψp(T) iff Pt ∩ p ≠ ∅`` — a tuple passes the
shield iff its access-control policy (carried by the streaming sps)
shares at least one role with the security predicate ``p`` (the roles
of the queries downstream).  Tuples whose policy does not satisfy the
predicate are discarded together with their sps, preventing
unauthorized access; sps of passing segments are propagated unchanged.

Physically (Section V.A) the SS is a *stateful filter*: its state holds
the security predicates of the upstream operators/queries, plus the
currently buffered policy.  A newly arriving sp either extends the
buffered policy (same timestamp — sp-batch) or replaces it (newer
timestamp).  Once an sp-batch has been evaluated against the predicate,
the pass/discard decision applies to every following tuple of the
segment — the reason SS overhead shrinks as more tuples share an sp
(Figure 8a).

The ``indexed`` flag selects between a hash-set predicate membership
test (the "predicate index on the roles in the SS state", cf. the
grouped filter of CACQ/PSoup) and a deliberately naive linear scan of
the role list, used as the unindexed baseline in the Figure 8b
benchmark.

Every verdict goes through one site, :meth:`SecurityShield._verdict` —
once per run of a uniform segment, once per tuple of a non-uniform one
or of a bare tuple — which records, counts and emits it.  Its one store
is the hub's :class:`~repro.observability.audit.AuditLog`: a denial is
a ``shield.drop`` run record whenever a log is attached, a pass a
``shield.pass`` one while the current trace is head-sampled.  Nothing
else (no trace span, no second log, no verdict memo) repeats the
decision; the tracker caches each object's policy.
"""

from __future__ import annotations

import time
from typing import Iterable

from repro.core.bitmap import role_set
from repro.core.policy import TuplePolicy
from repro.core.punctuation import SecurityPunctuation
from repro.operators.base import PolicyTracker, UnaryOperator
from repro.stream.batch import TupleBatch
from repro.stream.element import StreamElement
from repro.stream.tuples import DataTuple

__all__ = ["SecurityShield"]


class SecurityShield(UnaryOperator):
    """Access-control filter driven by streaming security punctuations."""

    #: Whether this shield hands a query its results — set by
    #: :meth:`~repro.engine.plan.PhysicalPlan.bind_observability`.
    outlet = False

    def __init__(self, roles: Iterable[str] | str,
                 stream_id: str = "*", *, indexed: bool = True,
                 conjuncts: Iterable[Iterable[str] | str] | None = None,
                 name: str | None = None):
        super().__init__(name)
        roles = role_set(roles)
        #: The security predicate: a conjunction of role sets
        #: (ψ_{p1∧..∧pn}); a tuple passes iff its policy intersects
        #: every conjunct.  A single conjunct is the common case.
        self.conjuncts: tuple[frozenset[str], ...] = tuple(
            role_set(c) for c in conjuncts or ()) or (roles,)
        #: Union of all conjunct roles — the SS *state* whose size the
        #: Figure 8b experiment varies.
        self.predicate: frozenset[str] = frozenset().union(*self.conjuncts)
        self._predicate_list = sorted(self.predicate)
        #: Per-conjunct sorted role lists for the unindexed scan,
        #: precomputed so the per-tuple path never re-sorts.
        self._conjunct_scans = tuple(sorted(c) for c in self.conjuncts)
        self.indexed = indexed
        self.tracker = PolicyTracker(stream_id)
        #: Decision for the current uniform segment (None = per-tuple).
        self._segment_decision: bool | None = None
        self._decision_stale = True
        #: Sps of the current segment not sent yet: held until the first
        #: passing tuple of their segment, or discarded when it ends.
        self._held_sps: list[SecurityPunctuation] = []
        #: Tuples discarded by the shield (the security selectivity).
        self.tuples_blocked = 0
        self.sps_blocked = 0
        # -- metrics children (None until bind_metrics; every hot-path
        # recording site is guarded by one attribute check) ------------
        self._instruments = None
        self._m_pass = None
        self._m_drop = None
        self._m_prop = None
        self._m_seg = None
        self._m_denial = None
        #: Wall clock of the first sp of the pending batch (policy
        #: propagation lag start point).
        self._sp_wall: float | None = None
        #: Tuples seen since the last segment boundary (segment size).
        self._segment_tuples = 0
        #: Whether the current segment runs under denial-by-default.
        self._segment_denial = False
        #: ``(predicate, policy, sp)`` of the audit records of the
        #: current segment — cached only while the tracker is uniform
        #: (every verdict of the segment then shares them), invalidated
        #: on sp arrival and rebind.
        self._segment_fields: tuple | None = None

    # -- metrics wiring -----------------------------------------------------
    def bind_metrics(self, instruments) -> None:
        """Bind shield telemetry: verdict counters keyed by the role
        predicate, propagation-lag and segment-size histograms."""
        super().bind_metrics(instruments)
        self._instruments = instruments
        query = self.audit_query or ""
        roles = ",".join(self._predicate_list)
        self._m_pass = instruments.shield_tuples.labels(
            self.name, query, roles, "pass")
        self._m_drop = instruments.shield_tuples.labels(
            self.name, query, roles, "drop")
        self._m_prop = instruments.propagation.labels(self.name, query)
        self._m_seg = instruments.segment_size.labels(self.name)
        self._m_denial = instruments.denial_drops.labels(self.name, query)

    # -- predicate management (role re-binding) ------------------------------
    def rebind(self, roles: Iterable[str] | str) -> None:
        """Rewrite the security predicate at runtime (role re-binding).

        The paper's future-work item of runtime role changes:
        :meth:`~repro.engine.dsms.DSMS.update_query_roles` calls this
        on every live shield of a query.  The whole conjunction is
        replaced by the single new role set; the change takes effect
        for the very next processed element (the buffered segment
        decision is invalidated).  When an audit log is attached, the
        switch is recorded as a ``shield.rebind`` event.
        """
        old_predicate = tuple(self._predicate_list)
        roles = role_set(roles)
        self.predicate = roles
        self.conjuncts = (roles,)
        self._predicate_list = sorted(roles)
        self._conjunct_scans = (self._predicate_list,)
        self._decision_stale = True
        self._segment_fields = None
        if self._instruments is not None:
            # The roles label changed: re-point the verdict counters at
            # the new predicate's series.
            self.bind_metrics(self._instruments)
        if self.audit is not None:
            sps = self.tracker.current_sps()
            self.audit.record(
                "shield.rebind",
                ts=sps[-1].ts if sps else 0.0,
                operator=self.name, query=self.audit_query,
                predicate=tuple(self._predicate_list),
                previous=list(old_predicate),
            )

    # -- the predicate check ---------------------------------------------------
    def _permits(self, policy: TuplePolicy) -> bool:
        """``∀i: Pt ∩ pi ≠ ∅``, with or without the predicate index.

        Cost model (Section VI.A): each sp must scan the SS state, so
        the unindexed check walks the full role list; the indexed check
        probes hash sets per policy role.
        """
        stats = self.stats
        roles = policy.roles
        if self.indexed:
            for conjunct in self.conjuncts:
                # One hash probe per policy role, per conjunct probed
                # (short-circuit: a failed conjunct ends the check).
                stats.comparisons += len(roles)
                if roles.isdisjoint(conjunct):
                    return False
            return True
        passing = True
        for scan_list in self._conjunct_scans:
            hit = False
            for role in scan_list:
                stats.comparisons += 1
                if role in roles:
                    hit = True
                    # No break: the naive variant models a full scan.
            passing = passing and hit
        return passing

    # -- element processing -------------------------------------------------
    def _process(self, element: StreamElement,
                 port: int) -> list[StreamElement]:
        if isinstance(element, SecurityPunctuation):
            self.tracker.observe_sp(element)
            self._decision_stale = True
            self._segment_fields = None
            if self._m_prop is not None:
                self._observe_segment_boundary()
            return []
        if self._m_seg is not None:
            self._segment_tuples += 1
        if self._decision_stale:
            self._refresh_decision(element)
        passing = self._segment_decision
        if passing is None:
            # Non-uniform policy: decide per tuple.
            passing = self._permits(self.tracker.policy_for(element))
        return self._verdict(passing, element, 1)

    def _observe_segment_boundary(self) -> None:
        """Metrics at an sp arrival: close the previous segment's size
        observation and start the propagation-lag clock."""
        if self._sp_wall is None:
            # First sp of the pending batch: lag runs from here to the
            # first enforcement decision taken under the new policy.
            self._sp_wall = time.perf_counter()
        if self._segment_tuples:
            self._m_seg.observe(self._segment_tuples)
            self._segment_tuples = 0

    def _process_batch(self, batch: TupleBatch,
                       port: int) -> list[StreamElement]:
        """Segment fast path: one pass/drop decision for the whole run.

        A :class:`TupleBatch` never crosses an sp, so all its tuples
        fall under one policy state; for a uniform segment the cached
        sp-batch verdict covers the entire run in O(1) — the paper's
        Figure 8a amortization, vectorized.  Non-uniform segments keep
        the per-tuple decision loop.
        """
        tuples = batch.tuples
        if self._m_seg is not None:
            self._segment_tuples += len(tuples)
        if self._decision_stale:
            self._refresh_decision(tuples[0])
        decision = self._segment_decision
        if decision is not None:
            return self._verdict(decision, batch, len(tuples))
        # Non-uniform policy: decide per tuple (an sp never arrives
        # mid-run, so the segment state is fixed here).
        out: list[StreamElement] = []
        policy_for, permits, verdict = (self.tracker.policy_for,
                                        self._permits, self._verdict)
        for item in tuples:
            out += verdict(permits(policy_for(item)), item, 1)
        return out

    def _verdict(self, passing: bool, run: DataTuple | TupleBatch,
                 n: int) -> list[StreamElement]:
        """The shield's one verdict site: ``passing`` over ``run`` — one
        tuple, or a segment run of ``n`` tuples decided under one
        resolved policy.  Records it, counts it and, on a pass, emits
        the held sps ahead of the run.

        The record is one run record — a ``shield.drop`` /
        ``shield.pass`` event per tuple: a denial whenever a log is
        attached, a pass only while the log's tracer has a head-sampled
        trace open.  A pass at a query's outlet carries
        ``outlet=True``: the tuple was delivered.
        """
        audit = self.audit
        if audit is not None and (not passing or audit.wants_passes()):
            tuples = run.tuples if type(run) is TupleBatch else (run,)
            predicate, policy, sp = self._decision_fields(tuples[0])
            detail = {"outlet": True} if passing and self.outlet else {}
            audit.record_run(
                "shield.pass" if passing else "shield.drop", tuples,
                operator=self.name, query=self.audit_query,
                predicate=predicate, policy=policy, sp=sp, **detail)
        if not passing:
            self.tuples_blocked += n
            if self._m_drop is not None:
                self._m_drop.inc(n)
                if self._segment_denial:
                    self._m_denial.inc(n)
            return []
        if self._m_pass is not None:
            self._m_pass.inc(n)
        out, self._held_sps = self._held_sps, []
        out.append(run)
        return out

    def _refresh_decision(self, item: DataTuple) -> None:
        """Evaluate the sp-batch in force against the predicate (after a
        new batch or a rebind).

        The segment's sps stay held until a tuple passes or the segment
        ends; a dropped segment's are counted blocked when it is
        dropped, and uncounted if a rebind lets it pass.
        """
        tracker = self.tracker
        held = self._held_sps
        if self._segment_decision is False:
            self.sps_blocked -= len(held)
        pending = tracker.take_pending_sps()
        if pending:
            # A new segment: the old one's unsent sps go with it.
            self.sps_blocked += len(held)
            held = self._held_sps = pending
        policy = tracker.policy_for(item)
        if tracker.is_uniform:
            self._segment_decision = self._permits(policy)
            if not self._segment_decision:
                self.sps_blocked += len(held)
        else:
            # Non-uniform policy: decide per tuple; the segment's sps
            # are released with the first tuple that passes.
            self._segment_decision = None
        self._decision_stale = False
        audit = self.audit
        if self._m_prop is not None:
            self._segment_denial = not tracker.current_sps()
            if self._sp_wall is not None:
                # First enforcement decision under the new policy: the
                # paper's "speed of enforcement", measured.
                lag = time.perf_counter() - self._sp_wall
                self._m_prop.observe(lag)
                if audit is not None and audit.wants_passes():
                    # A head-sampled trace is open: point at it.
                    self._m_prop.exemplar(lag, audit.tracer.trace_id)
                self._sp_wall = None
        if audit is not None:
            self._audit_segment(item)

    # -- audit recording ----------------------------------------------------
    def _decision_fields(self, item: DataTuple) -> tuple:
        """``(predicate, policy, sp)`` of a decision about ``item``.

        Under a uniform policy they are the same for the whole segment
        and rendered once; a non-uniform tracker (buffered segment
        decision ``None``) resolves the policy per tuple.
        """
        fields = self._segment_fields
        if fields is None:
            sps = self.tracker.current_sps()
            fields = (
                tuple(self._predicate_list),
                tuple(sorted(self.tracker.policy_for(item).roles)),
                " | ".join(sp.to_text() for sp in sps) if sps else None)
            if self._segment_decision is not None:
                self._segment_fields = fields
        return fields

    def _audit_segment(self, item: DataTuple) -> None:
        """One ``shield.segment`` event per evaluated sp-batch."""
        if self._segment_decision is None:
            verdict = "per-tuple"
        else:
            verdict = "pass" if self._segment_decision else "drop"
        predicate, policy, sp = self._decision_fields(item)
        self.audit.record(
            "shield.segment", ts=item.ts, operator=self.name,
            query=self.audit_query, predicate=predicate, policy=policy,
            sp=sp, verdict=verdict,
        )

    def flush(self) -> list[StreamElement]:
        """End of stream: the trailing segment's size is now known."""
        if self._m_seg is not None and self._segment_tuples:
            self._m_seg.observe(self._segment_tuples)
            self._segment_tuples = 0
        return []

    def state_size(self) -> int:
        return len(self.predicate)

    def drops(self) -> int:
        return self.tuples_blocked

    def __repr__(self) -> str:
        return (f"{type(self).__name__}({self._predicate_list}, "
                f"indexed={self.indexed})")
