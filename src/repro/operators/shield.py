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

Every verdict has one recorder, :meth:`SecurityShield._record`, and one
store, the hub's :class:`~repro.observability.audit.AuditLog`: a denial
is a ``shield.drop`` run record whenever a log is attached, a pass a
``shield.pass`` one while the current trace is head-sampled.  Nothing
else (no trace span, no second log) repeats the decision.
"""

from __future__ import annotations

import time
from typing import Iterable, Sequence

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

    #: Audit kinds of a pass, a denial and an evaluated sp-batch.
    _KIND_PASS, _KIND_DROP, _KIND_SEGMENT = (
        "shield.pass", "shield.drop", "shield.segment")
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
        #: Memoized per-role-set verdicts for non-uniform segments:
        #: ``roles -> (verdict, comparisons_delta)``.  ``_permits`` is
        #: deterministic given (roles, conjuncts, indexed), so replaying
        #: the recorded comparison delta keeps the scan-cost accounting
        #: bit-identical to an uncached evaluation.  Cleared on rebind.
        self._permits_memo: dict[frozenset[str], tuple[bool, int]] = {}
        #: Decision for the current uniform segment (None = per-tuple).
        self._segment_decision: bool | None = None
        self._decision_stale = True
        #: Sps held back until the first passing tuple of their segment.
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
        self._permits_memo.clear()
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

    def split(self, n_first: int = 1) -> tuple["SecurityShield",
                                               "SecurityShield"]:
        """Rule 1: split the conjunction into two stacked shields.

        ``ψ_{p1∧..∧pn}(T) ≡ ψ_{p1..pk}(ψ_{pk+1..pn}(T))`` — the first
        returned shield carries the first ``n_first`` conjuncts, the
        second the rest.  Requires at least two conjuncts.
        """
        if not 0 < n_first < len(self.conjuncts):
            raise ValueError(
                f"cannot split {len(self.conjuncts)} conjunct(s) at "
                f"{n_first}"
            )
        first = SecurityShield(self.conjuncts[0], self.tracker.stream_id,
                               indexed=self.indexed,
                               conjuncts=self.conjuncts[:n_first],
                               name=f"{self.name}[0:{n_first}]")
        second = SecurityShield(self.conjuncts[n_first],
                                self.tracker.stream_id,
                                indexed=self.indexed,
                                conjuncts=self.conjuncts[n_first:],
                                name=f"{self.name}[{n_first}:]")
        return first, second

    @classmethod
    def merged(cls, shields: Iterable["SecurityShield"],
               name: str | None = None) -> "SecurityShield":
        """Rule 1 (reverse): one SS carrying all conjuncts of the inputs."""
        shields = list(shields)
        conjuncts: list[frozenset[str]] = []
        stream_id = "*"
        indexed = True
        for shield in shields:
            conjuncts.extend(shield.conjuncts)
            stream_id = shield.tracker.stream_id
            indexed = indexed and shield.indexed
        return cls(conjuncts[0], stream_id, indexed=indexed,
                   conjuncts=conjuncts, name=name)

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

    def _permits_cached(self, policy: TuplePolicy) -> bool:
        """Memoized :meth:`_permits` keyed by the policy's role set.

        Non-uniform segments repeat a handful of distinct role sets
        across many tuples; the verdict *and* its comparison count are
        replayed from the memo so stats stay identical to evaluating
        every tuple from scratch.
        """
        memo = self._permits_memo
        cached = memo.get(policy.roles)
        if cached is not None:
            verdict, delta = cached
            self.stats.comparisons += delta
            return verdict
        before = self.stats.comparisons
        verdict = self._permits(policy)
        memo[policy.roles] = (verdict, self.stats.comparisons - before)
        return verdict

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
        if self.audit is not None:
            self._record((element,), passing)
        if not passing:
            self.tuples_blocked += 1
            if self._m_drop is not None:
                self._m_drop.inc()
                if self._segment_denial:
                    self._m_denial.inc()
            return []
        if self._m_pass is not None:
            self._m_pass.inc()
        out, self._held_sps = self._held_sps, []
        out.append(element)
        return out

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
        if decision is None:
            # Non-uniform policy: decide per tuple — but with the
            # staleness check, policy lookup plumbing and verdict
            # memoization hoisted out of the loop (an sp can never
            # arrive mid-batch, so the segment state is fixed here).
            out: list[StreamElement] = []
            policy_for = self.tracker.policy_for
            permits = self._permits_cached
            m_pass, m_drop = self._m_pass, self._m_drop
            audit = self.audit
            blocked = 0
            for item in tuples:
                passing = permits(policy_for(item))
                if audit is not None:
                    self._record((item,), passing)
                if passing:
                    if m_pass is not None:
                        m_pass.inc()
                    if self._held_sps:
                        out.extend(self._held_sps)
                        self._held_sps = []
                    out.append(item)
                else:
                    blocked += 1
                    if m_drop is not None:
                        m_drop.inc()
                        if self._segment_denial:
                            self._m_denial.inc()
            self.tuples_blocked += blocked
            return out
        if self.audit is not None:
            self._record(tuples, decision)
        if not decision:
            self.tuples_blocked += len(tuples)
            if self._m_drop is not None:
                self._m_drop.inc(len(tuples))
                if self._segment_denial:
                    self._m_denial.inc(len(tuples))
            return []
        if self._m_pass is not None:
            self._m_pass.inc(len(tuples))
        out, self._held_sps = self._held_sps, []
        out.append(batch)
        return out

    def _refresh_decision(self, item: DataTuple) -> None:
        """Evaluate a newly finalized sp-batch against the predicate."""
        # Sps of the previous segment still held (no passing tuple ever
        # arrived) are now definitively discarded with their segment.
        self.sps_blocked += len(self._held_sps)
        self._held_sps = []
        pending = self.tracker.take_pending_sps()
        policy = self.tracker.policy_for(item)
        if self.tracker.is_uniform:
            self._segment_decision = self._permits(policy)
            if self._segment_decision:
                self._held_sps = pending
            else:
                self.sps_blocked += len(pending)
        else:
            # Non-uniform policy: decide per tuple; the segment's sps
            # are released with the first tuple that passes.
            self._segment_decision = None
            self._held_sps = pending
        self._decision_stale = False
        audit = self.audit
        if self._m_prop is not None:
            self._segment_denial = not self.tracker.current_sps()
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
            self._KIND_SEGMENT, ts=item.ts, operator=self.name,
            query=self.audit_query, predicate=predicate, policy=policy,
            sp=sp, verdict=verdict,
        )

    def _record(self, tuples: Sequence[DataTuple], passing: bool) -> None:
        """The shield's one decision recorder: a verdict over ``tuples``,
        a run decided under one resolved policy (a single tuple on the
        ``process()`` path), held as one run record — one
        ``shield.drop`` / ``shield.pass`` event per tuple.  A denial is
        always recorded; a pass only while the log's tracer has a
        head-sampled trace open.
        A pass at a query's outlet carries ``outlet=True``: the tuple
        was delivered.
        """
        audit = self.audit
        if passing and not audit.wants_passes():
            return
        predicate, policy, sp = self._decision_fields(tuples[0])
        detail = {"outlet": True} if passing and self.outlet else {}
        audit.record_run(
            self._KIND_PASS if passing else self._KIND_DROP, tuples,
            operator=self.name, query=self.audit_query,
            predicate=predicate, policy=policy, sp=sp, **detail,
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
