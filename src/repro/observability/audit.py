"""The security audit trail: who was denied what, and why.

Every enforcement decision the engine takes is describable as "this
operator, under this role predicate, applied this sp to this element".
:class:`AuditEvent` captures exactly that tuple of facts;
:class:`AuditLog` keeps a bounded history of them.

This log is the one place a security decision is stored — ``repro
audit``, ``repro why`` and the differ's denial counts all read it;
no trace span repeats it.

Event kinds currently recorded:

``shield.segment``
    A Security Shield evaluated a newly finalized sp-batch against its
    predicate; the verdict governs every tuple of the segment.
``shield.drop``
    A shield (including the per-query delivery shield) discarded one
    tuple; ``sp`` names the governing sp-batch (``None`` under
    denial-by-default).  Exactly one event per denied tuple per
    shield.
``entry.drop``
    A stream's entry (:class:`~repro.engine.plan.EntryGate`) dropped
    one tuple of a segment whose plain grant names no role of any
    query reading the stream; ``predicate`` is that union of roles,
    ``policy`` the grant's roles, ``sp`` the governing sp-batch and
    ``detail["queries"]`` the queries reading the stream.  Held as
    one run record per dropped run.
``shield.pass``
    A shield let one tuple through (``outlet=True`` in
    ``detail`` at a query's outlet: delivered).  Recorded only
    while the hub's tracer has a head-sampled trace open (never by an
    audit-only hub), and held apart — see *Retention* below.
``shield.rebind``
    A shield's predicate was rewritten at runtime
    (:meth:`~repro.operators.shield.SecurityShield.rebind`).
``analyzer.refine``
    The SP Analyzer intersected a provider sp with server policies.
``join.policy_reject``
    An SAJoin pair matched on the join value but had incompatible
    policies (Table I: empty policy intersection).
``join.deny``
    A probing tuple fell under denial-by-default (empty own policy)
    and joined with nothing.
``join.skip``
    The SPIndex skipping rule (Lemma 5.1) suppressed duplicate segment
    visits during one probe.
``dupelim.suppress``
    Duplicate elimination suppressed a value all authorized roles had
    already seen (Section IV.B case 2).
``groupby.merge``
    Group-by merged attribute subgroups bridged by a tuple's policy.

Run records.  A verdict over a run of tuples — a shield dropping a
whole s-punctuated segment — is recorded once
(:meth:`AuditLog.record_run`): the fields the decisions share are held
a single time next to the run's ``tid`` and ``ts`` columns, never the
tuples themselves; a single decision is a run of one.  That is purely
a storage form: iteration, :meth:`~AuditLog.events`,
:meth:`~AuditLog.explain`, :meth:`~AuditLog.to_jsonl`, ``counts`` and
``len()`` all speak in per-decision :class:`AuditEvent` units, and each
decision of a run owns one ``seq`` number.

Ordering.  Per operator, the decision sequence is the same whether
elements arrive cut into segment runs (``run()``) or one per push (a
session).  The interleaving *across* operators follows the cut (a
shield finishes a run before the next operator sees any of it) and is
not part of the contract.

Retention.  The log is bounded, in two classes.  Every kind but the
passes is *must-keep*: ``capacity`` bounds the held decisions;
recording past it evicts whole records, oldest first (``evicted``
counts the decisions lost; a single run longer than ``capacity`` keeps
its newest ``capacity`` decisions); ``len()``, iteration and
:meth:`~AuditLog.to_jsonl` speak of this class only.  Sampled
``*.pass`` records sit in a ring of their own, bounded in *records*,
so a flood of passes can never evict a denial; ``events()``,
``explain()`` and ``last()`` read both classes in ``seq`` order.
Counts per kind (passes included) are kept unbounded, so rates stay
exact even after eviction.
"""

from __future__ import annotations

import json
from collections import Counter, deque
from dataclasses import asdict, dataclass, field
from heapq import merge
from operator import attrgetter
from typing import IO, Iterable, Iterator, Sequence

__all__ = ["AuditEvent", "AuditLog"]

DEFAULT_CAPACITY = 10_000

#: Bound, in records, of the ring holding sampled ``*.pass`` verdicts
#: (the span ring's default size).
_PASS_RECORDS = 4096

_BY_SEQ = attrgetter("seq")

_ENCODER = json.JSONEncoder(default=str, separators=(",", ":"))


@dataclass(frozen=True)
class AuditEvent:
    """One recorded security decision."""

    #: Monotonic sequence number (order of recording).
    seq: int
    #: Event kind (``shield.drop``, ``analyzer.refine``, ...).
    kind: str
    #: Stream timestamp of the element that triggered the decision.
    ts: float
    #: Name of the deciding operator (or ``SPAnalyzer``).
    operator: str
    #: Query the operator enforces for, when attributable.
    query: str | None = None
    #: Stream id of the affected tuple, if the decision concerns one.
    sid: str | None = None
    #: Tuple id of the affected tuple.
    tid: object | None = None
    #: The security predicate in force (sorted role names).
    predicate: tuple[str, ...] = ()
    #: The resolved policy roles the predicate was checked against.
    policy: tuple[str, ...] = ()
    #: Text rendering of the sp(s) that decided the outcome.
    sp: str | None = None
    #: Kind-specific extras (counts, before/after role sets, ...).
    detail: dict = field(default_factory=dict)
    #: Trace the verdict was taken in, when that trace is head-sampled
    #: (joins the decision to its ``op.process`` spans).  Not part of
    #: the decision itself: ignored by ``==``.
    trace_id: int | None = field(default=None, compare=False)

    def to_dict(self) -> dict:
        record = asdict(self)
        record["predicate"] = list(self.predicate)
        record["policy"] = list(self.policy)
        if self.trace_id is None:
            del record["trace_id"]
        return record

    def __str__(self) -> str:
        core = f"#{self.seq} {self.kind} op={self.operator}"
        if self.query is not None:
            core += f" query={self.query}"
        if self.tid is not None:
            core += f" tuple={self.sid}:{self.tid}@{self.ts}"
        if self.predicate:
            core += f" predicate={list(self.predicate)}"
        if self.sp:
            core += f" sp=<{self.sp}>"
        if self.trace_id is not None:
            core += f" trace={self.trace_id}"
        return core


@dataclass(slots=True, eq=False)
class _RunRecord:
    """Held form of one verdict over a run of tuples (or of one
    decision: a run of length 1).

    The shared fields once, plus the run's ``tid``/``ts`` columns;
    decision ``i`` of the run is the :class:`AuditEvent` with
    ``seq + i``, ``tids[i]`` and ``tss[i]``.
    """

    seq: int
    kind: str
    operator: str
    query: str | None
    sid: str | None
    predicate: tuple[str, ...]
    policy: tuple[str, ...]
    sp: str | None
    detail: dict
    tids: list
    tss: list
    trace_id: int | None = None

    def event(self, i: int) -> AuditEvent:
        return AuditEvent(seq=self.seq + i, kind=self.kind, ts=self.tss[i],
                          operator=self.operator, query=self.query,
                          sid=self.sid, tid=self.tids[i],
                          predicate=self.predicate, policy=self.policy,
                          sp=self.sp, detail=dict(self.detail),
                          trace_id=self.trace_id)

    def events(self) -> Iterator[AuditEvent]:
        return map(self.event, range(len(self.tids)))


class AuditLog:
    """Bounded, queryable history of :class:`AuditEvent` records."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity <= 0:
            raise ValueError("audit log capacity must be positive")
        self.capacity = capacity
        #: The hub's causal tracer, if any (set by ``Observability``):
        #: its sampling verdict decides which passes are recorded, and
        #: a sampled trace's id is stamped on the verdicts taken in it.
        self.tracer = None
        self._records: deque[_RunRecord] = deque()
        #: Sampled ``*.pass`` records, apart so they never evict the rest.
        self._passes: deque[_RunRecord] = deque(maxlen=_PASS_RECORDS)
        #: Must-keep decisions held (a run record counts its length).
        self._held = 0
        self._seq = 0
        #: Must-keep decisions recorded but no longer held (eviction).
        self.evicted = 0
        #: Exact per-kind totals, unaffected by eviction.
        self.counts: Counter[str] = Counter()

    # -- recording ---------------------------------------------------------
    def record(self, kind: str, *, ts: float, operator: str,
               query: str | None = None, sid: str | None = None,
               tid: object | None = None,
               predicate: tuple[str, ...] = (),
               policy: tuple[str, ...] = (),
               sp: str | None = None,
               **detail) -> AuditEvent:
        """Append one event; returns it (mainly for tests)."""
        run = _RunRecord(self._seq, kind, operator, query, sid, predicate,
                         policy, sp, detail, [tid], [ts])
        self._seq += 1
        self._records.append(run)
        self.counts[kind] += 1
        self._held += 1
        if self._held > self.capacity:
            self._evict()
        return run.event(0)

    def record_run(self, kind: str, tuples: Sequence, *, operator: str,
                   query: str | None = None,
                   predicate: tuple[str, ...] = (),
                   policy: tuple[str, ...] = (),
                   sp: str | None = None,
                   **detail) -> None:
        """Append one decision per tuple of ``tuples``, held as one record.

        ``tuples`` is a non-empty run of same-stream data tuples that
        all received the verdict described by the other arguments.
        Only their ``tid``/``ts`` columns are kept.  A ``*.pass`` kind
        goes to the pass ring (callers check :meth:`wants_passes`
        first).
        """
        n = len(tuples)
        tracer = self.tracer
        run = _RunRecord(
            self._seq, kind, operator, query, tuples[0].sid, predicate,
            policy, sp, detail,
            [item.tid for item in tuples], [item.ts for item in tuples],
            tracer.trace_ref() if tracer is not None else None)
        self._seq += n
        self.counts[kind] += n
        if kind.endswith(".pass"):
            self._passes.append(run)
            return
        self._records.append(run)
        self._held += n
        if self._held > self.capacity:
            self._evict()

    def wants_passes(self) -> bool:
        """Whether a pass verdict taken now is worth recording: only
        while the hub's tracer has a head-sampled trace open."""
        tracer = self.tracer
        return tracer is not None and tracer.active

    def _evict(self) -> None:
        """Drop whole records, oldest first, down to ``capacity``."""
        records = self._records
        while self._held > self.capacity and len(records) > 1:
            n = len(records.popleft().tids)
            self._held -= n
            self.evicted += n
        excess = self._held - self.capacity
        if excess > 0:
            # One run longer than the whole log: keep its newest part.
            run = records[0]
            run.seq += excess
            del run.tids[:excess]
            del run.tss[:excess]
            self._held -= excess
            self.evicted += excess

    # -- querying ----------------------------------------------------------
    def _all_records(self) -> "Iterable[_RunRecord]":
        """Held records of both retention classes, in ``seq`` order."""
        if not self._passes:
            return self._records
        return merge(self._records, self._passes, key=_BY_SEQ)

    def events(self, *, query: str | None = None,
               kind: str | None = None) -> list[AuditEvent]:
        """Held events (sampled passes included), optionally filtered
        by query and/or kind."""
        out: list[AuditEvent] = []
        for record in self._all_records():
            if query is not None and record.query != query:
                continue
            if kind is not None and record.kind != kind:
                continue
            out.extend(record.events())
        return out

    def explain(self, tuple_id: object, *,
                sid: str | None = None) -> list[AuditEvent]:
        """Every held decision that touched the tuple ``tuple_id``.

        This is the "why was my tuple dropped?" query: the returned
        events name the operator, the predicate and the sp that decided
        each outcome.  ``sid`` narrows to one stream when tuple ids are
        reused across streams.
        """
        out: list[AuditEvent] = []
        for record in self._all_records():
            if sid is not None and record.sid != sid:
                continue
            if tuple_id in record.tids:
                out.extend(record.event(i)
                           for i, tid in enumerate(record.tids)
                           if tid == tuple_id)
        return out

    def last(self, kind: str | None = None) -> AuditEvent | None:
        """Most recent held event (of ``kind``, if given)."""
        newest = None
        for record in self._all_records():
            if kind is None or record.kind == kind:
                newest = record
        if newest is None:
            return None
        return newest.event(len(newest.tids) - 1)

    # -- export -------------------------------------------------------------
    def to_jsonl(self, fp: IO[str]) -> int:
        """Write held must-keep events as JSON lines; returns the line
        count."""
        count = 0
        for event in self:
            fp.write(_ENCODER.encode(event.to_dict()))
            fp.write("\n")
            count += 1
        return count

    def dump_jsonl(self, path: str) -> int:
        with open(path, "w", encoding="utf-8") as fp:
            return self.to_jsonl(fp)

    # -- bookkeeping ---------------------------------------------------------
    def clear(self) -> None:
        """Back to the freshly constructed state (``seq`` restarts at 0,
        so ``len(log) + log.evicted`` keeps equalling the must-keep
        decisions recorded)."""
        self._records.clear()
        self._passes.clear()
        self.counts.clear()
        self._held = 0
        self._seq = 0
        self.evicted = 0

    def __len__(self) -> int:
        return self._held

    def __iter__(self) -> Iterator[AuditEvent]:
        for record in self._records:
            yield from record.events()

    def __repr__(self) -> str:
        return (f"AuditLog(held={self._held}, passes={len(self._passes)}, "
                f"recorded={self._seq}, evicted={self.evicted})")
