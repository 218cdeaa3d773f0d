"""The security audit trail: who was denied what, and why.

Every enforcement decision the engine takes is describable as "this
operator, under this role predicate, applied this sp to this element".
:class:`AuditEvent` captures exactly that tuple of facts;
:class:`AuditLog` keeps a bounded history of them.

Event kinds currently recorded:

``shield.segment``
    A Security Shield evaluated a newly finalized sp-batch against its
    predicate; the verdict governs every tuple of the segment.
``shield.drop``
    A shield (including the per-query delivery shield) discarded one
    tuple.  Exactly one event per denied tuple per shield.
``filter.drop``
    An access filter (pre-/post-filtering layouts) discarded one
    tuple.
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

The log is bounded: ``capacity`` bounds the held *decisions*; recording
past it evicts whole records, oldest first (``evicted`` counts the
decisions lost; a single run longer than ``capacity`` keeps its newest
``capacity`` decisions).  Counts per kind are kept unbounded, so rates
stay exact even after eviction.
"""

from __future__ import annotations

import json
from collections import Counter, deque
from dataclasses import asdict, dataclass, field
from typing import IO, Iterator, Sequence

__all__ = ["AuditEvent", "AuditLog"]

DEFAULT_CAPACITY = 10_000

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

    def to_dict(self) -> dict:
        record = asdict(self)
        record["predicate"] = list(self.predicate)
        record["policy"] = list(self.policy)
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

    def event(self, i: int) -> AuditEvent:
        return AuditEvent(seq=self.seq + i, kind=self.kind, ts=self.tss[i],
                          operator=self.operator, query=self.query,
                          sid=self.sid, tid=self.tids[i],
                          predicate=self.predicate, policy=self.policy,
                          sp=self.sp, detail=dict(self.detail))

    def events(self) -> Iterator[AuditEvent]:
        return map(self.event, range(len(self.tids)))


class AuditLog:
    """Bounded, queryable history of :class:`AuditEvent` records."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity <= 0:
            raise ValueError("audit log capacity must be positive")
        self.capacity = capacity
        self._records: deque[_RunRecord] = deque()
        #: Decisions currently held (a run record counts its length).
        self._held = 0
        self._seq = 0
        #: Decisions recorded but no longer held (bounded-log eviction).
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
        Only their ``tid``/``ts`` columns are kept.
        """
        n = len(tuples)
        self._records.append(_RunRecord(
            self._seq, kind, operator, query, tuples[0].sid, predicate,
            policy, sp, detail,
            [item.tid for item in tuples], [item.ts for item in tuples]))
        self._seq += n
        self.counts[kind] += n
        self._held += n
        if self._held > self.capacity:
            self._evict()

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
    def events(self, *, query: str | None = None,
               kind: str | None = None) -> list[AuditEvent]:
        """Held events, optionally filtered by query and/or kind."""
        out: list[AuditEvent] = []
        for record in self._records:
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
        for record in self._records:
            if sid is not None and record.sid != sid:
                continue
            if tuple_id in record.tids:
                out.extend(record.event(i)
                           for i, tid in enumerate(record.tids)
                           if tid == tuple_id)
        return out

    def last(self, kind: str | None = None) -> AuditEvent | None:
        """Most recent held event (of ``kind``, if given)."""
        for record in reversed(self._records):
            if kind is None or record.kind == kind:
                return record.event(len(record.tids) - 1)
        return None

    # -- export -------------------------------------------------------------
    def to_jsonl(self, fp: IO[str]) -> int:
        """Write held events as JSON lines; returns the line count."""
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
        so ``len(log) + log.evicted`` keeps equalling the decisions
        recorded)."""
        self._records.clear()
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
        return (f"AuditLog(held={self._held}, "
                f"recorded={self._seq}, evicted={self.evicted})")
