"""The reference oracle: a naive denotational interpreter of the sp model.

This module is the ground truth the differential harness compares every
engine configuration against.  It is deliberately simple — no batching,
no indexes, no operator fusion — and interprets a
*scenario plan spec* (plain nested dicts, see
:mod:`repro.verify.generator`) rather than compiled physical operators,
so a bug in the engine cannot leak into the oracle through shared code.

Semantics implemented here, straight from the paper:

* **Segments**: consecutive sps sharing a timestamp form one sp-batch
  (one policy); the tuples up to the next batch form an s-punctuated
  segment governed by it (``match``/``union`` within the batch,
  ``override`` across batches — a newer batch replaces, an equal-ts
  batch refreshes, a stale batch is discarded).  An all-incremental
  batch edits the roles of the (wildcard-scoped) policy in force, in
  order: a positive sp adds its roles, a negative one removes them.
* **Denial-by-default**: a tuple preceded by no applicable positive sp
  resolves to the empty role set and is invisible everywhere.
* **Resolution**: positive sps whose DDP describes the object grant
  the union of their roles; negative sps subtract the roles their SRP
  authorizes.  If any sp of the batch is attribute-granular, a tuple's
  role set is the intersection over its present attributes (emitting a
  tuple exposes all of it at once).
* **Operators**: Table I semantics, evaluated tuple-at-a-time.
  Derived tuples (join results, aggregates, re-emitted duplicates)
  carry their resolved role set directly, mirroring how the engine
  propagates wildcard grant sps for them.
* **Server policies** (wildcard-scoped): each arriving sp-batch is
  refined before it governs anything.  A server grant intersects the
  roles of every positive provider sp that is not immutable (an sp left
  with no role is gone); a server denial joins every batch that has a
  mutable sp, at the batch's timestamp; a batch refined to nothing
  denies everyone.
* **Entry drops**: delivery is computed over every tuple; the per-query
  denial counts over what a stream's entry lets on.  A stream no δ or
  G sits above drops a tuple whose governing batch is a *plain grant*
  (positive, absolute, fully wildcard-scoped sps with enumerable
  roles) none of whose roles any query reading the stream holds.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.core.patterns import ANY
from repro.core.punctuation import (DataDescription, SecurityPunctuation,
                                    SecurityRestriction, Sign)
from repro.stream.element import StreamElement
from repro.stream.tuples import DataTuple

__all__ = [
    "NaiveTracker",
    "OracleOutcome",
    "canonical_tid",
    "entry_feed",
    "entry_readers",
    "merge_streams",
    "refine_streams",
    "resolve_batch",
    "run_oracle",
    "signature",
]


# -- batch tracking ---------------------------------------------------------

class NaiveTracker:
    """Segment bookkeeping: which sp-batch governs the next tuple.

    Mirrors the engine's :class:`~repro.operators.base.PolicyTracker`
    contract exactly: consecutive sps sharing a timestamp accumulate
    into one pending batch; a tuple arrival (or an sp with a different
    timestamp) finalizes it; a finalized batch replaces the governing
    one unless it is stale (older timestamp — ``override``).
    """

    def __init__(self) -> None:
        self._pending: list[SecurityPunctuation] = []
        self._current: tuple[SecurityPunctuation, ...] = ()
        self._current_ts = float("-inf")
        #: Whether the governing batch arrived as an incremental one.
        self.delta = False

    def observe(self, sp: SecurityPunctuation) -> None:
        if self._pending and sp.ts != self._pending[0].ts:
            self._finalize()
        self._pending.append(sp)

    def _finalize(self) -> None:
        if not self._pending:
            return
        batch = tuple(self._pending)
        self._pending = []
        ts = batch[0].ts
        if ts < self._current_ts:
            return  # stale policy: discarded, the newer one stays
        self.delta = any(sp.incremental for sp in batch)
        self._current = self._edited(batch) if self.delta else batch
        self._current_ts = ts

    def _edited(self, batch: tuple) -> tuple:
        """The governing roles edited by an all-incremental ``batch``,
        as one wildcard grant (none: nobody is left)."""
        if not all(sp.incremental for sp in batch):
            raise ValueError("an sp-batch mixes incremental and absolute sps")
        roles: set[str] = set()
        for sp in self._current:
            ddp = sp.ddp
            if not (ddp.stream.is_wildcard() and ddp.tuple_id.is_wildcard()
                    and ddp.attribute.is_wildcard()):
                raise ValueError("incremental sps edit a wildcard policy only")
            if sp.is_positive:
                roles |= sp.roles()
        for sp in self._current:
            if not sp.is_positive:
                roles = {r for r in roles if not sp.srp.authorizes(r)}
        for sp in batch:
            if sp.is_positive:
                roles |= sp.roles()
            else:
                roles -= sp.roles()
        if not roles:
            return ()
        return (SecurityPunctuation.grant(sorted(roles), batch[0].ts),)

    def governing(self) -> tuple[SecurityPunctuation, ...]:
        """The batch governing a tuple arriving now (finalizes pending)."""
        self._finalize()
        return self._current


# -- server policies ----------------------------------------------------------

def _refined(batch: "list[SecurityPunctuation]",
             server: "Sequence[SecurityPunctuation]") -> list:
    """One arriving sp-batch under wildcard-scoped server policies."""
    ts = batch[0].ts
    out = list(batch)
    for policy in server:
        if not (policy.ddp.stream.is_wildcard()
                and policy.ddp.tuple_id.is_wildcard()
                and policy.ddp.attribute.is_wildcard()):
            raise ValueError("the oracle refines by wildcard-scoped "
                             "server policies only")
        if policy.is_positive:
            kept = []
            for sp in out:
                if sp.immutable or not sp.is_positive:
                    kept.append(sp)
                    continue
                roles = sp.roles() & policy.roles()
                if roles:
                    kept.append(sp.with_roles(sorted(roles)))
            out = kept
    for policy in server:
        if not policy.is_positive and not all(sp.immutable for sp in batch):
            out.append(SecurityPunctuation(
                ddp=policy.ddp, srp=policy.srp, ts=ts, sign=Sign.NEGATIVE,
                incremental=all(sp.incremental for sp in batch)))
    if not out and not all(sp.incremental for sp in batch):
        out = [SecurityPunctuation(ddp=DataDescription(),
                                   srp=SecurityRestriction(ANY), ts=ts,
                                   sign=Sign.NEGATIVE)]
    return out


def refine_streams(
    streams: "dict[str, list[StreamElement]]",
    server: "Sequence[SecurityPunctuation]",
) -> "dict[str, list[StreamElement]]":
    """Each stream with every sp-batch (consecutive sps, split where the
    timestamp changes) refined by the server policies."""
    if not server:
        return streams
    out: dict[str, list[StreamElement]] = {}
    for sid, elements in streams.items():
        refined: list[StreamElement] = []
        batch: list[SecurityPunctuation] = []
        for element in elements:
            if isinstance(element, SecurityPunctuation):
                if batch and element.ts != batch[0].ts:
                    refined.extend(_refined(batch, server))
                    batch = []
                batch.append(element)
                continue
            if batch:
                refined.extend(_refined(batch, server))
                batch = []
            refined.append(element)
        if batch:
            refined.extend(_refined(batch, server))
        out[sid] = refined
    return out


# -- resolution -------------------------------------------------------------

def _object_roles(batch: Sequence[SecurityPunctuation], sid: object,
                  tid: object, attr: object) -> frozenset[str]:
    """Roles ``batch`` grants on one object.  An open role pattern
    grants nobody, as the engine's entry rules for one that matches no
    known role (the generator draws no open pattern, so none that
    matches one reaches here)."""
    granted: set[str] = set()
    for sp in batch:
        if sp.is_positive and sp.ddp.describes(sid, tid, attr):
            granted |= sp.srp.concrete_roles() or frozenset()
    if not granted:
        return frozenset()
    for sp in batch:
        if not sp.is_positive and sp.ddp.describes(sid, tid, attr):
            granted = {r for r in granted if not sp.srp.authorizes(r)}
    return frozenset(granted)


def resolve_batch(batch: Sequence[SecurityPunctuation],
                  item: DataTuple) -> frozenset[str]:
    """Roles that may access ``item`` under the governing ``batch``."""
    if not batch:
        return frozenset()
    if any(not sp.ddp.attribute.is_wildcard() for sp in batch):
        roles: frozenset[str] | None = None
        for attr in item.values:
            authorized = _object_roles(batch, item.sid, item.tid, attr)
            roles = authorized if roles is None else roles & authorized
            if not roles:
                break
        return roles or frozenset()
    return _object_roles(batch, item.sid, item.tid, None)


#: A tuple's provenance through the interpreter: either the raw
#: governing sp-batch (scan-level tuples) or an already-resolved role
#: set (derived tuples).
Annot = tuple


def resolve(annot: Annot, item: DataTuple) -> frozenset[str]:
    kind, payload = annot
    if kind == "roles":
        return payload
    return resolve_batch(payload, item)


# -- result signatures -------------------------------------------------------

def canonical_tid(tid: object) -> object:
    """Order-insensitive tid form (join re-association reorders pairs)."""
    if isinstance(tid, tuple):
        flat: list[str] = []
        stack = list(tid)
        while stack:
            part = stack.pop()
            if isinstance(part, tuple):
                stack.extend(part)
            else:
                flat.append(str(part))
        return tuple(sorted(flat))
    return tid


def signature(item: DataTuple, roles: frozenset[str]) -> tuple:
    """Comparable identity of one delivered tuple."""
    return (item.sid, canonical_tid(item.tid), item.ts,
            tuple(sorted(item.values.items())), tuple(sorted(roles)))


# -- merged feed -------------------------------------------------------------

def merge_streams(
    streams: "dict[str, list[StreamElement]]",
) -> list[tuple[str, StreamElement]]:
    """Timestamp-ordered merged feed, tagged with the source stream id.

    Ties break by stream registration order then arrival position —
    the same discipline as the engine executor's source merge.
    """
    heap: list[tuple[float, int, int, str, StreamElement]] = []
    for src_index, (sid, elements) in enumerate(streams.items()):
        for seq, element in enumerate(elements):
            heap.append((element.ts, src_index, seq, sid, element))
    heapq.heapify(heap)
    out: list[tuple[str, StreamElement]] = []
    while heap:
        _, _, _, sid, element = heapq.heappop(heap)
        out.append((sid, element))
    return out


# -- naive select conditions --------------------------------------------------

def _evaluate_condition(spec: dict, item: DataTuple) -> bool:
    """Mirror of the engine Comparison semantics (None/TypeError → False)."""
    if "udf" in spec:
        # Named UDFs have no algebraic mirror: the registered callable
        # *is* the semantics, so the oracle evaluates it directly.
        # Purity/determinism of registered UDFs is enforced by SEC007
        # and the registry's analyzer-provable built-in style.
        from repro.operators.udfs import call_udf

        return call_udf(spec["udf"], item)
    left = item.get(spec["attribute"])
    right = spec["value"]
    if left is None or right is None:
        return False
    op = spec["op"]
    try:
        if op in ("=", "=="):
            return left == right
        if op in ("!=", "<>"):
            return left != right
        if op == "<":
            return left < right
        if op == "<=":
            return left <= right
        if op == ">":
            return left > right
        if op == ">=":
            return left >= right
    except TypeError:
        return False
    raise ValueError(f"unknown comparison op: {op!r}")


# -- aggregates ---------------------------------------------------------------

def _aggregate(name: str, values: Iterable[object]) -> object:
    values = list(values)
    if name == "count":
        return len(values)
    if name == "sum":
        total = 0
        for value in values:
            total = total + value
        return total
    if name == "min":
        return min(values)
    if name == "max":
        return max(values)
    if name == "avg":
        total = 0
        for value in values:
            total = total + value
        return total / len(values)
    raise ValueError(f"unknown aggregate: {name!r}")


# -- plan interpreter ---------------------------------------------------------

Entry = tuple  # (DataTuple, Annot)


class _Node:
    """One interpreted plan operator; feed() pushes one source element."""

    def feed(self, sid: str, element: StreamElement) -> list[Entry]:
        raise NotImplementedError


class _Scan(_Node):
    def __init__(self, stream_id: str):
        self.stream_id = stream_id
        self.tracker = NaiveTracker()

    def feed(self, sid: str, element: StreamElement) -> list[Entry]:
        if sid != self.stream_id:
            return []
        if isinstance(element, SecurityPunctuation):
            self.tracker.observe(element)
            return []
        return [(element, ("batch", self.tracker.governing()))]


class _Shield(_Node):
    def __init__(self, child: _Node, predicates: Sequence[frozenset[str]]):
        self.child = child
        self.predicates = tuple(frozenset(p) for p in predicates)

    def feed(self, sid: str, element: StreamElement) -> list[Entry]:
        out = []
        for item, annot in self.child.feed(sid, element):
            roles = resolve(annot, item)
            if all(roles & p for p in self.predicates):
                out.append((item, annot))
        return out


class _Select(_Node):
    def __init__(self, child: _Node, condition: dict):
        self.child = child
        self.condition = condition

    def feed(self, sid: str, element: StreamElement) -> list[Entry]:
        return [(item, annot)
                for item, annot in self.child.feed(sid, element)
                if _evaluate_condition(self.condition, item)]


class _Project(_Node):
    def __init__(self, child: _Node, attributes: Sequence[str]):
        self.child = child
        self.attributes = tuple(attributes)

    def feed(self, sid: str, element: StreamElement) -> list[Entry]:
        return [(item.project(self.attributes), annot)
                for item, annot in self.child.feed(sid, element)]


class _DupElim(_Node):
    """Mirror of Section IV.B's three-case δ, tuple-at-a-time."""

    def __init__(self, child: _Node, window: float,
                 attributes: Sequence[str] | None):
        self.child = child
        self.window = window
        self.attributes = tuple(attributes) if attributes else None
        self._output: dict[object, list] = {}  # key -> [roles, live_count]
        self._log: list[tuple[float, object]] = []

    def _key(self, item: DataTuple) -> object:
        if self.attributes is None:
            return tuple(sorted(item.values.items(), key=lambda kv: kv[0]))
        return tuple(item.values.get(a) for a in self.attributes)

    def _expire(self, now: float) -> None:
        horizon = now - self.window
        while self._log and self._log[0][0] <= horizon:
            _, key = self._log.pop(0)
            entry = self._output.get(key)
            if entry is not None:
                entry[1] -= 1
                if entry[1] <= 0:
                    del self._output[key]

    def feed(self, sid: str, element: StreamElement) -> list[Entry]:
        out: list[Entry] = []
        for item, annot in self.child.feed(sid, element):
            out.extend(self._on_tuple(item, annot))
        return out

    def _on_tuple(self, item: DataTuple, annot: Annot) -> list[Entry]:
        self._expire(item.ts)
        roles = resolve(annot, item)
        if not roles:
            return []  # invisible tuples never suppress later duplicates
        key = self._key(item)
        self._log.append((item.ts, key))
        entry = self._output.get(key)
        if entry is None:
            self._output[key] = [roles, 1]
            return [(item, ("roles", roles))]
        entry[1] += 1
        old = entry[0]
        common = old & roles
        if not common:  # case 1: disjoint — replace and re-emit
            entry[0] = roles
            return [(item, ("roles", roles))]
        if common == roles:  # case 2: everyone already saw it
            return []
        entry[0] = old | roles  # case 3: emit for the news roles only
        return [(item, ("roles", roles - common))]


_SINGLE = "*"


class _GroupBySub:
    __slots__ = ("roles", "values", "serial")

    def __init__(self, roles: frozenset[str], serial: int):
        self.roles = roles
        self.values: list[tuple[float, object]] = []
        self.serial = serial


class _GroupBy(_Node):
    """Mirror of the ASG-partitioned windowed aggregate."""

    def __init__(self, child: _Node, key: str | None, agg: str,
                 attribute: str, window: float,
                 output_sid: str = "grouped"):
        self.child = child
        self.key = key
        self.agg = agg.lower()
        self.attribute = attribute
        self.window = window
        self.output_sid = output_sid
        self._groups: dict[object, list[_GroupBySub]] = {}
        self._serial = 0

    def feed(self, sid: str, element: StreamElement) -> list[Entry]:
        out: list[Entry] = []
        for item, annot in self.child.feed(sid, element):
            out.extend(self._on_tuple(item, annot))
        return out

    def _expire(self, now: float, out: list[Entry]) -> None:
        horizon = now - self.window
        dead_groups = []
        for group_value, subgroups in self._groups.items():
            dead = []
            for sg in subgroups:
                changed = False
                while sg.values and sg.values[0][0] <= horizon:
                    sg.values.pop(0)
                    changed = True
                if changed:
                    if sg.values:
                        out.append(self._result(group_value, sg, now))
                    else:
                        dead.append(sg)
            for sg in dead:
                subgroups.remove(sg)
            if not subgroups:
                dead_groups.append(group_value)
        for group_value in dead_groups:
            del self._groups[group_value]

    def _on_tuple(self, item: DataTuple, annot: Annot) -> list[Entry]:
        out: list[Entry] = []
        self._expire(item.ts, out)
        roles = resolve(annot, item)
        if not roles:
            return out
        group_value = (item.values.get(self.key)
                       if self.key is not None else _SINGLE)
        subgroups = self._groups.setdefault(group_value, [])
        matching = [sg for sg in subgroups if sg.roles & roles]
        if not matching:
            target = _GroupBySub(roles, self._serial)
            self._serial += 1
            subgroups.append(target)
        else:
            target = matching[0]
            for other in matching[1:]:
                target.roles |= other.roles
                target.values = sorted(target.values + other.values,
                                       key=lambda pair: pair[0])
                subgroups.remove(other)
            target.roles |= roles
        target.values.append((item.ts, item.values.get(self.attribute)))
        out.append(self._result(group_value, target, item.ts))
        return out

    def _result(self, group_value: object, sg: _GroupBySub,
                ts: float) -> Entry:
        values: dict[str, object] = {}
        if self.key is not None:
            values[self.key] = group_value
        values[f"{self.agg}({self.attribute})"] = _aggregate(
            self.agg, (v for _, v in sg.values))
        tid = (group_value if self.key is not None else "*", sg.serial)
        return (DataTuple(self.output_sid, tid, values, ts),
                ("roles", sg.roles))


class _Join(_Node):
    """Mirror of the nested-loop SAJoin (Table I join semantics)."""

    def __init__(self, left: _Node, right: _Node, left_on: str,
                 right_on: str, window: float, output_sid: str = "joined"):
        self.children = (left, right)
        self.on = (left_on, right_on)
        self.window = window
        self.output_sid = output_sid
        self._entries: tuple[list[Entry], list[Entry]] = ([], [])

    def feed(self, sid: str, element: StreamElement) -> list[Entry]:
        out: list[Entry] = []
        for port in (0, 1):
            for item, annot in self.children[port].feed(sid, element):
                out.extend(self._on_tuple(item, annot, port))
        return out

    def _on_tuple(self, item: DataTuple, annot: Annot,
                  port: int) -> list[Entry]:
        opposite = 1 - port
        horizon = item.ts - self.window
        self._entries = tuple(
            ([e for e in entries if e[0].ts > horizon]
             if index == opposite else entries)
            for index, entries in enumerate(self._entries)
        )
        self._entries[port].append((item, annot))
        roles = resolve(annot, item)
        if not roles:
            return []  # denial-by-default: joins with nothing
        out: list[Entry] = []
        for other, other_annot in self._entries[opposite]:
            left, right = (item, other) if port == 0 else (other, item)
            if left.values.get(self.on[0]) != right.values.get(self.on[1]):
                continue
            other_roles = resolve(other_annot, other)
            joined = roles & other_roles
            if not joined:
                continue
            out.append((left.merge(right, self.output_sid),
                        ("roles", joined)))
        return out


def build_node(spec: dict) -> _Node:
    """Interpreter tree for one scenario plan spec."""
    op = spec["op"]
    if op == "scan":
        return _Scan(spec["stream"])
    if op == "shield":
        return _Shield(build_node(spec["input"]),
                       [frozenset(p) for p in spec["predicates"]])
    if op == "select":
        return _Select(build_node(spec["input"]), spec["condition"])
    if op == "project":
        return _Project(build_node(spec["input"]), spec["attributes"])
    if op == "dupelim":
        return _DupElim(build_node(spec["input"]), spec["window"],
                        spec.get("attributes"))
    if op == "groupby":
        return _GroupBy(build_node(spec["input"]), spec.get("key"),
                        spec["agg"], spec["attribute"], spec["window"])
    if op == "join":
        return _Join(build_node(spec["left"]), build_node(spec["right"]),
                     spec["left_on"], spec["right_on"], spec["window"])
    raise ValueError(f"unknown plan op: {op!r}")


def plan_ops(spec: dict) -> set[str]:
    """All operator kinds in a plan spec."""
    ops = {spec["op"]}
    for key in ("input", "left", "right"):
        child = spec.get(key)
        if child is not None:
            ops |= plan_ops(child)
    return ops


# -- whole-scenario evaluation -------------------------------------------------

@dataclass
class OracleOutcome:
    """Per-query delivered tuples and denial counts."""

    delivered: dict[str, list[tuple]] = field(default_factory=dict)
    denied: dict[str, int] = field(default_factory=dict)


def _scans(spec: dict, merged: bool = False):
    """``(stream, merged)`` per scan of ``spec``: ``merged`` when a δ or
    G sits above it (it merges a tuple's policy with other tuples')."""
    if spec["op"] == "scan":
        yield spec["stream"], merged
        return
    merged = merged or spec["op"] in ("dupelim", "groupby")
    for key in ("input", "left", "right"):
        child = spec.get(key)
        if child is not None:
            yield from _scans(child, merged)


def entry_readers(queries: "dict[str, dict]") -> "dict[str, frozenset | None]":
    """Per stream a query reads, the union of the roles of the queries
    reading it — ``None`` where a δ or G sits above one of its scans,
    so its entry drops nothing."""
    readers: dict[str, frozenset | None] = {}
    merged_streams: set[str] = set()
    for query in queries.values():
        for sid, merged in _scans(query["plan"]):
            readers[sid] = readers.get(sid, frozenset()) | frozenset(
                query["roles"])
            if merged:
                merged_streams.add(sid)
    return {sid: None if sid in merged_streams else roles
            for sid, roles in readers.items()}


def _plain_grant_roles(
        batch: Sequence[SecurityPunctuation]) -> frozenset[str] | None:
    """Roles of a plain grant — positive, absolute sps with fully
    wildcard DDPs and enumerable roles — else ``None``."""
    if not batch:
        return None
    roles: set[str] = set()
    for sp in batch:
        ddp = sp.ddp
        if not (sp.is_positive and not sp.incremental
                and ddp.stream.is_wildcard() and ddp.tuple_id.is_wildcard()
                and ddp.attribute.is_wildcard()
                and sp.srp.concrete_roles() is not None):
            return None
        roles |= sp.roles()
    return frozenset(roles)


def entry_feed(feed: "list[tuple[str, StreamElement]]",
               queries: "dict[str, dict]") -> list:
    """``feed`` without the tuples a stream's entry drops: those of a
    segment governed by a plain grant (not an incremental edit) that
    names no role of any query reading the stream."""
    readers = entry_readers(queries)
    trackers = {sid: NaiveTracker() for sid, roles in readers.items()
                if roles is not None}
    out = []
    for sid, element in feed:
        tracker = trackers.get(sid)
        if tracker is not None:
            if isinstance(element, SecurityPunctuation):
                tracker.observe(element)
            else:
                roles = _plain_grant_roles(tracker.governing())
                if (not tracker.delta and roles is not None
                        and roles.isdisjoint(readers[sid])):
                    continue
        out.append((sid, element))
    return out


def _interpret(plan: dict, qroles: frozenset[str],
               feed: "list[tuple[str, StreamElement]]") -> tuple[list, int]:
    """``(delivered signatures, denied count)`` of one query over ``feed``."""
    root = build_node(plan)
    delivered: list[tuple] = []
    denied = 0
    for sid, element in feed:
        for item, annot in root.feed(sid, element):
            roles = resolve(annot, item)
            if roles & qroles:
                delivered.append(signature(item, roles))
            else:
                denied += 1
    return delivered, denied


def run_oracle(streams: "dict[str, list[StreamElement]]",
               queries: "dict[str, dict]",
               server: "Sequence[SecurityPunctuation]" = ()) -> OracleOutcome:
    """Interpret every query independently over the merged feed.

    ``queries`` maps query name to ``{"roles": [...], "plan": spec}``.
    A delivered tuple's signature carries its *full* resolved role set
    (the delivery check only gates on intersection with the query's
    roles, it does not narrow the emitted policy — exactly what the
    engine's delivery shield does).  Delivery is read off the whole
    feed; the denial counts off what the streams' entries let on
    (:func:`entry_feed`).  ``server`` policies refine every stream's
    sp-batches first (:func:`refine_streams`).
    """
    feed = merge_streams(refine_streams(streams, server))
    entered = entry_feed(feed, queries)
    outcome = OracleOutcome()
    for name, query in queries.items():
        qroles = frozenset(query["roles"])
        delivered, denied = _interpret(query["plan"], qroles, feed)
        if len(entered) != len(feed):
            _, denied = _interpret(query["plan"], qroles, entered)
        outcome.delivered[name] = delivered
        outcome.denied[name] = denied
    return outcome
