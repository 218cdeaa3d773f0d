"""The Security-Aware Join (SAJoin), nested-loop variants (Section V.B).

SAJoin is a sliding-window equijoin over two punctuated streams.  Per
Table I, a join result is produced iff the join condition holds *and*
the base tuples' policies are compatible — their intersection is
non-empty; the result is emitted preceded by sp(s) depicting that
intersection.

The algorithm has three steps per arriving tuple (Section V.B.1):

1. **Policy collection** — arriving sps go to the port's
   :class:`~repro.operators.base.PolicyTracker`, the one interpreter of
   sp-batches (a stale batch is discarded there, a delta applied
   there); the batch that took over is stored in the sliding window,
   opening a new s-punctuated segment, with the first tuple it governs.
2. **Invalidation** — the new tuple's timestamp expires tuples from the
   head of the *opposite* window; once every tuple of a segment is
   invalidated, its sps are purged too.
3. **Join** — the new tuple probes the opposite window.  Two orders:

   * *probe-and-filter (PF)*: test the join value first, then check
     policy compatibility of matching pairs;
   * *filter-and-probe (FP)*: use the tuple's policy to find the
     policy-wise compatible segments first, then probe only those
     tuples with the join value.

The join interprets no sp itself: a tuple's policy is the one its
tracker resolved, stored in its segment at insert and read back at
probe time, so the join and a shield over the same input always agree.

Cost accounting splits processing into join time, sp maintenance (the
tracker calls, segment opening, SPIndex upkeep) and tuple maintenance,
which is exactly the decomposition of Figure 9.
"""

from __future__ import annotations

import time
from typing import Callable

from repro.core.policy import TuplePolicy
from repro.core.punctuation import SecurityPunctuation
from repro.errors import PlanError
from repro.operators.base import BinaryOperator, PolicyTracker, SPEmitter
from repro.stream.element import StreamElement
from repro.stream.tuples import DataTuple
from repro.stream.window import PunctuatedWindow, Segment

__all__ = ["SAJoinBase", "NestedLoopSAJoin", "segment_index_roles"]


def segment_index_roles(segment: Segment) -> frozenset[str]:
    """Roles under which some tuple of the segment may be accessible.

    The union of roles of the segment's positive sps — a (tight for
    uniform segments, conservative otherwise) superset of what any
    tuple resolves to, so index probes may yield false positives that
    the per-pair policy check then rejects; correctness is never at
    risk and no join partner can be missed.
    """
    roles: set[str] = set()
    for sp in segment.sps:
        if sp.is_positive:
            concrete = sp.srp.concrete_roles()
            if concrete:
                roles |= concrete
    return frozenset(roles)


class SAJoinBase(BinaryOperator):
    """Shared machinery of the nested-loop and index SAJoins."""

    #: Key the windows on the join attribute (index variant only).
    keyed_windows = False

    def __init__(self, left_on: str, right_on: str, window: float, *,
                 left_sid: str = "left", right_sid: str = "right",
                 output_sid: str = "joined",
                 predicate: Callable[[DataTuple, DataTuple], bool] | None = None,
                 name: str | None = None):
        super().__init__(name)
        self.on = (left_on, right_on)
        self.output_sid = output_sid
        self.predicate = predicate
        keys = self.on if self.keyed_windows else (None, None)
        self.windows = (PunctuatedWindow(left_sid, window, keys[0]),
                        PunctuatedWindow(right_sid, window, keys[1]))
        self.trackers = (PolicyTracker(left_sid), PolicyTracker(right_sid))
        self.emitter = SPEmitter()
        #: Figure 9 cost decomposition, in seconds.
        self.join_time = 0.0
        self.sp_maintenance_time = 0.0
        self.tuple_maintenance_time = 0.0
        self.results = 0
        self.pairs_checked = 0
        self.policy_rejects = 0

    # -- element arrival (sp: policy collection; tuple: maintain, probe) -----
    def _process(self, element: StreamElement,
                 port: int) -> list[StreamElement]:
        if isinstance(element, SecurityPunctuation):
            start = time.perf_counter()
            self.trackers[port].observe_sp(element)
            self.sp_maintenance_time += time.perf_counter() - start
            return []
        item, opposite = element, 1 - port
        window = self.windows[port]

        # Policy collection: the batch that took over opens a segment.
        start = time.perf_counter()
        tracker = self.trackers[port]
        policy = tracker.policy_for(item)
        batch = tracker.take_pending_sps()
        if batch:
            segment = window.open_segment(batch, tracker.is_uniform)
            self.stats.state_ops += len(batch)
            self._segment_opened(segment, port)
        self.sp_maintenance_time += time.perf_counter() - start

        # Invalidation of the opposite window.
        start = time.perf_counter()
        expired, purged = self.windows[opposite].invalidate(item.ts)
        self.stats.state_ops += expired
        self.tuple_maintenance_time += time.perf_counter() - start
        if purged:
            start = time.perf_counter()
            for segment in purged:
                self._segment_purged(segment, opposite)
            self.sp_maintenance_time += time.perf_counter() - start

        # Insertion into the own window.
        start = time.perf_counter()
        window.insert(item, policy)
        self.tuple_maintenance_time += time.perf_counter() - start
        if policy.is_empty():
            # Denial-by-default: a tuple nobody may access joins with
            # nothing (any intersection would be empty).
            if self.audit is not None:
                self.audit.record(
                    "join.deny", ts=item.ts, operator=self.name,
                    query=self.audit_query, sid=item.sid, tid=item.tid,
                )
            return []

        # Probe.
        start = time.perf_counter()
        out = self._probe(item, policy, port)
        self.join_time += time.perf_counter() - start
        return out

    def _segment_opened(self, segment: Segment, port: int) -> None:
        """Hook for the index variant (SPIndex insertion)."""

    def _segment_purged(self, segment: Segment, port: int) -> None:
        """Hook for the index variant (SPIndex entry removal)."""

    def _probe(self, item: DataTuple, policy: TuplePolicy,
               port: int) -> list[StreamElement]:
        raise NotImplementedError

    # -- result emission ------------------------------------------------------
    def _match(self, item: DataTuple, other: DataTuple, port: int) -> bool:
        if port == 0:
            return self._values_match(item, other)
        return self._values_match(other, item)

    def _values_match(self, left: DataTuple, right: DataTuple) -> bool:
        if left.values.get(self.on[0]) != right.values.get(self.on[1]):
            return False
        if self.predicate is not None and not self.predicate(left, right):
            return False
        return True

    def _emit(self, item: DataTuple, other: DataTuple,
              policy: TuplePolicy, other_policy: TuplePolicy, port: int,
              out: list[StreamElement]) -> None:
        joined_policy = policy.intersect(other_policy)
        if joined_policy.is_empty():
            self.policy_rejects += 1
            if self.audit is not None:
                # Lemma-level evidence: the pair matched on the join
                # value but the base policies share no role (Table I).
                self.audit.record(
                    "join.policy_reject", ts=item.ts, operator=self.name,
                    query=self.audit_query, sid=item.sid, tid=item.tid,
                    policy=tuple(sorted(policy.roles)),
                    other_sid=other.sid, other_tid=other.tid,
                    other_policy=sorted(other_policy.roles),
                )
            return
        if port == 0:
            merged = item.merge(other, self.output_sid)
        else:
            merged = other.merge(item, self.output_sid)
        self.emitter.emit(joined_policy, merged.ts, out)
        out.append(merged)
        self.results += 1

    def state_size(self) -> int:
        return (self.windows[0].tuple_count() + self.windows[0].sp_count()
                + self.windows[1].tuple_count() + self.windows[1].sp_count())

    def drops(self) -> int:
        return self.policy_rejects

    def cost_breakdown(self) -> dict[str, float]:
        """Figure 9 decomposition (seconds)."""
        return {
            "join": self.join_time,
            "sp_maintenance": self.sp_maintenance_time,
            "tuple_maintenance": self.tuple_maintenance_time,
            "total": (self.join_time + self.sp_maintenance_time
                      + self.tuple_maintenance_time),
        }


class NestedLoopSAJoin(SAJoinBase):
    """Nested-loop SAJoin: scans the whole opposite window per tuple.

    ``method`` selects probe-and-filter (``"PF"``) or filter-and-probe
    (``"FP"``).
    """

    def __init__(self, left_on: str, right_on: str, window: float, *,
                 method: str = "PF", **kwargs):
        super().__init__(left_on, right_on, window, **kwargs)
        method = method.upper()
        if method not in ("PF", "FP"):
            raise PlanError(f"SAJoin method must be 'PF' or 'FP': {method!r}")
        self.method = method

    def _probe(self, item: DataTuple, policy: TuplePolicy,
               port: int) -> list[StreamElement]:
        out: list[StreamElement] = []
        opposite = self.windows[1 - port]
        if self.method == "PF":
            for other, other_policy in opposite.iter_entries():
                self.pairs_checked += 1
                self.stats.comparisons += 1
                if self._match(item, other, port):
                    self._emit(item, other, policy, other_policy, port, out)
        else:  # FP: policy first, join value second
            probe_roles = policy.roles
            for segment in opposite.iter_segments():
                if segment.uniform:
                    self.stats.comparisons += 1
                    seg_policy = (segment.policy_for(segment.tuples[0])
                                  if segment.tuples else None)
                    if seg_policy is None or \
                            seg_policy.roles.isdisjoint(probe_roles):
                        continue
                    for other in segment.tuples:
                        self.pairs_checked += 1
                        self.stats.comparisons += 1
                        if self._match(item, other, port):
                            self._emit(item, other, policy, seg_policy,
                                       port, out)
                else:
                    for other in segment.tuples:
                        other_policy = segment.policy_for(other)
                        self.stats.comparisons += 1
                        if other_policy.roles.isdisjoint(probe_roles):
                            continue
                        self.pairs_checked += 1
                        self.stats.comparisons += 1
                        if self._match(item, other, port):
                            self._emit(item, other, policy, other_policy,
                                       port, out)
        return out
