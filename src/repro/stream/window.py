"""Punctuated sliding windows (paper Section V, Figure 6).

The windowed sp-aware operators (SAJoin, intersection) keep their input
state in a time-based sliding window in which security punctuations are
interleaved with tuples in chronological order.  The sps "partition"
the tuple list into *s-punctuated segments*: all tuples of a segment
fall under the sp-batch that opened it.

The window supports the three steps of the SAJoin algorithm:

1. *Policy collection* — an sp-batch that took over opens a new segment
   for the tuples it governs (:meth:`PunctuatedWindow.open_segment`).
2. *Invalidation* — a new tuple's timestamp expires tuples from the
   window head; when every tuple of a segment has been invalidated, the
   segment's sps are purged too (:meth:`PunctuatedWindow.invalidate`).
3. *Join probing* — iteration over live ``(tuple, policy)`` pairs,
   segment by segment (:meth:`PunctuatedWindow.iter_entries`).

The window interprets no sp.  Sp-batch semantics (batch grouping,
``override()``, incremental deltas, denial-by-default) live in the
operator's :class:`~repro.operators.base.PolicyTracker`; a segment is
opened from the batch the tracker finalised and *stores* the
:class:`TuplePolicy` the tracker resolved for each tuple at insert.  A
segment whose sps do not discriminate between tuples (wildcard
tuple-id/attribute DDPs — the common case) holds one policy per stream
id — for a lone plain grant the sp's own ``segment_policy()`` object —
which is precisely the memory advantage of the sp model over
tuple-embedded policies; any other segment holds one per tuple.

A window given a join attribute (``key=``; the index SAJoin's two) is
*keyed*: each segment also files its tuples under their join value
(:attr:`Segment.buckets`) and the window counts live tuples per value
(:attr:`PunctuatedWindow.live_keys`), both maintained in ``insert`` and
``invalidate``, so an equijoin probe looks candidates up, not scans.
An unhashable join value un-keys its segment: that one is scanned.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Iterator, Sequence

from repro.core.policy import TuplePolicy
from repro.core.punctuation import SecurityPunctuation
from repro.errors import StreamError
from repro.stream.tuples import DataTuple

__all__ = ["Segment", "PunctuatedWindow"]


class Segment:
    """One s-punctuated segment: an sp-batch, the tuples it covers and
    the policy resolved for each of them."""

    __slots__ = ("sps", "uniform", "tuples", "buckets", "_policies")

    def __init__(self, sps: Iterable[SecurityPunctuation] = (),
                 uniform: bool = True, keyed: bool = False):
        self.sps: list[SecurityPunctuation] = list(sps)
        #: Whether the batch resolves identically for every tuple of a
        #: stream (the tracker's ``is_uniform`` when it was finalised).
        self.uniform = uniform
        self.tuples: deque[DataTuple] = deque()
        #: Join value → its tuples in insertion order (lists: a tenth of
        #: a deque's footprint, and buckets are short); ``None``: scan.
        self.buckets: dict | None = {} if keyed else None
        #: Stored policies: one per sid (uniform), else one per tuple.
        self._policies: dict[object, TuplePolicy] = {}

    def hold(self, item: DataTuple, policy: TuplePolicy) -> None:
        """Append ``item`` under the ``policy`` its tracker resolved."""
        self.tuples.append(item)
        if self.uniform:
            self._policies[item.sid] = policy
        else:
            self._policies[item.sid, item.tid, tuple(item.values)] = policy

    def policy_for(self, item: DataTuple) -> TuplePolicy:
        """The policy stored for a tuple this segment holds."""
        if self.uniform:
            return self._policies[item.sid]
        return self._policies[item.sid, item.tid, tuple(item.values)]

    def candidates(self, value: object) -> Sequence[DataTuple]:
        """Tuples that may carry join value ``value``, oldest first: its
        bucket, or every tuple (unkeyed segment, unhashable value)."""
        if self.buckets is not None:
            try:
                return self.buckets.get(value, ())
            except TypeError:
                pass
        return self.tuples

    def __len__(self) -> int:
        return len(self.tuples)

    def __repr__(self) -> str:
        return f"Segment(sps={len(self.sps)}, tuples={len(self.tuples)})"


class PunctuatedWindow:
    """Time-based sliding window over a punctuated stream."""

    def __init__(self, stream_id: str, extent: float,
                 key: str | None = None):
        if extent <= 0:
            raise StreamError("window extent must be positive")
        self.stream_id = stream_id
        self.extent = extent
        #: Join attribute the segments are keyed by (``None``: unkeyed).
        self.key = key
        #: Join value → number of live tuples in keyed segments.
        self.live_keys: dict[object, int] = {}
        #: Live segments without buckets (all, in an unkeyed window).
        self._unkeyed = 0
        self._segments: deque[Segment] = deque()
        #: Running counters used by the cost accounting of Section VI.A.
        self.tuples_inserted = 0
        self.tuples_expired = 0
        self.sps_inserted = 0
        self.sps_purged = 0

    # -- policy collection ---------------------------------------------------
    def open_segment(self, sps: Iterable[SecurityPunctuation] = (),
                     uniform: bool = True) -> Segment:
        """Start a new s-punctuated segment for a finalised sp-batch."""
        segment = Segment(sps, uniform, self.key is not None)
        self.sps_inserted += len(segment.sps)
        self._unkeyed += segment.buckets is None
        self._segments.append(segment)
        return segment

    def insert(self, item: DataTuple, policy: TuplePolicy) -> None:
        """Append a tuple and its resolved policy to the current (most
        recent) segment.

        A tuple arriving before any sp lands in an implicit sp-less
        segment (its tracker resolved denial-by-default).
        """
        if not self._segments:
            self.open_segment()
        segment = self._segments[-1]
        segment.hold(item, policy)
        self.tuples_inserted += 1
        buckets = segment.buckets
        if buckets is not None:
            value = item.values.get(self.key)
            try:
                buckets.setdefault(value, []).append(item)
            except TypeError:  # no hash: stop keying this segment
                for held, bucket in buckets.items():
                    self._forget(held, len(bucket))
                segment.buckets = None
                self._unkeyed += 1
            else:
                self.live_keys[value] = self.live_keys.get(value, 0) + 1

    def _forget(self, value: object, count: int = 1) -> None:
        left = self.live_keys[value] - count
        if left:
            self.live_keys[value] = left
        else:
            del self.live_keys[value]

    def may_hold(self, value: object) -> bool:
        """Whether a live tuple may carry join value ``value`` (``False``
        is exact).  Raises ``TypeError`` for an unhashable value."""
        return value in self.live_keys or self._unkeyed > 0

    # -- invalidation ------------------------------------------------------
    def invalidate(self, now: float) -> tuple[int, list[Segment]]:
        """Expire tuples older than ``now - extent`` from the head.

        Returns ``(expired_tuple_count, purged_segments)``.  A
        segment's sps are purged only once all its tuples are gone
        *and* a newer segment exists (the most recent policy must
        survive even with no live tuples, since it governs upcoming
        arrivals).  Purged segments are returned so secondary
        structures (the SPIndex) can drop their entries.
        """
        horizon = now - self.extent
        expired = 0
        purged_segments: list[Segment] = []
        while self._segments:
            segment = self._segments[0]
            buckets = segment.buckets
            while segment.tuples and segment.tuples[0].ts <= horizon:
                item = segment.tuples.popleft()
                expired += 1
                if buckets is not None:
                    # The oldest tuple of the segment heads its bucket.
                    value = item.values.get(self.key)
                    bucket = buckets[value]
                    if len(bucket) == 1:
                        del buckets[value]
                    else:
                        del bucket[0]
                    self._forget(value)
            if not segment.tuples and len(self._segments) > 1:
                purged_segments.append(segment)
                self.sps_purged += len(segment.sps)
                self._segments.popleft()
                self._unkeyed -= buckets is None
            else:
                break
        self.tuples_expired += expired
        return expired, purged_segments

    # -- probing -------------------------------------------------------------
    def iter_entries(self) -> Iterator[tuple[DataTuple, TuplePolicy]]:
        """All live ``(tuple, resolved policy)`` pairs, oldest first."""
        for segment in self._segments:
            for item in segment.tuples:
                yield item, segment.policy_for(item)

    def iter_segments(self) -> Iterator[Segment]:
        return iter(self._segments)

    # -- accounting ---------------------------------------------------------
    def tuple_count(self) -> int:
        return sum(len(segment.tuples) for segment in self._segments)

    def sp_count(self) -> int:
        return sum(len(segment.sps) for segment in self._segments)

    def segment_count(self) -> int:
        return len(self._segments)

    def __repr__(self) -> str:
        return (f"PunctuatedWindow({self.stream_id!r}, extent={self.extent}, "
                f"segments={len(self._segments)}, "
                f"tuples={self.tuple_count()})")
