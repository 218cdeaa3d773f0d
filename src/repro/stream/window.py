"""Punctuated sliding windows (paper Section V, Figure 6).

Sp-aware stateful operators (SAJoin, duplicate elimination, group-by)
keep their input state in a time-based sliding window in which security
punctuations are interleaved with tuples in chronological order.  The
sps "partition" the tuple list into *s-punctuated segments*: all tuples
of a segment share the policy of the sp-batch that opened it.

The window supports the three steps of the SAJoin algorithm:

1. *Policy collection* — arriving sp-batches open a new segment
   (:meth:`PunctuatedWindow.open_segment`).
2. *Invalidation* — a new tuple's timestamp expires tuples from the
   window head; when every tuple of a segment has been invalidated, the
   segment's sps are purged too (:meth:`PunctuatedWindow.invalidate`).
3. *Join probing* — iteration over live ``(tuple, policy)`` pairs,
   segment by segment (:meth:`PunctuatedWindow.iter_entries`).

Per-segment policies are resolved lazily: a segment whose sps do not
discriminate between tuples (wildcard tuple-id/attribute DDPs — the
common case) shares a single resolved :class:`TuplePolicy` across all
its tuples, which is precisely the memory advantage of the sp model
over tuple-embedded policies.

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

from repro.core.policy import (EMPTY_POLICY, AccessPolicy, Policy,
                               TuplePolicy, has_attribute_scope)
from repro.core.punctuation import SecurityPunctuation
from repro.errors import StreamError
from repro.stream.tuples import DataTuple

__all__ = ["Segment", "PunctuatedWindow", "policy_is_uniform"]


def policy_is_uniform(policy: AccessPolicy | None, stream_id: str) -> bool:
    """Whether ``policy`` resolves identically for every tuple of a stream.

    True when every sp of the (leaf) policy has wildcard tuple-id and
    attribute patterns, so the authorized role set cannot depend on
    which tuple is asked about.  Composite policies are uniform when
    all their parts are.
    """
    if policy is None:
        return True
    if isinstance(policy, Policy):
        return all(
            sp.ddp.tuple_id.is_wildcard() and sp.ddp.attribute.is_wildcard()
            for sp in policy.sps
        )
    parts = getattr(policy, "parts", None)
    if parts is not None:
        return all(policy_is_uniform(part, stream_id) for part in parts)
    return False


class Segment:
    """One s-punctuated segment: an sp-batch and the tuples it covers."""

    __slots__ = ("access", "sps", "tuples", "buckets", "_uniform",
                 "_shared", "_cache", "stream_id")

    def __init__(self, stream_id: str, access: AccessPolicy | None,
                 sps: Iterable[SecurityPunctuation] = (), keyed: bool = False):
        self.stream_id = stream_id
        self.access = access
        self.sps: list[SecurityPunctuation] = list(sps)
        self.tuples: deque[DataTuple] = deque()
        #: Join value → its tuples in insertion order (lists: a tenth of
        #: a deque's footprint, and buckets are short); ``None``: scan.
        self.buckets: dict | None = {} if keyed else None
        self._uniform = policy_is_uniform(access, stream_id)
        #: Per-sid shared resolution (uniform segments).
        self._shared: dict[str, TuplePolicy] = {}
        self._cache: dict[tuple[str, object], TuplePolicy] = {}

    @property
    def uniform(self) -> bool:
        return self._uniform

    def policy_for(self, item: DataTuple) -> TuplePolicy:
        """Resolved policy of one tuple in this segment (cached).

        Resolution uses the tuple's own ``sid`` so stream-scoped sps
        match correctly even when the window's nominal stream id is a
        placeholder.
        """
        if self.access is None:
            return EMPTY_POLICY
        if self._uniform:
            shared = self._shared.get(item.sid)
            if shared is None:
                shared = self.access.resolve_for_tuple(item.sid)
                self._shared[item.sid] = shared
            return shared
        if has_attribute_scope(self.access):
            key: tuple = (item.sid, item.tid, tuple(item.values))
            cached = self._cache.get(key)
            if cached is None:
                cached = self.access.resolve_for_attributes(
                    item.sid, item.tid, item.values.keys())
                self._cache[key] = cached
            return cached
        key = (item.sid, item.tid)
        cached = self._cache.get(key)
        if cached is None:
            cached = self.access.resolve_for_tuple(item.sid, item.tid)
            self._cache[key] = cached
        return cached

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
        return (f"Segment(stream={self.stream_id!r}, sps={len(self.sps)}, "
                f"tuples={len(self.tuples)})")


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
    def open_segment(self, access: AccessPolicy | None,
                     sps: Iterable[SecurityPunctuation] = ()) -> Segment:
        """Start a new s-punctuated segment for an arriving sp-batch."""
        segment = Segment(self.stream_id, access, sps, self.key is not None)
        self.sps_inserted += len(segment.sps)
        self._unkeyed += segment.buckets is None
        self._segments.append(segment)
        return segment

    def insert(self, item: DataTuple) -> None:
        """Append a tuple to the current (most recent) segment.

        A tuple arriving before any sp lands in an implicit
        denial-by-default segment (no sp ⇒ nobody has access).
        """
        if not self._segments:
            self.open_segment(None)
        segment = self._segments[-1]
        segment.tuples.append(item)
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

    def current_segment(self) -> Segment | None:
        """The segment new tuples would join, if any."""
        return self._segments[-1] if self._segments else None

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
