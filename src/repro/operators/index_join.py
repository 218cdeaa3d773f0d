"""The index SAJoin (Section V.B.2): SAJoin optimized with SPIndexes.

The index SAJoin keeps one :class:`~repro.operators.spindex.SPIndex`
per input window.  When a new sp-batch opens a segment, an index entry
is created and linked into the r-nodes of the batch's roles; when a
segment's tuples are all invalidated, the entry leaves from the
r-heads.  A new tuple probes the *opposite* stream's SPIndex with the
roles of its own policy, visiting only policy-wise compatible segments
and — thanks to the skipping rule — visiting each at most once no
matter how many roles the policies share.

Beyond the paper: both windows are keyed on the join attribute
(:mod:`repro.stream.window`), so a probe meets only the equal-key bucket
of each compatible segment, and never reaches the SPIndex when no live
opposite tuple carries its value.  The hash only picks candidates.

Policy collection and invalidation are identical to the nested-loop
SAJoin and inherited from :class:`~repro.operators.join.SAJoinBase`.
"""

from __future__ import annotations

from repro.core.bitmap import RoleUniverse
from repro.core.policy import TuplePolicy
from repro.operators.join import SAJoinBase, segment_index_roles
from repro.operators.spindex import SPIndex
from repro.stream.element import StreamElement
from repro.stream.tuples import DataTuple
from repro.stream.window import Segment

__all__ = ["IndexSAJoin"]


class IndexSAJoin(SAJoinBase):
    """SAJoin with per-window SPIndexes for compatible-policy lookup."""

    keyed_windows = True

    def __init__(self, left_on: str, right_on: str, window: float, *,
                 universe: RoleUniverse | None = None,
                 skipping: bool = True, **kwargs):
        super().__init__(left_on, right_on, window, **kwargs)
        self.universe = universe if universe is not None else RoleUniverse()
        self.indexes = (SPIndex(self.universe, skipping=skipping),
                        SPIndex(self.universe, skipping=skipping))
        self.skipping = skipping

    # -- SPIndex maintenance hooks ------------------------------------------
    def _segment_opened(self, segment: Segment, port: int) -> None:
        roles = segment_index_roles(segment)
        if roles:
            self.indexes[port].insert(segment, roles)
        self.stats.state_ops += len(roles)

    def _segment_purged(self, segment: Segment, port: int) -> None:
        self.indexes[port].remove_segment(segment)

    # -- metrics wiring ------------------------------------------------------
    def bind_metrics(self, instruments) -> None:
        """Expose SPIndex probe accounting as pull-mode gauges.

        The skipped/scanned ratio per side is the Lemma 5.1
        skipping-rule hit rate; callbacks read the index counters at
        collection time, so probing pays nothing extra.  They (and
        ``join.skip`` records) see only probes that reach the index: a
        tuple with no live equal-key partner returns before it.
        """
        super().bind_metrics(instruments)
        for side, index in zip(("left", "right"), self.indexes):
            instruments.spindex_entries.labels(
                self.name, side, "scanned").set_function(
                    lambda idx=index: idx.entries_scanned)
            instruments.spindex_entries.labels(
                self.name, side, "skipped").set_function(
                    lambda idx=index: idx.entries_skipped)

    # -- probing --------------------------------------------------------------
    def _probe(self, item: DataTuple, policy: TuplePolicy,
               port: int) -> list[StreamElement]:
        out: list[StreamElement] = []
        value = item.values.get(self.on[port])
        try:
            if not self.windows[1 - port].may_hold(value):
                return out  # no equal-key partner is live: skip the index
        except TypeError:
            pass  # unhashable join value: every segment is scanned
        index = self.indexes[1 - port]
        skipped_before = index.entries_skipped
        seen: set[int] | None = None if self.skipping else set()
        roles = policy.roles
        for segment in index.probe(roles):
            candidates = segment.candidates(value)
            if seen is not None:
                # Ablation mode (skipping rule off): the index yields a
                # segment once per common role; suppress duplicate
                # *output* while still paying the duplicate visit cost.
                if id(segment) in seen:
                    self.stats.comparisons += len(candidates)  # wasted
                    continue
                seen.add(id(segment))
            if segment.uniform:
                if not candidates:
                    continue
                seg_policy = segment.policy_for(segment.tuples[0])
                if seg_policy.roles.isdisjoint(roles):
                    continue  # superset index roles: false positive
                for other in candidates:
                    self.pairs_checked += 1
                    self.stats.comparisons += 1
                    if self._match(item, other, port):
                        self._emit(item, other, policy, seg_policy, port, out)
            else:
                for other in candidates:
                    other_policy = segment.policy_for(other)
                    self.stats.comparisons += 1
                    if other_policy.roles.isdisjoint(roles):
                        continue
                    self.pairs_checked += 1
                    self.stats.comparisons += 1
                    if self._match(item, other, port):
                        self._emit(item, other, policy, other_policy,
                                   port, out)
        skipped = index.entries_skipped - skipped_before
        if skipped and self.audit is not None:
            # Lemma 5.1 in action: this probe reached segments through
            # several common roles and processed each only once.
            self.audit.record(
                "join.skip", ts=item.ts, operator=self.name,
                query=self.audit_query, sid=item.sid, tid=item.tid,
                policy=tuple(sorted(roles)),
                skipped=skipped,
            )
        return out
