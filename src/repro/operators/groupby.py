"""Sp-aware group-by with aggregation (G^agg_A, Section IV.B).

The operator incrementally maintains a windowed aggregate per group.
In the sp-aware version each attribute group (AG — all tuples sharing a
value of the grouping attribute) is partitioned into *attribute
subgroups* (ASGs): tuples with the same grouping value whose policies
do **not** intersect land in different subgroups, so no query ever sees
an aggregate that mixes in tuples it has no right to observe.  A result
is computed per ASG and emitted preceded by the subgroup's policy.

A tuple whose policy intersects an existing ASG's policy joins that
subgroup (the subgroup policy becomes the union); a tuple bridging
several previously disjoint ASGs merges them.  Expiring tuples update
their subgroup's aggregate, and the refreshed result is emitted —
every tuple changes the aggregate twice, on arrival and on expiry.

Aggregation without grouping is group-by with a single group (the
paper follows the same convention); pass ``key=None``.
"""

from __future__ import annotations

from collections import deque

from repro.core.policy import TuplePolicy
from repro.core.punctuation import SecurityPunctuation
from repro.errors import PlanError
from repro.operators.aggregates import make_aggregate
from repro.operators.base import PolicyTracker, SPEmitter, UnaryOperator
from repro.stream.element import StreamElement
from repro.stream.tuples import DataTuple

__all__ = ["GroupBy"]

_SINGLE_GROUP = object()


class _Subgroup:
    """One ASG: live values, union policy, incremental aggregate."""

    __slots__ = ("policy", "values", "aggregate", "serial")

    def __init__(self, policy: TuplePolicy, agg_name: str, serial: int):
        self.policy = policy
        self.values: deque[tuple[float, object]] = deque()
        self.aggregate = make_aggregate(agg_name)
        #: Creation-order id, used in result tids; deterministic across
        #: runs (unlike ``id()``), so repeated executions of the same
        #: workload produce identical result tuples.
        self.serial = serial

    def add(self, ts: float, value: object) -> None:
        self.values.append((ts, value))
        self.aggregate.add(value)

    def expire(self, horizon: float) -> bool:
        """Drop expired values; True if anything changed."""
        changed = False
        while self.values and self.values[0][0] <= horizon:
            _, value = self.values.popleft()
            self.aggregate.remove(value, (v for _, v in self.values))
            changed = True
        return changed

    def merge_from(self, other: "_Subgroup") -> None:
        self.policy = self.policy.union(other.policy)
        merged = sorted(list(self.values) + list(other.values),
                        key=lambda pair: pair[0])
        self.values = deque(merged)
        # Rebuild the aggregate from scratch after a merge.
        agg = type(self.aggregate)()
        for _, value in self.values:
            agg.add(value)
        self.aggregate = agg


class GroupBy(UnaryOperator):
    """Windowed sp-aware group-by/aggregate."""

    def __init__(self, key: str | None, agg: str, attribute: str, *,
                 window: float, stream_id: str = "*",
                 output_sid: str = "grouped", name: str | None = None):
        super().__init__(name)
        if window <= 0:
            raise PlanError("group-by window must be positive")
        self.key = key
        self.agg_name = agg.lower()
        make_aggregate(self.agg_name)  # validate eagerly
        self.attribute = attribute
        self.window = window
        self.output_sid = output_sid
        self.tracker = PolicyTracker(stream_id)
        self.emitter = SPEmitter()
        self._groups: dict[object, list[_Subgroup]] = {}
        self.merges = 0
        self._next_serial = 0

    def _group_key(self, item: DataTuple) -> object:
        if self.key is None:
            return _SINGLE_GROUP
        return item.values.get(self.key)

    # -- expiry ----------------------------------------------------------
    def _expire(self, now: float, out: list[StreamElement]) -> None:
        horizon = now - self.window
        dead_groups = []
        for group_value, subgroups in self._groups.items():
            dead = []
            for subgroup in subgroups:
                if subgroup.expire(horizon):
                    self.stats.state_ops += 1
                    if subgroup.values:
                        self._emit_result(group_value, subgroup, now, out)
                    else:
                        dead.append(subgroup)
            for subgroup in dead:
                subgroups.remove(subgroup)
            if not subgroups:
                dead_groups.append(group_value)
        for group_value in dead_groups:
            del self._groups[group_value]

    # -- processing -------------------------------------------------------
    def _process(self, element: StreamElement,
                 port: int) -> list[StreamElement]:
        if isinstance(element, SecurityPunctuation):
            self.tracker.observe_sp(element)
            return []
        assert isinstance(element, DataTuple)
        out: list[StreamElement] = []
        self._expire(element.ts, out)
        policy = self.tracker.policy_for(element)
        if policy.is_empty():
            return out
        group_value = self._group_key(element)
        subgroups = self._groups.setdefault(group_value, [])
        matching = [sg for sg in subgroups
                    if not sg.policy.roles.isdisjoint(policy.roles)]
        self.stats.comparisons += len(subgroups)
        if not matching:
            target = _Subgroup(policy, self.agg_name, self._next_serial)
            self._next_serial += 1
            subgroups.append(target)
        else:
            target = matching[0]
            for other in matching[1:]:
                target.merge_from(other)
                subgroups.remove(other)
                self.merges += 1
            if len(matching) > 1 and self.audit is not None:
                # A tuple's policy bridged previously disjoint ASGs —
                # visibility of the aggregate just widened.
                self.audit.record(
                    "groupby.merge", ts=element.ts, operator=self.name,
                    query=self.audit_query, sid=element.sid,
                    tid=element.tid,
                    policy=tuple(sorted(policy.roles)),
                    merged=len(matching) - 1,
                    group=(group_value if self.key is not None else "*"),
                )
            target.policy = target.policy.union(policy)
        target.add(element.ts, element.values.get(self.attribute))
        self._emit_result(group_value, target, element.ts, out)
        return out

    def _emit_result(self, group_value: object, subgroup: _Subgroup,
                     ts: float, out: list[StreamElement]) -> None:
        values: dict[str, object] = {}
        if self.key is not None:
            values[self.key] = group_value
        values[f"{self.agg_name}({self.attribute})"] = (
            subgroup.aggregate.result())
        tid = (group_value if self.key is not None else "*",
               subgroup.serial)
        self.emitter.emit(subgroup.policy, ts, out)
        out.append(DataTuple(self.output_sid, tid, values, ts))

    def state_size(self) -> int:
        return sum(len(sg.values)
                   for subgroups in self._groups.values()
                   for sg in subgroups)
