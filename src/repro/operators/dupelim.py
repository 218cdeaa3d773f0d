"""Sp-aware duplicate elimination (δ) over a sliding window.

Table I / Section IV.B: the operator stores its input and current
output over a sliding window; at all times the output contains exactly
one tuple per distinct value present in the input.  Policies (from sps)
are stored with the tuples in the output state.  When a new tuple with
a duplicate value arrives, its policy ``Pnew`` is compared with the
stored output policy ``Pold``:

1. ``Pold ∩ Pnew = ∅`` — the earlier output was not visible to any
   query that may access the new tuple: re-emit the value preceded by
   sp(s) for ``Pnew``, and store ``Pnew``.
2. ``Pold ∩ Pnew = Pnew`` — everyone who may see the new tuple already
   saw the value: emit nothing.
3. otherwise — emit the value with policy ``Pnew − (Pold ∩ Pnew)``
   (exactly the roles for which the value is news).  The output state
   is updated to ``Pold ∪ Pnew``: the roles that have now seen the
   value.  (The paper leaves the stored policy of case 3 implicit; the
   union is the choice under which case-2 suppression stays exact.)

Note a consequence of case 1 the paper accepts: because the stored
policy is *replaced* by ``Pnew``, the memory of who saw the value
under the previous policy is lost — after a disjoint-policy switch and
back, a role can be re-delivered a value it already saw.  Suppression
is exact only along chains of overlapping policies.

When every input tuple carrying a value has expired from the window,
the value's output entry is dropped, so a later re-arrival is re-output.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable

from repro.core.policy import TuplePolicy
from repro.core.punctuation import SecurityPunctuation
from repro.errors import PlanError
from repro.operators.base import PolicyTracker, SPEmitter, UnaryOperator
from repro.stream.element import StreamElement
from repro.stream.tuples import DataTuple

__all__ = ["DuplicateElimination"]


class _OutputEntry:
    __slots__ = ("policy", "live_count")

    def __init__(self, policy: TuplePolicy):
        self.policy = policy
        self.live_count = 0


class DuplicateElimination(UnaryOperator):
    """δ over a time-based sliding window, sp-aware per Section IV.B."""

    def __init__(self, window: float, attributes: Iterable[str] | None = None,
                 *, stream_id: str = "*", name: str | None = None):
        super().__init__(name)
        if window <= 0:
            raise PlanError("dup-elim window must be positive")
        self.window = window
        #: Attributes defining distinctness (None = all attributes).
        self.attributes = tuple(attributes) if attributes is not None else None
        self.tracker = PolicyTracker(stream_id)
        self.emitter = SPEmitter()
        self._output: dict[object, _OutputEntry] = {}
        #: Arrival log for expiry: (ts, key).
        self._log: deque[tuple[float, object]] = deque()
        self.duplicates_suppressed = 0

    def _key(self, item: DataTuple) -> object:
        if self.attributes is None:
            return tuple(sorted(item.values.items(), key=lambda kv: kv[0]))
        return tuple(item.values.get(a) for a in self.attributes)

    def _expire(self, now: float) -> None:
        horizon = now - self.window
        while self._log and self._log[0][0] <= horizon:
            _, key = self._log.popleft()
            entry = self._output.get(key)
            if entry is not None:
                entry.live_count -= 1
                self.stats.state_ops += 1
                if entry.live_count <= 0:
                    del self._output[key]

    def _process(self, element: StreamElement,
                 port: int) -> list[StreamElement]:
        if isinstance(element, SecurityPunctuation):
            self.tracker.observe_sp(element)
            return []
        assert isinstance(element, DataTuple)
        self._expire(element.ts)
        policy = self.tracker.policy_for(element)
        if policy.is_empty():
            # Denial-by-default: invisible tuples produce no output and
            # must not suppress later visible duplicates.
            return []
        key = self._key(element)
        self._log.append((element.ts, key))
        out: list[StreamElement] = []
        entry = self._output.get(key)
        if entry is None:
            entry = _OutputEntry(policy)
            entry.live_count = 1
            self._output[key] = entry
            self.emitter.emit(policy, element.ts, out)
            out.append(element)
            return out
        entry.live_count += 1
        old, new = entry.policy, policy
        common = old.intersect(new)
        self.stats.comparisons += 1
        if common.is_empty():  # case 1
            entry.policy = new
            self.emitter.emit(new, element.ts, out)
            out.append(element)
        elif common == new:  # case 2
            self.duplicates_suppressed += 1
            if self.audit is not None:
                self.audit.record(
                    "dupelim.suppress", ts=element.ts, operator=self.name,
                    query=self.audit_query, sid=element.sid,
                    tid=element.tid,
                    policy=tuple(sorted(new.roles)),
                    seen_by=sorted(old.roles),
                )
        else:  # case 3
            fresh = new.difference(common)
            entry.policy = old.union(new)
            self.emitter.emit(fresh, element.ts, out)
            out.append(element)
        return out

    def state_size(self) -> int:
        return len(self._output)

    def drops(self) -> int:
        return self.duplicates_suppressed
