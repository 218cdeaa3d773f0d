"""Sp-aware set operations (union, intersection).

The paper omits security-aware set operations "to keep the presentation
concise"; they are included here for completeness of the algebra
(Rules 3-5 quantify over ∪ and ∩ as well).

**Union** merges two punctuated streams.  The subtlety is that each
input's sps only govern that input's tuples, while output sps govern
all following output tuples regardless of origin; the operator
therefore resolves policies per input and re-punctuates the output
whenever the effective policy changes.

**Intersection** is windowed and value-based: a value is emitted when
present in both windows, under the *intersection* of the base tuples'
policies (empty intersections are suppressed), mirroring the join
semantics of Table I.  Pair it with duplicate elimination for set
(rather than bag) semantics.

Both read their inputs' sps through one
:class:`~repro.operators.base.PolicyTracker` per port and interpret
none themselves; the intersection's windows store what the trackers
resolved, as the SAJoin's do.
"""

from __future__ import annotations

from typing import Iterable

from repro.core.punctuation import SecurityPunctuation
from repro.errors import PlanError
from repro.operators.base import (BinaryOperator, PolicyTracker, SPEmitter)
from repro.stream.element import StreamElement
from repro.stream.tuples import DataTuple
from repro.stream.window import PunctuatedWindow

__all__ = ["Union", "Intersect"]


class Union(BinaryOperator):
    """Bag union of two punctuated streams, re-punctuated on output."""

    def __init__(self, *, left_sid: str = "left", right_sid: str = "right",
                 name: str | None = None):
        super().__init__(name)
        self.trackers = (PolicyTracker(left_sid), PolicyTracker(right_sid))
        self.emitter = SPEmitter()

    def _process(self, element: StreamElement,
                 port: int) -> list[StreamElement]:
        tracker = self.trackers[port]
        if isinstance(element, SecurityPunctuation):
            tracker.observe_sp(element)
            return []
        assert isinstance(element, DataTuple)
        policy = tracker.policy_for(element)
        if policy.is_empty():
            return []
        out: list[StreamElement] = []
        self.emitter.emit(policy, element.ts, out)
        out.append(element)
        return out

    def _process_batch(self, batch, port: int) -> list[StreamElement]:
        """Batch path: resolve and re-punctuate the run in one loop."""
        tracker = self.trackers[port]
        emitter = self.emitter
        out: list[StreamElement] = []
        for item in batch.tuples:
            policy = tracker.policy_for(item)
            if policy.is_empty():
                continue
            emitter.emit(policy, item.ts, out)
            out.append(item)
        return out


class Intersect(BinaryOperator):
    """Windowed value intersection under policy intersection."""

    def __init__(self, attributes: Iterable[str], window: float, *,
                 left_sid: str = "left", right_sid: str = "right",
                 name: str | None = None):
        super().__init__(name)
        self.attributes = tuple(attributes)
        if not self.attributes:
            raise PlanError("Intersect requires at least one attribute")
        if window <= 0:
            raise PlanError("Intersect window must be positive")
        self.windows = (PunctuatedWindow(left_sid, window),
                        PunctuatedWindow(right_sid, window))
        self.trackers = (PolicyTracker(left_sid), PolicyTracker(right_sid))
        self.emitter = SPEmitter()
        self.policy_rejects = 0

    def _key(self, item: DataTuple) -> tuple:
        return tuple(item.values.get(a) for a in self.attributes)

    def _process(self, element: StreamElement,
                 port: int) -> list[StreamElement]:
        tracker = self.trackers[port]
        if isinstance(element, SecurityPunctuation):
            tracker.observe_sp(element)
            return []
        assert isinstance(element, DataTuple)
        policy = tracker.policy_for(element)
        batch = tracker.take_pending_sps()
        if batch:
            self.windows[port].open_segment(batch, tracker.is_uniform)
        opposite = 1 - port
        self.windows[opposite].invalidate(element.ts)
        self.windows[port].insert(element, policy)
        if policy.is_empty():
            return []
        key = self._key(element)
        out: list[StreamElement] = []
        for other, other_policy in self.windows[opposite].iter_entries():
            self.stats.comparisons += 1
            if self._key(other) != key:
                continue
            joined = policy.intersect(other_policy)
            if joined.is_empty():
                self.policy_rejects += 1
                continue
            self.emitter.emit(joined, element.ts, out)
            out.append(element.project(self.attributes))
        return out

    def state_size(self) -> int:
        return (self.windows[0].tuple_count()
                + self.windows[1].tuple_count())
