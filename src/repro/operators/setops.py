"""Sp-aware bag union.

The paper omits security-aware set operations "to keep the presentation
concise"; union is included because CQL's ``UNION`` compiles to it.

**Union** merges two punctuated streams.  The subtlety is that each
input's sps only govern that input's tuples, while output sps govern
all following output tuples regardless of origin; the operator
therefore resolves policies per input and re-punctuates the output
whenever the effective policy changes.  It reads each input's sps
through one :class:`~repro.operators.base.PolicyTracker` per port and
interprets none itself.
"""

from __future__ import annotations

from repro.core.punctuation import SecurityPunctuation
from repro.operators.base import BinaryOperator, PolicyTracker, SPEmitter
from repro.stream.element import StreamElement
from repro.stream.tuples import DataTuple

__all__ = ["Union"]


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
