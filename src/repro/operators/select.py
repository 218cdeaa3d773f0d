"""Sp-aware selection (σ).

Table I: ``(t, Pt) ∈ σc(T) iff t satisfies c and Pt ≠ ∅``.

A select operator drops tuples that fail the condition and *delays* sp
propagation until at least one tuple covered by the sp's policy
satisfies the condition; if every tuple of a policy is filtered out,
the policy's sps are discarded as well (there is nothing downstream for
them to protect).
"""

from __future__ import annotations

from repro.core.punctuation import SecurityPunctuation
from repro.operators.base import UnaryOperator
from repro.operators.conditions import Condition, FuncCondition
from repro.stream.batch import TupleBatch
from repro.stream.element import StreamElement
from repro.stream.tuples import DataTuple

__all__ = ["Select"]


class Select(UnaryOperator):
    """Filter tuples by a condition, delaying sp propagation."""

    def __init__(self, condition: Condition, *, name: str | None = None):
        super().__init__(name)
        if callable(condition) and not isinstance(condition, Condition):
            condition = FuncCondition(condition)
        self.condition: Condition = condition
        #: Sps of the current segment not yet propagated.
        self._held_sps: list[SecurityPunctuation] = []
        #: Whether the previous element was a tuple (marks sp-batch /
        #: segment boundaries).
        self._after_tuple = False
        self.sps_discarded = 0
        self.tuples_dropped = 0

    def hold(self, sp: SecurityPunctuation) -> None:
        """Hold ``sp`` until a tuple of its segment passes."""
        if self._after_tuple and self._held_sps:
            # The previous segment ended without any passing tuple:
            # its sps are dropped.
            self.sps_discarded += len(self._held_sps)
            self._held_sps = []
        self._after_tuple = False
        self._held_sps.append(sp)

    def discard(self, count: int) -> None:
        """Count ``count`` sps of segments this select never saw as
        discarded (a :class:`~repro.engine.plan.SelectGroup` member
        brought up to date after them)."""
        self.sps_discarded += count

    def emit(self, size: int,
             passing: list[DataTuple]) -> list[StreamElement]:
        """Emit for a run of ``size`` tuples; ``passing`` (taken over)."""
        self._after_tuple = True
        self.stats.comparisons += size
        self.tuples_dropped += size - len(passing)
        if not passing:
            return []
        # The held sps lead the first passing tuple of their segment;
        # the list is handed over, not copied.
        out, self._held_sps = self._held_sps, []
        out.append(passing[0] if len(passing) == 1 else TupleBatch(passing))
        return out

    def _process(self, element: StreamElement,
                 port: int) -> list[StreamElement]:
        if isinstance(element, SecurityPunctuation):
            self.hold(element)
            return []
        return self.emit(1, [element] if self.condition(element) else [])

    def _process_batch(self, batch: TupleBatch,
                       port: int) -> list[StreamElement]:
        """Batch fast path: the condition filters the whole run."""
        return self.emit(len(batch.tuples),
                         self.condition.filter(batch.tuples))

    def flush(self) -> list[StreamElement]:
        self.sps_discarded += len(self._held_sps)
        self._held_sps = []
        return []
