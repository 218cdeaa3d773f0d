"""Sp-aware projection (π).

Table I: ``(t, Pt) ∈ πa1..an(T) iff t consists of ai and Pt ≠ ∅``.

Projection discards unwanted attributes on the fly and propagates the
streaming sps ahead of the projected tuples.  An sp whose DDP describes
a policy *only* for projected-away attributes protects nothing that
survives, so it is discarded from the stream as well.

When *every* sp of an sp-batch is pruned this way, the batch boundary
must not vanish silently: downstream operators would keep resolving
tuples against the *previous* segment's policy, widening access.  The
projection instead emits an explicit wildcard-denial marker
(:func:`~repro.core.punctuation.deny_all_sp`) at the batch's timestamp, so
the pruned segment correctly resolves to denial-by-default — exactly
what resolving the original batch against the retained attributes
yields (no surviving sp describes any of them).
"""

from __future__ import annotations

from typing import Iterable

from repro.core.punctuation import SecurityPunctuation, deny_all_sp
from repro.errors import PlanError
from repro.operators.base import UnaryOperator
from repro.stream.batch import TupleBatch
from repro.stream.element import StreamElement
from repro.stream.tuples import DataTuple

__all__ = ["Project"]


class Project(UnaryOperator):
    """Keep only the named attributes; prune attribute-only sps."""

    def __init__(self, attributes: Iterable[str], *,
                 keep_tid: bool = True, name: str | None = None):
        super().__init__(name)
        self.attributes = tuple(attributes)
        if not self.attributes:
            raise PlanError("projection requires at least one attribute")
        #: Whether the tuple identifier is among the retained columns
        #: conceptually — Rule 2's project/SS commuting cares about it.
        self.keep_tid = keep_tid
        self.sps_discarded = 0
        self.deny_markers = 0
        #: Open sp-batch accounting: (ts, seen, survived) or None.
        self._open_batch: tuple[float, int, int] | None = None

    def _close_batch(self) -> list[StreamElement]:
        """Emit a denial marker if the closing batch was fully pruned."""
        open_batch = self._open_batch
        self._open_batch = None
        if open_batch is None:
            return []
        ts, seen, survived = open_batch
        if seen and not survived:
            self.deny_markers += 1
            return [deny_all_sp(ts)]
        return []

    def _process(self, element: StreamElement,
                 port: int) -> list[StreamElement]:
        if isinstance(element, SecurityPunctuation):
            out: list[StreamElement] = []
            if (self._open_batch is not None
                    and element.ts != self._open_batch[0]):
                out = self._close_batch()
            if self._open_batch is None:
                self._open_batch = (element.ts, 0, 0)
            ts, seen, survived = self._open_batch
            if self._sp_survives(element):
                self._open_batch = (ts, seen + 1, survived + 1)
                out.append(element)
            else:
                self._open_batch = (ts, seen + 1, survived)
                self.sps_discarded += 1
            return out
        assert isinstance(element, DataTuple)
        out = self._close_batch()
        out.append(element.project(self.attributes))
        return out

    def _process_batch(self, batch: TupleBatch,
                       port: int) -> list[StreamElement]:
        """Batch fast path: project the whole run in one comprehension."""
        attributes = self.attributes
        marker = self._close_batch()
        projected: StreamElement = TupleBatch(
            [item.project(attributes) for item in batch.tuples])
        if marker:
            return marker + [projected]
        return [projected]

    def _sp_survives(self, sp: SecurityPunctuation) -> bool:
        """False iff the sp describes only projected-away attributes."""
        pattern = sp.ddp.attribute
        if pattern.is_wildcard():
            return True
        return any(pattern.matches(attr) for attr in self.attributes)
