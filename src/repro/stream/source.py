"""Stream sources and timestamp-order merging.

A :class:`StreamSource` feeds one input stream of a query plan.  The
executor pulls elements from all registered sources in global
timestamp order via :func:`merge_sources`, which is how a centralized
DSMS sees interleaved arrivals from many data providers.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Iterator

from repro.stream.element import StreamElement
from repro.stream.schema import StreamSchema

__all__ = ["StreamSource", "ListSource", "merge_sources"]


class StreamSource:
    """Abstract source of one input stream."""

    def __init__(self, schema: StreamSchema):
        self.schema = schema

    @property
    def stream_id(self) -> str:
        return self.schema.stream_id

    def __iter__(self) -> Iterator[StreamElement]:
        raise NotImplementedError


class ListSource(StreamSource):
    """Source over a pre-materialized element sequence."""

    def __init__(self, schema: StreamSchema,
                 elements: Iterable[StreamElement]):
        super().__init__(schema)
        self._elements = list(elements)

    def __iter__(self) -> Iterator[StreamElement]:
        return iter(self._elements)

    def __len__(self) -> int:
        return len(self._elements)


def merge_sources(
    sources: Iterable[StreamSource],
) -> Iterator[tuple[str, StreamElement]]:
    """Merge sources into one (stream_id, element) feed in ts order.

    The merge is stable: within one source, element order is preserved
    (so sps keep preceding their tuples), and timestamp ties across
    sources are broken by source registration order, making executions
    deterministic and therefore testable.
    """
    sources = list(sources)
    if len(sources) == 1:
        # Single-source fast path: nothing to merge, skip the heap.
        (source,) = sources
        stream_id = source.stream_id
        for element in source:
            yield stream_id, element
        return
    iterators: list[tuple[int, str, Iterator[StreamElement]]] = [
        (index, source.stream_id, iter(source))
        for index, source in enumerate(sources)
    ]
    heap: list[tuple[float, int, int, str, StreamElement,
                     Iterator[StreamElement]]] = []
    seq = 0
    for index, stream_id, iterator in iterators:
        element = next(iterator, None)
        if element is not None:
            heap.append((element.ts, index, seq, stream_id, element, iterator))
            seq += 1
    heapq.heapify(heap)
    while heap:
        ts, index, _, stream_id, element, iterator = heapq.heappop(heap)
        yield stream_id, element
        nxt = next(iterator, None)
        if nxt is not None:
            heapq.heappush(heap, (nxt.ts, index, seq, stream_id, nxt,
                                  iterator))
            seq += 1
