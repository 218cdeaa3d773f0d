"""Streaming substrate: schemas, tuples, elements, windows, sources."""

from repro.stream.batch import (TupleBatch, coalesce_feed, coalesce_stream,
                                segment_feed)
from repro.stream.element import (StreamElement, count_elements, element_ts,
                                  is_punctuation, is_tuple, iter_sps,
                                  iter_tuples, split_elements)
from repro.stream.ordering import ReorderBuffer, ensure_ordered, reorder
from repro.stream.schema import StreamSchema
from repro.stream.source import ListSource, StreamSource, merge_sources
from repro.stream.stream import Stream
from repro.stream.tuples import DataTuple
from repro.stream.window import PunctuatedWindow, Segment
from repro.stream.wire import (decode_element, dump_stream, encode_element,
                               load_stream)

__all__ = [
    "DataTuple",
    "TupleBatch",
    "decode_element",
    "dump_stream",
    "encode_element",
    "load_stream",
    "ListSource",
    "PunctuatedWindow",
    "ReorderBuffer",
    "Segment",
    "Stream",
    "StreamElement",
    "StreamSchema",
    "StreamSource",
    "coalesce_feed",
    "coalesce_stream",
    "count_elements",
    "element_ts",
    "ensure_ordered",
    "is_punctuation",
    "is_tuple",
    "iter_sps",
    "iter_tuples",
    "merge_sources",
    "reorder",
    "segment_feed",
    "split_elements",
]
