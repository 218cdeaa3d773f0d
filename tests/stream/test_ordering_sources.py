"""Tests for ordering utilities, element helpers and sources."""

import pytest

from repro.core.punctuation import SecurityPunctuation
from repro.errors import OutOfOrderError
from repro.stream.element import (count_elements, is_punctuation, is_tuple,
                                  iter_sps, iter_tuples, split_elements)
from repro.stream.ordering import ReorderBuffer, ensure_ordered, reorder
from repro.stream.schema import StreamSchema
from repro.stream.source import ListSource, merge_sources
from repro.stream.tuples import DataTuple


def tup(tid, ts, sid="s"):
    return DataTuple(sid, tid, {"v": tid}, ts)


def sp(ts):
    return SecurityPunctuation.grant(["D"], ts)


class TestElementHelpers:
    def test_type_predicates(self):
        assert is_punctuation(sp(1.0))
        assert not is_punctuation(tup(1, 1.0))
        assert is_tuple(tup(1, 1.0))
        assert not is_tuple(sp(1.0))

    def test_split_and_count(self):
        elements = [sp(0.0), tup(1, 1.0), tup(2, 2.0), sp(3.0)]
        tuples, sps = split_elements(elements)
        assert [t.tid for t in tuples] == [1, 2]
        assert len(sps) == 2
        assert count_elements(elements) == (2, 2)

    def test_iterators(self):
        elements = [sp(0.0), tup(1, 1.0)]
        assert [t.tid for t in iter_tuples(elements)] == [1]
        assert [s.ts for s in iter_sps(elements)] == [0.0]


class TestEnsureOrdered:
    def test_passes_ordered(self):
        elements = [tup(1, 1.0), tup(2, 1.0), tup(3, 2.0)]
        assert list(ensure_ordered(elements)) == elements

    def test_raises_on_regression(self):
        with pytest.raises(OutOfOrderError):
            list(ensure_ordered([tup(1, 2.0), tup(2, 1.0)]))


class TestReorderBuffer:
    def test_restores_order_within_slack(self):
        elements = [tup(1, 1.0), tup(3, 3.0), tup(2, 2.0), tup(5, 9.0)]
        ordered = list(reorder(elements, slack=2.0))
        assert [e.tid for e in ordered] == [1, 2, 3, 5]

    def test_drops_hopelessly_late(self):
        buffer = ReorderBuffer(slack=1.0)
        out = []
        # ts 20 forces release of everything up to 19; the ts=2 arrival
        # is then older than what was already released and is dropped.
        for element in [tup(1, 1.0), tup(2, 10.0), tup(4, 20.0),
                        tup(3, 2.0)]:
            out.extend(buffer.push(element))
        out.extend(buffer.flush())
        assert [e.tid for e in out] == [1, 2, 4]
        assert buffer.dropped == 1

    def test_ties_keep_arrival_order(self):
        # An sp and its tuple share a timestamp: sp must stay first.
        elements = [sp(5.0), tup(1, 5.0)]
        ordered = list(reorder(elements, slack=3.0))
        assert is_punctuation(ordered[0])
        assert is_tuple(ordered[1])

    def test_negative_slack_rejected(self):
        with pytest.raises(ValueError):
            ReorderBuffer(-1.0)


class TestSources:
    def test_list_source(self):
        schema = StreamSchema("s", ("v",))
        source = ListSource(schema, [tup(1, 1.0)])
        assert len(source) == 1
        assert [e.tid for e in source] == [1]

    def test_merge_orders_by_ts(self):
        s1 = ListSource(StreamSchema("a", ("v",)),
                        [tup(1, 1.0, "a"), tup(3, 3.0, "a")])
        s2 = ListSource(StreamSchema("b", ("v",)),
                        [tup(2, 2.0, "b"), tup(4, 4.0, "b")])
        merged = list(merge_sources([s1, s2]))
        assert [tid for _, e in merged for tid in [e.tid]] == [1, 2, 3, 4]
        assert [sid for sid, _ in merged] == ["a", "b", "a", "b"]

    def test_merge_tie_break_by_registration_order(self):
        s1 = ListSource(StreamSchema("a", ("v",)), [tup(1, 5.0, "a")])
        s2 = ListSource(StreamSchema("b", ("v",)), [tup(2, 5.0, "b")])
        merged = list(merge_sources([s1, s2]))
        assert [e.tid for _, e in merged] == [1, 2]

    def test_merge_preserves_sp_before_tuple(self):
        schema = StreamSchema("a", ("v",))
        source = ListSource(schema, [sp(1.0), tup(1, 1.0, "a")])
        merged = [e for _, e in merge_sources([source])]
        assert is_punctuation(merged[0]) and is_tuple(merged[1])
