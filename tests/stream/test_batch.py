"""Unit tests for TupleBatch and the run cutters."""

import pytest

from repro.core.analyzer import SPAnalyzer
from repro.core.punctuation import SecurityPunctuation
from repro.stream.batch import (TupleBatch, coalesce_feed, coalesce_stream,
                                segment_feed)
from repro.stream.schema import StreamSchema
from repro.stream.source import ListSource
from repro.stream.tuples import DataTuple


def dt(sid, tid, ts):
    return DataTuple(sid, tid, {"v": float(tid)}, ts)


def sp(ts):
    return SecurityPunctuation.grant(["D"], ts)


def unroll(feed):
    """Flatten a coalesced feed back to (stream_id, element) pairs."""
    out = []
    for stream_id, element in feed:
        if isinstance(element, TupleBatch):
            out.extend((stream_id, item) for item in element)
        else:
            out.append((stream_id, element))
    return out


class TestTupleBatch:
    def test_len_iter_ts(self):
        tuples = [dt("s", 0, 1.0), dt("s", 1, 2.0), dt("s", 2, 3.0)]
        batch = TupleBatch(tuples)
        assert len(batch) == 3
        assert list(batch) == tuples
        assert batch.ts == 3.0

    def test_repr(self):
        batch = TupleBatch([dt("s", 0, 1.0)])
        assert "1" in repr(batch)


class TestCoalesceFeed:
    def test_runs_between_sps_are_batched(self):
        feed = [("s", sp(0.5))] + [("s", dt("s", i, float(i + 1)))
                                   for i in range(5)] + [("s", sp(6.5))]
        out = list(coalesce_feed(iter(feed)))
        # sp, one batch of 5, sp
        assert len(out) == 3
        assert isinstance(out[1][1], TupleBatch)
        assert len(out[1][1]) == 5

    def test_transparent_unroll(self):
        feed = ([("s", sp(0.5))]
                + [("s", dt("s", i, float(i + 1))) for i in range(4)]
                + [("s", sp(5.5)), ("s", sp(5.6))]
                + [("s", dt("s", 9, 6.0))])
        assert unroll(coalesce_feed(iter(feed))) == feed

    def test_single_tuple_run_not_wrapped(self):
        feed = [("s", sp(0.5)), ("s", dt("s", 0, 1.0)), ("s", sp(1.5))]
        out = list(coalesce_feed(iter(feed)))
        assert isinstance(out[1][1], DataTuple)

    def test_stream_switch_breaks_run(self):
        feed = [("a", dt("a", 0, 1.0)), ("a", dt("a", 1, 2.0)),
                ("b", dt("b", 2, 3.0)),
                ("a", dt("a", 3, 4.0)), ("a", dt("a", 4, 5.0))]
        out = list(coalesce_feed(iter(feed)))
        kinds = [(sid, type(el).__name__) for sid, el in out]
        assert kinds == [("a", "TupleBatch"), ("b", "DataTuple"),
                         ("a", "TupleBatch")]
        assert unroll(coalesce_feed(iter(feed))) == feed

    def test_max_batch_splits_long_runs(self):
        feed = [("s", dt("s", i, float(i))) for i in range(10)]
        out = list(coalesce_feed(iter(feed), max_batch=4))
        sizes = [len(el) if isinstance(el, TupleBatch) else 1
                 for _, el in out]
        assert sizes == [4, 4, 2]
        assert unroll(coalesce_feed(iter(feed), max_batch=4)) == feed

    def test_empty_and_sp_only_feeds(self):
        assert list(coalesce_feed(iter([]))) == []
        feed = [("s", sp(1.0)), ("s", sp(2.0))]
        assert list(coalesce_feed(iter(feed))) == feed


def shape(feed):
    """A feed with each TupleBatch replaced by its (comparable) tuples."""
    return [(sid, ("run", el.tuples) if isinstance(el, TupleBatch) else el)
            for sid, el in feed]


def one_stream():
    """Every cut the single-source cutter makes: a no-sp prefix, a
    two-sp batch the analyzer combines, a run of one, runs of 10 and 5
    (``max_batch=4`` splits them 4+4+2 and 4+1 — the 1 unwrapped),
    an empty segment and a trailing sp-batch."""
    elements = [dt("s", 0, 1.0), dt("s", 1, 2.0),
                SecurityPunctuation.grant(["D"], 3.0),
                SecurityPunctuation.grant(["N"], 3.0),
                dt("s", 2, 4.0), sp(5.0)]
    elements += [dt("s", 10 + i, 6.0 + i) for i in range(10)]
    elements += [sp(20.0), sp(21.0)]
    elements += [dt("s", 30 + i, 22.0 + i) for i in range(5)]
    elements += [sp(30.0), SecurityPunctuation.grant(["N"], 30.0)]
    return elements


def analyzer():
    out = SPAnalyzer()
    out.add_server_policy(SecurityPunctuation.grant(["D", "N"], 0.0))
    return out


class TestCoalesceStream:
    """The single-source cutter is ``coalesce_feed`` over the same
    one-stream input, and ``analyze_batched`` is it over ``analyze()``."""

    @pytest.mark.parametrize("max_batch", [4, 4096])
    def test_unanalysed_matches_coalesce_feed(self, max_batch):
        elements = one_stream()
        fused = [("s", el) for el in coalesce_stream(
            elements, max_batch=max_batch)]
        composed = coalesce_feed([("s", el) for el in elements],
                                 max_batch=max_batch)
        assert shape(fused) == shape(composed)
        assert unroll(fused) == [("s", el) for el in elements]

    @pytest.mark.parametrize("max_batch", [4, 4096])
    def test_analysed_matches_coalesce_feed_over_analyze(self, max_batch):
        elements = one_stream()
        fused = [("s", el) for el in analyzer().analyze_batched(
            elements, max_batch=max_batch)]
        analysed = list(analyzer().analyze(elements))
        assert len(analysed) < len(elements)  # the analyzer combined sps
        composed = coalesce_feed([("s", el) for el in analysed],
                                 max_batch=max_batch)
        assert shape(fused) == shape(composed)
        kinds = [type(el).__name__ for _, el in fused]
        assert "TupleBatch" in kinds and "DataTuple" in kinds

    def test_segment_feed_single_source_takes_the_same_cut(self):
        """Sps pass the cut as the source holds them: the analyzer runs
        in the entry gate."""
        elements = one_stream()
        fed = list(segment_feed([ListSource(StreamSchema("s", ("v",)),
                                            elements)]))
        composed = coalesce_feed(("s", el) for el in elements)
        assert shape(fed) == shape(composed)
        assert unroll(fed) == [("s", el) for el in elements]
