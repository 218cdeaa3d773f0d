"""Tests for sp-aware set operations, access filters and sinks."""

import pytest

from repro.core.punctuation import SecurityPunctuation
from repro.errors import PlanError
from repro.operators.accessfilter import AccessFilter
from repro.operators.setops import Intersect, Union
from repro.operators.shield import SecurityShield
from repro.operators.sink import CollectingSink, CountingSink
from repro.stream.tuples import DataTuple


def grant(roles, ts):
    return SecurityPunctuation.grant(roles, ts)


def tup(tid, value, ts, sid="left"):
    return DataTuple(sid, tid, {"v": value}, ts)


class TestUnion:
    def test_interleaved_inputs_repunctuated(self):
        union = Union()
        out = []
        out.extend(union.process(grant(["D"], 0.0), 0))
        out.extend(union.process(grant(["C"], 0.0), 1))
        out.extend(union.process(tup(1, "a", 1.0), 0))
        out.extend(union.process(tup(2, "b", 2.0, sid="right"), 1))
        tuples = [e for e in out if isinstance(e, DataTuple)]
        sps = [e for e in out if isinstance(e, SecurityPunctuation)]
        assert [t.tid for t in tuples] == [1, 2]
        # Each tuple is governed by its own input's policy: the output
        # must re-punctuate on every policy flip.
        assert [s.roles() for s in sps] == [frozenset({"D"}),
                                            frozenset({"C"})]

    def test_same_policy_share_one_sp(self):
        union = Union()
        out = []
        out.extend(union.process(grant(["D"], 0.0), 0))
        out.extend(union.process(grant(["D"], 0.0), 1))
        out.extend(union.process(tup(1, "a", 1.0), 0))
        out.extend(union.process(tup(2, "b", 2.0, sid="right"), 1))
        sps = [e for e in out if isinstance(e, SecurityPunctuation)]
        assert len(sps) == 1

    def test_denied_inputs_dropped(self):
        union = Union()
        assert union.process(tup(1, "a", 1.0), 0) == []


class TestIntersect:
    def test_common_values_under_policy_intersection(self):
        op = Intersect(("v",), window=100.0)
        out = []
        out.extend(op.process(grant(["D", "C"], 0.0), 0))
        out.extend(op.process(tup(1, "a", 1.0), 0))
        out.extend(op.process(grant(["D"], 0.0), 1))
        out.extend(op.process(tup(2, "a", 2.0, sid="right"), 1))
        tuples = [e for e in out if isinstance(e, DataTuple)]
        sps = [e for e in out if isinstance(e, SecurityPunctuation)]
        assert len(tuples) == 1
        assert sps[0].roles() == frozenset({"D"})

    def test_policy_incompatible_suppressed(self):
        op = Intersect(("v",), window=100.0)
        op.process(grant(["C"], 0.0), 0)
        op.process(tup(1, "a", 1.0), 0)
        op.process(grant(["D"], 0.0), 1)
        out = op.process(tup(2, "a", 2.0, sid="right"), 1)
        assert out == []
        assert op.policy_rejects == 1

    def test_value_mismatch_suppressed(self):
        op = Intersect(("v",), window=100.0)
        op.process(grant(["D"], 0.0), 0)
        op.process(tup(1, "a", 1.0), 0)
        op.process(grant(["D"], 0.0), 1)
        assert op.process(tup(2, "b", 2.0, sid="right"), 1) == []

    def test_invalid_params(self):
        with pytest.raises(PlanError):
            Intersect((), window=10.0)
        with pytest.raises(PlanError):
            Intersect(("v",), window=0.0)


class TestAccessFilter:
    def test_prefilter_strips_sps(self):
        prefilter = AccessFilter(["D"], strip_sps=True)
        out = []
        out.extend(prefilter.process(grant(["D"], 0.0)))
        out.extend(prefilter.process(tup(1, "a", 1.0)))
        assert all(isinstance(e, DataTuple) for e in out)
        assert len(out) == 1

    def test_postfilter_keeps_sps(self):
        postfilter = AccessFilter(["D"], strip_sps=False)
        out = []
        out.extend(postfilter.process(grant(["D"], 0.0)))
        out.extend(postfilter.process(tup(1, "a", 1.0)))
        assert isinstance(out[0], SecurityPunctuation)

    def test_blocks_unauthorized(self):
        f = AccessFilter(["C"])
        f.process(grant(["D"], 0.0))
        assert f.process(tup(1, "a", 1.0)) == []
        assert f.tuples_blocked == 1

    def test_denied_segment_is_discarded_with_its_sps(self):
        """Table I, as the shield: the sp of a segment nothing passed
        from must not ride out with the next segment's first tuple."""
        denied, granted = grant(["D"], 1.0), grant(["X"], 3.0)
        feed = [denied, tup(1, "a", 2.0), granted, tup(2, "b", 4.0)]
        for operator in (AccessFilter(["X"], strip_sps=False),
                         SecurityShield(["X"])):
            out = [item for element in feed
                   for item in operator.process(element)]
            assert out == [granted, feed[3]]
            assert out[0] is granted
            assert operator.tuples_blocked == 1
        stripped = AccessFilter(["X"])
        assert [item for element in feed
                for item in stripped.process(element)] == [feed[3]]


class TestSinks:
    def test_collecting_sink(self):
        sink = CollectingSink()
        sink.process(grant(["D"], 0.0))
        sink.process(tup(1, "a", 1.0))
        assert len(sink.tuples()) == 1
        assert len(sink.sps()) == 1
        sink.clear()
        assert sink.elements == []

    def test_counting_sink(self):
        sink = CountingSink()
        sink.process(grant(["D"], 0.0))
        sink.process(tup(1, "a", 1.0))
        sink.process(tup(2, "b", 5.0))
        assert sink.tuple_count == 2
        assert sink.sp_count == 1
        assert sink.first_ts == 1.0
        assert sink.last_ts == 5.0
