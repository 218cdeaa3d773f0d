"""Tests for the sp-aware union and the sinks."""

from repro.core.punctuation import SecurityPunctuation
from repro.operators.setops import Union
from repro.operators.sink import CollectingSink
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


class TestSinks:
    def test_collecting_sink(self):
        sink = CollectingSink()
        sink.process(grant(["D"], 0.0))
        sink.process(tup(1, "a", 1.0))
        assert len(sink.tuples()) == 1
        assert len(sink.sps()) == 1
        sink.clear()
        assert sink.elements == []
