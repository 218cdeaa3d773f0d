"""The PolicyTracker's two resolution paths against an independent
reference: the verification oracle's ``NaiveTracker`` and
``resolve_batch``, which share no code with the tracker.

Each stream is fed to both element by element; for every tuple the
tracker's resolved roles must equal the oracle's, and the tracker may
call its segment uniform exactly when every governing sp has wildcard
tuple and attribute patterns.
"""

import pytest

from repro.core.patterns import literal, numeric_range, one_of
from repro.core.punctuation import SecurityPunctuation
from repro.operators.base import PolicyTracker
from repro.stream.tuples import DataTuple
from repro.verify.oracle import NaiveTracker, resolve_batch

grant, deny = SecurityPunctuation.grant, SecurityPunctuation.deny


def tup(tid, ts, sid="s1"):
    return DataTuple(sid, tid, {"a": tid, "b": -tid}, ts)


def stream_scoped(ts, negative):
    batch = [grant(["A", "B"], ts, stream=literal("s1")),
             grant(["B", "C"], ts, stream=literal("s2"))]
    if negative:
        batch.append(deny(["B"], ts, stream=literal("s2")))
    return batch + [tup(1, ts + 1), tup(2, ts + 1, "s2"), tup(3, ts + 1),
                    tup(4, ts + 1, "s3")]


SHAPES = {
    "two providers, wildcard": [
        grant(["A"], 1.0, provider="p1"), grant(["B"], 1.0, provider="p2"),
        tup(1, 2.0), tup(2, 2.0, "s2")],
    "stream scope, two sids": stream_scoped(1.0, negative=False),
    "stream scope, two sids, a negative sp": stream_scoped(1.0,
                                                           negative=True),
    "tuple scope": [
        grant(["A"], 1.0, tuple_id=numeric_range(1, 2)),
        grant(["B"], 1.0, stream=literal("s1")),
        deny(["B"], 1.0, tuple_id=numeric_range(2, 3)),
        *(tup(tid, 2.0) for tid in (1, 2, 3, 4, 1))],
    "attribute scope": [
        grant(["A", "B"], 1.0, attribute=one_of(["a", "b"])),
        grant(["C"], 1.0, attribute=literal("a")),
        grant(["D"], 1.0, tuple_id=numeric_range(2, 2)),
        *(tup(tid, 2.0) for tid in (1, 2, 1)),
        DataTuple("s1", 5, {"a": 0}, 2.0)],
    "tuples before any sp": [
        tup(1, 0.0), tup(2, 0.5), grant(["A"], 1.0), tup(3, 2.0)],
    "stale batch": [
        grant(["A"], 5.0, tuple_id=numeric_range(1, 1)), tup(1, 6.0),
        grant(["B"], 1.0), tup(2, 6.0), tup(1, 6.0),
        grant(["C"], 7.0), tup(3, 8.0)],
    "incremental batch": [
        grant(["A", "B"], 1.0), tup(1, 2.0),
        SecurityPunctuation.add_roles(["C"], 3.0),
        SecurityPunctuation.retract_roles(["A"], 3.0), tup(2, 4.0),
        SecurityPunctuation.retract_roles(["B", "C"], 5.0), tup(3, 6.0),
        SecurityPunctuation.add_roles(["D"], 7.0), tup(4, 8.0)],
}


def wildcard_below_stream(batch):
    return all(sp.ddp.tuple_id.is_wildcard() and sp.ddp.attribute.is_wildcard()
               for sp in batch)


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_tracker_answers_as_the_oracle(shape):
    tracker, naive = PolicyTracker("s1"), NaiveTracker()
    tuples = 0
    for element in SHAPES[shape]:
        if isinstance(element, SecurityPunctuation):
            tracker.observe_sp(element)
            naive.observe(element)
            continue
        tuples += 1
        governing = naive.governing()
        assert tracker.policy_for(element).roles == resolve_batch(
            governing, element), element
        assert tracker.is_uniform == wildcard_below_stream(governing)
    assert tuples
