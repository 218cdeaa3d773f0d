"""Tests for punctuated sliding windows and s-punctuated segments."""

import pytest

from repro.core.patterns import literal, numeric_range
from repro.core.punctuation import SecurityPunctuation
from repro.errors import StreamError
from repro.operators.base import PolicyTracker
from repro.stream.tuples import DataTuple
from repro.stream.window import PunctuatedWindow


def grant(roles, ts=1.0, **kwargs):
    return SecurityPunctuation.grant(roles, ts, **kwargs)


def tup(tid, ts, sid="s1"):
    return DataTuple(sid, tid, {"v": tid}, ts)


class Feed:
    """A window fed by hand the way an operator feeds it: the tracker
    interprets the sps, the window stores what it resolved."""

    def __init__(self, window):
        self.window = window
        self.tracker = PolicyTracker(window.stream_id)

    def open_segment(self, sp):
        self.tracker.observe_sp(sp)
        self.window.open_segment(self.tracker.take_pending_sps(),
                                 self.tracker.is_uniform)

    def insert(self, item):
        self.window.insert(item, self.tracker.policy_for(item))


def uniform(*sps):
    """Whether a tracker reading ``sps`` calls the segment uniform."""
    tracker = PolicyTracker("s1")
    for sp in sps:
        tracker.observe_sp(sp)
    return tracker.is_uniform


class TestUniformity:
    def test_wildcard_policy_is_uniform(self):
        assert uniform(grant(["D"]))

    def test_tuple_scoped_policy_not_uniform(self):
        assert not uniform(grant(["D"], tuple_id=numeric_range(1, 5)))

    def test_attribute_scoped_policy_not_uniform(self):
        assert not uniform(grant(["D"], attribute=literal("temp")))

    def test_none_policy_uniform(self):
        assert uniform()

    def test_two_sid_stream_scoped_policy_is_uniform(self):
        """Stream scope: the answer depends on the tuple's sid only."""
        tracker = PolicyTracker("*")
        tracker.observe_sp(grant(["D"], stream=literal("s1")))
        tracker.observe_sp(grant(["N"], stream=literal("s2")))
        assert tracker.is_uniform
        assert tracker.policy_for(tup(1, 2.0)).roles == {"D"}
        assert tracker.policy_for(tup(2, 2.0, sid="s2")).roles == {"N"}
        assert tracker.policy_for(tup(3, 2.0)) is tracker.policy_for(
            tup(4, 2.0))


class TestWindow:
    def test_requires_positive_extent(self):
        with pytest.raises(StreamError):
            PunctuatedWindow("s1", 0)

    def test_segment_policies_resolve(self):
        window = PunctuatedWindow("s1", 100.0)
        feed = Feed(window)
        sp = grant(["D", "ND"], ts=1.0)
        feed.open_segment(sp)
        feed.insert(tup(1, 2.0))
        entries = list(window.iter_entries())
        assert len(entries) == 1
        _, policy = entries[0]
        assert policy.roles == frozenset({"D", "ND"})

    def test_tuple_before_any_sp_denied_by_default(self):
        window = PunctuatedWindow("s1", 100.0)
        feed = Feed(window)
        feed.insert(tup(1, 1.0))
        (_, policy), = window.iter_entries()
        assert policy.is_empty()

    def test_tuple_scoped_resolution_per_tuple(self):
        window = PunctuatedWindow("s1", 100.0)
        feed = Feed(window)
        sp = grant(["GP"], ts=0.0, tuple_id=numeric_range(120, 133))
        feed.open_segment(sp)
        feed.insert(tup(125, 1.0))
        feed.insert(tup(200, 2.0))
        entries = list(window.iter_entries())
        assert entries[0][1].roles == frozenset({"GP"})
        assert entries[1][1].is_empty()

    def test_invalidation_expires_old_tuples(self):
        window = PunctuatedWindow("s1", 10.0)
        feed = Feed(window)
        sp = grant(["D"], ts=0.0)
        feed.open_segment(sp)
        for ts in (1.0, 2.0, 3.0):
            feed.insert(tup(int(ts), ts))
        expired, purged = window.invalidate(12.5)
        assert expired == 2  # ts 1.0 and 2.0 are <= 12.5 - 10
        assert purged == []
        assert window.tuple_count() == 1

    def test_sp_purged_with_empty_segment_when_newer_exists(self):
        window = PunctuatedWindow("s1", 10.0)
        feed = Feed(window)
        sp1 = grant(["D"], ts=0.0)
        feed.open_segment(sp1)
        feed.insert(tup(1, 1.0))
        sp2 = grant(["C"], ts=5.0)
        feed.open_segment(sp2)
        feed.insert(tup(2, 6.0))
        expired, purged = window.invalidate(20.0)
        assert expired == 2
        # Old segment purged entirely; newest kept as the live policy.
        assert len(purged) == 1
        assert purged[0].sps == [sp1]
        assert window.segment_count() == 1

    def test_latest_segment_survives_even_when_empty(self):
        window = PunctuatedWindow("s1", 10.0)
        feed = Feed(window)
        sp = grant(["D"], ts=0.0)
        feed.open_segment(sp)
        feed.insert(tup(1, 1.0))
        expired, purged = window.invalidate(100.0)
        assert expired == 1
        assert purged == []  # only segment: governs upcoming tuples
        assert window.sp_count() == 1

    def test_counters(self):
        window = PunctuatedWindow("s1", 10.0)
        feed = Feed(window)
        sp = grant(["D"], ts=0.0)
        feed.open_segment(sp)
        feed.insert(tup(1, 1.0))
        feed.insert(tup(2, 2.0))
        window.invalidate(50.0)
        assert window.tuples_inserted == 2
        assert window.tuples_expired == 2
        assert window.sps_inserted == 1

    def test_resolution_uses_tuple_sid(self):
        window = PunctuatedWindow("placeholder", 100.0)
        feed = Feed(window)
        sp = grant(["C"], ts=0.0, stream=literal("HeartRate"))
        feed.open_segment(sp)
        feed.insert(tup(1, 1.0, sid="HeartRate"))
        feed.insert(tup(2, 2.0, sid="Other"))
        entries = list(window.iter_entries())
        assert entries[0][1].roles == frozenset({"C"})
        assert entries[1][1].is_empty()
