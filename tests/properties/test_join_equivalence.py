"""Property tests: all SAJoin variants compute the same join."""

import tracemalloc
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bitmap import RoleUniverse
from repro.core.patterns import numeric_range
from repro.core.punctuation import SecurityPunctuation
from repro.operators.index_join import IndexSAJoin
from repro.operators.join import NestedLoopSAJoin
from repro.stream.tuples import DataTuple

from tests.properties.strategies import (ROLE_POOL, punctuated_streams,
                                         role_sets)


@st.composite
def join_feeds(draw):
    """Interleaved (port, element) feeds over two random streams."""
    left = draw(punctuated_streams(max_segments=5,
                                   max_tuples_per_segment=3, sid="left"))
    right = draw(punctuated_streams(max_segments=5,
                                    max_tuples_per_segment=3, sid="right"))
    return interleave(left, right)


def interleave(left, right):
    """Merge by timestamp (stable: port breaks ties) so windows see a
    globally ordered arrival sequence."""
    feed = ([(0, e) for e in left] + [(1, e) for e in right])
    feed.sort(key=lambda pair: (pair[1].ts, pair[0]))
    return feed


def sequence(join, feed, check=None):
    """Result tids in delivery order; ``check(join)`` after each element."""
    results = []
    for port, element in feed:
        results += [out.tid for out in join.process(element, port)
                    if isinstance(out, DataTuple)]
        if check is not None:
            check(join)
    return results


def run_join(make_join, feed):
    return sorted(sequence(make_join(), feed))


WINDOW = 1000.0  # effectively unbounded for these small feeds

VARIANTS = {
    "nl-pf": lambda: NestedLoopSAJoin("key", "key", WINDOW, method="PF"),
    "nl-fp": lambda: NestedLoopSAJoin("key", "key", WINDOW, method="FP"),
    "index": lambda: IndexSAJoin("key", "key", WINDOW,
                                 universe=RoleUniverse()),
    "index-noskip": lambda: IndexSAJoin("key", "key", WINDOW,
                                        universe=RoleUniverse(),
                                        skipping=False),
}


class TestVariantEquivalence:
    @given(join_feeds())
    @settings(max_examples=50, deadline=None)
    def test_all_variants_same_results(self, feed):
        results = {name: run_join(make, feed)
                   for name, make in VARIANTS.items()}
        baseline = results["nl-pf"]
        for name, outcome in results.items():
            assert outcome == baseline, name

    @given(join_feeds())
    @settings(max_examples=30, deadline=None)
    def test_results_respect_both_policies(self, feed):
        """Every result's base tuples were policy-compatible: verified
        against ground truth reconstructed from the feed."""
        from tests.properties.strategies import ROLE_POOL, visible_tids

        lefts = [e for p, e in feed if p == 0]
        rights = [e for p, e in feed if p == 1]
        visible_left = {role: set(visible_tids(lefts, role))
                        for role in ROLE_POOL}
        visible_right = {role: set(visible_tids(rights, role))
                         for role in ROLE_POOL}
        for left_tid, right_tid in run_join(VARIANTS["index"], feed):
            compatible = any(
                left_tid in visible_left[role]
                and right_tid in visible_right[role]
                for role in ROLE_POOL)
            assert compatible

    @given(join_feeds())
    @settings(max_examples=30, deadline=None)
    def test_window_equivalence_small(self, feed):
        """A tighter window only ever removes results."""
        wide = set(run_join(VARIANTS["index"], feed))
        narrow_join = lambda: IndexSAJoin("key", "key", 5.0,
                                          universe=RoleUniverse())
        narrow = set(run_join(narrow_join, feed))
        assert narrow <= wide


# -- keyed segments (index SAJoin) vs the scans -----------------------------

#: Repeated hashable keys (``1 == 1.0 == True`` share a bucket), a
#: missing attribute, and unhashable ones that un-key their segment.
join_keys = st.one_of(
    st.integers(0, 3), st.sampled_from([1.0, True, "a", None]),
    st.sampled_from([[1], [1, 2], {"k": 1}]))


@st.composite
def keyed_stream(draw, sid):
    """A punctuated stream with tuple-scoped (non-uniform) sp-batches
    next to wildcard ones, and every kind of join key."""
    elements, ts, tid = [], 0.0, 0
    for _ in range(draw(st.integers(1, 6))):
        ts += draw(st.integers(1, 4))
        n_tuples = draw(st.integers(0, 4))
        roles = sorted(draw(role_sets))
        if n_tuples > 1 and draw(st.booleans()):
            split = tid + draw(st.integers(0, n_tuples - 1))
            elements.append(SecurityPunctuation.grant(
                roles, ts, tuple_id=numeric_range(tid, split)))
            elements.append(SecurityPunctuation.grant(
                sorted(draw(role_sets)), ts,
                tuple_id=numeric_range(split + 1, tid + n_tuples)))
        else:
            elements.append(SecurityPunctuation.grant(roles, ts))
        for _ in range(n_tuples):
            ts += draw(st.integers(0, 3))
            key = draw(join_keys)
            values = {"v": tid} if key is None else {"key": key, "v": tid}
            elements.append(DataTuple(sid, tid, values, ts))
            tid += 1
    return elements


@st.composite
def keyed_feeds(draw):
    return interleave(draw(keyed_stream("left")), draw(keyed_stream("right")))


class ScanningIndexSAJoin(IndexSAJoin):
    """The index SAJoin over unkeyed windows: every probe scans, as
    before segments were keyed — the order reference."""

    keyed_windows = False


def check_keyed_state(join):
    """Both key structures hold exactly the live tuples."""
    for window in join.windows:
        live = Counter()
        unkeyed = 0
        for segment in window.iter_segments():
            if segment.buckets is None:
                unkeyed += 1
                continue
            assert all(segment.buckets.values())  # no empty bucket
            assert sum(map(len, segment.buckets.values())) \
                == len(segment.tuples)
            for value, bucket in segment.buckets.items():
                assert bucket == [t for t in segment.tuples
                                  if t.values.get(window.key) == value]
                live[value] += len(bucket)
        assert window.live_keys == live
        assert window._unkeyed == unkeyed


class TestKeyedSegments:
    #: Short enough that feeds expire tuples mid-segment and purge
    #: whole segments.
    WINDOW = 6.0

    @given(keyed_feeds())
    @settings(max_examples=150, deadline=None)
    def test_same_sequence_as_the_scans(self, feed):
        w = self.WINDOW
        pf = sequence(NestedLoopSAJoin("key", "key", w, method="PF"), feed)
        fp = sequence(NestedLoopSAJoin("key", "key", w, method="FP"), feed)
        assert pf == fp
        for skipping in (True, False):
            keyed = IndexSAJoin("key", "key", w, skipping=skipping)
            scan = ScanningIndexSAJoin("key", "key", w, skipping=skipping)
            delivered = sequence(keyed, feed, check_keyed_state)
            assert delivered == sequence(scan, feed), skipping
            assert sorted(delivered) == sorted(pf), skipping
            assert keyed.results == scan.results
            assert keyed.pairs_checked <= scan.pairs_checked

    def test_distinct_key_flood_leaves_bounded_state(self):
        """Fig 7c's memory claim under a hostile provider: 10^5 tuples,
        no key ever repeated, through a 400-unit window."""
        join = IndexSAJoin("key", "key", 400.0)
        ports = (("left", 0), ("right", 1))

        def push(first, last):
            for i in range(first, last):
                for sid, port in ports:
                    if i % 10 == 0:
                        join.process(SecurityPunctuation.grant(
                            [ROLE_POOL[i // 10 % 4]], float(i)), port)
                    join.process(DataTuple(sid, i, {"key": (sid, i)},
                                           float(i)), port)

        tracemalloc.start()
        try:
            push(0, 10_000)
            warm, _ = tracemalloc.get_traced_memory()
            push(10_000, 50_000)
            grown, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        for window in join.windows:
            assert len(window.live_keys) <= window.tuple_count() <= 401
            assert window.segment_count() <= 42
        assert join.results == 0 and join.stats.comparisons == 0
        assert grown < warm * 1.05
