"""Property tests for patterns, reordering and windows."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.patterns import parse_pattern
from repro.stream.ordering import reorder
from repro.stream.tuples import DataTuple

from tests.properties.strategies import punctuated_streams


class TestPatternProperties:
    @given(st.sets(st.text(alphabet="abcdef", min_size=1, max_size=4),
                   min_size=1, max_size=5))
    @settings(max_examples=60)
    def test_set_pattern_round_trip(self, values):
        pattern = parse_pattern("{" + ", ".join(sorted(values)) + "}")
        reparsed = parse_pattern(pattern.spec())
        assert reparsed == pattern
        for value in values:
            assert pattern.matches(value)
        assert not pattern.matches("not-in-the-set-zzz")

    @given(st.integers(-1000, 1000), st.integers(0, 1000),
           st.integers(-2000, 2000))
    @settings(max_examples=80)
    def test_range_pattern_membership(self, low, span, probe):
        pattern = parse_pattern(f"[{low}-{low + span}]")
        assert pattern.matches(probe) == (low <= probe <= low + span)

    @given(st.lists(st.integers(0, 50), min_size=1, max_size=20))
    @settings(max_examples=60)
    def test_eval_is_filter(self, values):
        pattern = parse_pattern("[10-30]")
        assert pattern.eval(values) == [v for v in values
                                        if pattern.matches(v)]


class TestReorderProperties:
    @given(punctuated_streams(), st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_local_shuffle_recovered(self, elements, rng):
        """Shuffling within a bounded distance, a big-enough-slack
        reorder buffer restores a timestamp-ordered stream containing
        the same elements."""
        shuffled = list(elements)
        # Adjacent swaps only: displacement is bounded by max ts gap.
        for i in range(len(shuffled) - 1):
            if rng.random() < 0.5:
                shuffled[i], shuffled[i + 1] = shuffled[i + 1], shuffled[i]
        max_ts = max((e.ts for e in elements), default=0.0)
        recovered = list(reorder(shuffled, slack=max_ts + 1))
        timestamps = [e.ts for e in recovered]
        assert timestamps == sorted(timestamps)
        assert len(recovered) == len(elements)
        assert {id(e) for e in recovered} == {id(e) for e in elements}

    @given(punctuated_streams())
    @settings(max_examples=30, deadline=None)
    def test_ordered_input_passes_through(self, elements):
        assert list(reorder(elements, slack=0.0)) == elements


class TestWindowProperties:
    @given(punctuated_streams(max_segments=6),
           st.floats(min_value=1.0, max_value=20.0))
    @settings(max_examples=40, deadline=None)
    def test_invalidation_keeps_exactly_in_window_tuples(self, elements,
                                                         extent):
        from repro.core.punctuation import SecurityPunctuation
        from repro.operators.base import PolicyTracker
        from repro.stream.window import PunctuatedWindow

        window = PunctuatedWindow("s", extent)
        tracker = PolicyTracker("s")
        inserted = []
        for element in elements:
            if isinstance(element, SecurityPunctuation):
                tracker.observe_sp(element)
            else:
                policy = tracker.policy_for(element)
                batch = tracker.take_pending_sps()
                if batch:
                    window.open_segment(batch, tracker.is_uniform)
                window.insert(element, policy)
                inserted.append(element)
        if not inserted:
            return
        now = inserted[-1].ts + extent / 2
        window.invalidate(now)
        live = [t for t, _ in window.iter_entries()]
        expected = [t for t in inserted if t.ts > now - extent]
        assert [t.tid for t in live] == [t.tid for t in expected]
