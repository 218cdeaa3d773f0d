"""Tests for the SPIndex structure and the skipping rule (Lemma 5.1)."""

from repro.core.bitmap import RoleUniverse
from repro.core.punctuation import SecurityPunctuation
from repro.operators.spindex import SPIndex
from repro.stream.window import Segment


def make_segment(roles, ts=0.0):
    sp = SecurityPunctuation.grant(sorted(roles), ts)
    return Segment([sp])


class TestMaintenance:
    def test_insert_links_all_roles(self):
        universe = RoleUniverse(["r1", "r2", "r3"])
        index = SPIndex(universe)
        entry = index.insert(make_segment({"r1", "r3"}), frozenset({"r1", "r3"}))
        assert entry.roles_ordered == ("r1", "r3")
        assert index.entry_count() == 1
        assert index.insertions == 1

    def test_roles_ordered_by_universe_id(self):
        universe = RoleUniverse(["z_first", "a_second"])
        index = SPIndex(universe)
        entry = index.insert(make_segment({"a_second", "z_first"}),
                             frozenset({"a_second", "z_first"}))
        # Universe order (registration), not lexicographic.
        assert entry.roles_ordered == ("z_first", "a_second")

    def test_remove_marks_dead(self):
        universe = RoleUniverse(["r1"])
        index = SPIndex(universe)
        segment = make_segment({"r1"})
        index.insert(segment, frozenset({"r1"}))
        index.remove_segment(segment)
        assert index.entry_count() == 0
        assert index.deletions == 1
        assert list(index.probe(frozenset({"r1"}))) == []

    def test_remove_unknown_segment_is_noop(self):
        index = SPIndex(RoleUniverse())
        index.remove_segment(make_segment({"r1"}))
        assert index.deletions == 0

    def test_fifo_removal_cleans_heads(self):
        universe = RoleUniverse(["r1"])
        index = SPIndex(universe)
        first = make_segment({"r1"})
        second = make_segment({"r1"})
        index.insert(first, frozenset({"r1"}))
        index.insert(second, frozenset({"r1"}))
        index.remove_segment(first)
        live = list(index.probe(frozenset({"r1"})))
        assert live == [second]


class TestProbing:
    def test_only_compatible_segments_returned(self):
        universe = RoleUniverse(["a", "b", "c"])
        index = SPIndex(universe)
        seg_a = make_segment({"a"})
        seg_b = make_segment({"b"})
        index.insert(seg_a, frozenset({"a"}))
        index.insert(seg_b, frozenset({"b"}))
        assert list(index.probe(frozenset({"a"}))) == [seg_a]
        assert list(index.probe(frozenset({"c"}))) == []

    def test_empty_probe(self):
        index = SPIndex(RoleUniverse())
        assert list(index.probe(frozenset())) == []

    def test_skipping_rule_dedups_multi_role_overlap(self):
        """A segment sharing k roles with the probe is yielded once."""
        universe = RoleUniverse(["a", "b", "c"])
        index = SPIndex(universe)
        segment = make_segment({"a", "b", "c"})
        index.insert(segment, frozenset({"a", "b", "c"}))
        results = list(index.probe(frozenset({"a", "b", "c"})))
        assert results == [segment]
        assert index.entries_skipped == 2  # visited via b and c, skipped

    def test_skipping_generalization(self):
        """Entry's first role NOT in the probe: processed at the first
        *common* role, not skipped incorrectly."""
        universe = RoleUniverse(["a", "b"])
        index = SPIndex(universe)
        segment = make_segment({"a", "b"})
        index.insert(segment, frozenset({"a", "b"}))
        # Probe only has "b": the entry's first role "a" is not in the
        # probe, so the entry must be processed at "b".
        assert list(index.probe(frozenset({"b"}))) == [segment]

    def test_no_skipping_mode_yields_duplicates(self):
        universe = RoleUniverse(["a", "b"])
        index = SPIndex(universe, skipping=False)
        segment = make_segment({"a", "b"})
        index.insert(segment, frozenset({"a", "b"}))
        results = list(index.probe(frozenset({"a", "b"})))
        assert results == [segment, segment]
