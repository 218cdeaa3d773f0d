"""Tests for the SAJoin operators (nested-loop PF/FP and index)."""

import pytest

from repro.core.bitmap import RoleUniverse
from repro.core.patterns import numeric_range
from repro.core.punctuation import SecurityPunctuation
from repro.errors import PlanError
from repro.operators.index_join import IndexSAJoin
from repro.operators.join import NestedLoopSAJoin
from repro.stream.tuples import DataTuple
from repro.workloads.synthetic import join_streams

from tests.operators.test_shield import ONE_SP_BATCHES


def grant(roles, ts, **scope):
    return SecurityPunctuation.grant(roles, ts, **scope)


def left(tid, key, ts):
    return DataTuple("left", tid, {"key": key, "payload": tid}, ts)


def right(tid, key, ts):
    return DataTuple("right", tid, {"key": key, "payload": tid}, ts)


def drive(join, feed):
    """feed = [(port, element), ...]; returns output elements."""
    out = []
    for port, element in feed:
        out.extend(join.process(element, port))
    return out


def result_tids(elements):
    return [e.tid for e in elements if isinstance(e, DataTuple)]


ALL_VARIANTS = [
    lambda **kw: NestedLoopSAJoin("key", "key", 100.0, method="PF", **kw),
    lambda **kw: NestedLoopSAJoin("key", "key", 100.0, method="FP", **kw),
    lambda **kw: IndexSAJoin("key", "key", 100.0, universe=RoleUniverse(),
                             **kw),
    lambda **kw: IndexSAJoin("key", "key", 100.0, universe=RoleUniverse(),
                             skipping=False, **kw),
]


@pytest.mark.parametrize("make_join", ALL_VARIANTS)
class TestJoinSemantics:
    def test_matching_values_compatible_policies_join(self, make_join):
        join = make_join()
        out = drive(join, [
            (0, grant(["D"], 0.0)), (0, left(1, 7, 1.0)),
            (1, grant(["D", "C"], 0.0)), (1, right(2, 7, 2.0)),
        ])
        assert result_tids(out) == [(1, 2)]
        # Output sp carries the policy intersection.
        sp = next(e for e in out if isinstance(e, SecurityPunctuation))
        assert sp.roles() == frozenset({"D"})

    def test_incompatible_policies_suppress_result(self, make_join):
        """Table I: join results of policy-incompatible tuples go."""
        join = make_join()
        out = drive(join, [
            (0, grant(["D"], 0.0)), (0, left(1, 7, 1.0)),
            (1, grant(["C"], 0.0)), (1, right(2, 7, 2.0)),
        ])
        assert out == []

    def test_value_mismatch_suppresses_result(self, make_join):
        join = make_join()
        out = drive(join, [
            (0, grant(["D"], 0.0)), (0, left(1, 7, 1.0)),
            (1, grant(["D"], 0.0)), (1, right(2, 8, 2.0)),
        ])
        assert out == []

    def test_denied_by_default_tuples_never_join(self, make_join):
        join = make_join()
        out = drive(join, [
            (0, left(1, 7, 1.0)),  # no sp: nobody may access
            (1, grant(["D"], 0.0)), (1, right(2, 7, 2.0)),
        ])
        assert out == []

    def test_window_invalidation(self, make_join):
        join = make_join()
        out = drive(join, [
            (0, grant(["D"], 0.0)), (0, left(1, 7, 1.0)),
            # Right tuple arrives far beyond the window: left expired.
            (1, grant(["D"], 150.0)), (1, right(2, 7, 200.0)),
        ])
        assert out == []
        assert join.windows[0].tuples_expired == 1

    def test_both_directions_probe(self, make_join):
        join = make_join()
        out = drive(join, [
            (1, grant(["D"], 0.0)), (1, right(2, 7, 1.0)),
            (0, grant(["D"], 0.0)), (0, left(1, 7, 2.0)),
        ])
        assert result_tids(out) == [(1, 2)]

    def test_multiple_matches(self, make_join):
        join = make_join()
        out = drive(join, [
            (0, grant(["D"], 0.0)),
            (0, left(1, 7, 1.0)), (0, left(2, 7, 2.0)),
            (1, grant(["D"], 0.0)), (1, right(3, 7, 3.0)),
        ])
        assert sorted(result_tids(out)) == [(1, 3), (2, 3)]

    def test_shared_sp_across_segment_tuples(self, make_join):
        join = make_join()
        out = drive(join, [
            (0, grant(["D"], 0.0)),
            (0, left(1, 7, 1.0)), (0, left(2, 8, 2.0)),
            (1, grant(["D"], 0.0)),
            (1, right(3, 7, 3.0)), (1, right(4, 8, 4.0)),
        ])
        assert sorted(result_tids(out)) == [(1, 3), (2, 4)]
        # Results share one policy, so only one sp precedes them.
        sps = [e for e in out if isinstance(e, SecurityPunctuation)]
        assert len(sps) == 1

    def test_policy_switch_between_segments(self, make_join):
        join = make_join()
        out = drive(join, [
            (0, grant(["D"], 0.0)), (0, left(1, 7, 1.0)),
            (0, grant(["C"], 2.0)), (0, left(2, 7, 3.0)),
            (1, grant(["C"], 0.0)), (1, right(3, 7, 4.0)),
        ])
        # Only the C-segment left tuple is compatible with right's C.
        assert result_tids(out) == [(2, 3)]

    def test_extra_predicate(self, make_join):
        join = make_join()
        join.predicate = lambda a, b: a.values["payload"] < b.values["payload"]
        out = drive(join, [
            (0, grant(["D"], 0.0)),
            (0, left(5, 7, 1.0)), (0, left(9, 7, 2.0)),
            (1, grant(["D"], 0.0)), (1, right(7, 7, 3.0)),
        ])
        assert result_tids(out) == [(5, 7)]


@pytest.mark.parametrize("make_join", ALL_VARIANTS)
class TestJoinValueSemantics:
    """What "equal join values" means, variant by variant the same.

    The index variant finds candidates through a hash of the join
    value; these pin the answers of the plain ``!=`` comparison so the
    hash can only ever be a candidate filter.
    """

    def test_missing_attribute_joins_missing_attribute(self, make_join):
        join = make_join()
        out = drive(join, [
            (0, grant(["D"], 0.0)),
            (0, DataTuple("left", 1, {"payload": 1}, 1.0)),
            (0, left(2, 7, 2.0)),
            (1, grant(["D"], 0.0)),
            (1, DataTuple("right", 3, {"payload": 3}, 3.0)),
        ])
        assert result_tids(out) == [(1, 3)]  # None == None

    def test_numeric_equality_crosses_types(self, make_join):
        join = make_join()
        out = drive(join, [
            (0, grant(["D"], 0.0)),
            (0, left(1, 1, 1.0)), (0, left(2, 1.0, 2.0)),
            (0, left(3, True, 3.0)), (0, left(4, 2, 4.0)),
            (1, grant(["D"], 0.0)),
            (1, right(5, 1, 5.0)), (1, right(6, True, 6.0)),
        ])
        assert result_tids(out) == [(1, 5), (2, 5), (3, 5),
                                    (1, 6), (2, 6), (3, 6)]

    def test_nan_joins_nothing(self, make_join):
        join = make_join()
        nan = float("nan")
        both = DataTuple("s", 1, {"key": nan}, 1.0)
        out = drive(join, [
            (0, grant(["D"], 0.0)), (1, grant(["D"], 0.0)),
            (0, both), (1, both),  # the same object, the same NaN
            (0, left(2, nan, 2.0)), (1, right(3, float("nan"), 3.0)),
        ])
        assert out == []
        assert join.windows[0].tuple_count() == 2

    def test_unhashable_keys_join_by_equality(self, make_join):
        join = make_join()
        out = drive(join, [
            (0, grant(["D"], 0.0)),
            (0, left(1, [1, 2], 1.0)), (0, left(2, [1, 3], 2.0)),
            (1, grant(["D"], 0.0)),
            (1, right(3, [1, 2], 3.0)), (1, right(4, {"a": 1}, 4.0)),
            (0, left(5, {"a": 1}, 5.0)),
        ])
        assert result_tids(out) == [(1, 3), (5, 4)]

    def test_mixed_segment_emits_in_insertion_order(self, make_join):
        """A segment holding hashable and unhashable keys: one probe's
        results come out oldest first, whichever kind the probe is."""
        join = make_join()
        out = drive(join, [
            (0, grant(["D"], 0.0)),
            (0, left(1, 7, 1.0)), (0, left(2, [7], 2.0)),
            (0, left(3, 7, 3.0)), (0, left(4, [7], 4.0)),
            (0, left(5, 7, 5.0)),
            (1, grant(["D"], 0.0)),
            (1, right(6, 7, 6.0)), (1, right(7, [7], 7.0)),
            (1, right(8, 8, 8.0)),
        ])
        assert result_tids(out) == [(1, 6), (3, 6), (5, 6), (2, 7), (4, 7)]

    def test_unhashable_segment_expires_and_later_ones_still_join(
            self, make_join):
        join = make_join()
        out = drive(join, [
            (0, grant(["D"], 0.0)),
            (0, left(1, [7], 1.0)), (0, left(2, 7, 2.0)),
            (0, grant(["D"], 50.0)), (0, left(3, 7, 60.0)),
            (1, grant(["D"], 0.0)),
            (1, right(4, 7, 70.0)), (1, right(5, 9, 80.0)),
            # 120 expires the first left segment (ts 1, 2) entirely.
            (1, right(6, 7, 120.0)), (1, right(7, [7], 130.0)),
        ])
        assert result_tids(out) == [(2, 4), (3, 4), (3, 6)]

    def test_predicate_keyword_filters_candidates(self, make_join):
        join = make_join(
            predicate=lambda a, b: a.values["payload"] < b.values["payload"])
        out = drive(join, [
            (0, grant(["D"], 0.0)),
            (0, left(5, 7, 1.0)), (0, left(9, 7, 2.0)), (0, left(1, 8, 3.0)),
            (1, grant(["D"], 0.0)), (1, right(7, 7, 4.0)),
        ])
        assert result_tids(out) == [(5, 7)]

    def test_tuple_scoped_segment_checks_each_candidate(self, make_join):
        """Non-uniform segment: equal keys, but only tids 1-2 are D's."""
        join = make_join()
        out = drive(join, [
            (0, grant(["D"], 0.0, tuple_id=numeric_range(1, 2))),
            (0, grant(["C"], 0.0, tuple_id=numeric_range(3, 4))),
            (0, left(1, 7, 1.0)), (0, left(3, 7, 2.0)),
            (0, left(2, 7, 3.0)), (0, left(4, 7, 4.0)),
            (1, grant(["D"], 0.0)), (1, right(9, 7, 5.0)),
        ])
        assert result_tids(out) == [(1, 9), (2, 9)]
        assert not next(join.windows[0].iter_segments()).uniform


class TestNestedLoopSpecifics:
    def test_invalid_method_rejected(self):
        with pytest.raises(PlanError):
            NestedLoopSAJoin("k", "k", 10.0, method="XX")

    def test_pf_and_fp_same_results(self):
        feed = [
            (0, grant(["A"], 0.0)), (0, left(1, 7, 1.0)),
            (0, grant(["B"], 2.0)), (0, left(2, 7, 3.0)),
            (1, grant(["A"], 0.0)), (1, right(3, 7, 4.0)),
            (1, grant(["B", "A"], 5.0)), (1, right(4, 7, 6.0)),
        ]
        pf = NestedLoopSAJoin("key", "key", 100.0, method="PF")
        fp = NestedLoopSAJoin("key", "key", 100.0, method="FP")
        assert sorted(result_tids(drive(pf, list(feed)))) == \
            sorted(result_tids(drive(fp, list(feed))))

    def test_cost_breakdown_keys(self):
        join = NestedLoopSAJoin("key", "key", 100.0)
        drive(join, [(0, grant(["D"], 0.0)), (0, left(1, 7, 1.0))])
        breakdown = join.cost_breakdown()
        assert set(breakdown) == {"join", "sp_maintenance",
                                  "tuple_maintenance", "total"}
        assert breakdown["total"] >= breakdown["join"]


class TestIndexSpecifics:
    def test_index_maintained_on_expiry(self):
        join = IndexSAJoin("key", "key", 10.0, universe=RoleUniverse())
        drive(join, [
            (0, grant(["D"], 0.0)), (0, left(1, 7, 1.0)),
            (0, grant(["D"], 5.0)), (0, left(2, 7, 6.0)),
            (1, grant(["D"], 90.0)), (1, right(3, 7, 100.0)),
        ])
        # Both old left segments expired; their entries removed.
        assert join.indexes[0].deletions >= 1

    def test_index_matches_nested_loop(self):
        feed = [
            (0, grant(["A", "B"], 0.0)), (0, left(1, 7, 1.0)),
            (1, grant(["B", "C"], 0.0)), (1, right(2, 7, 2.0)),
            (1, grant(["C"], 3.0)), (1, right(3, 7, 4.0)),
            (0, grant(["C"], 5.0)), (0, left(4, 7, 6.0)),
        ]
        nl = NestedLoopSAJoin("key", "key", 100.0)
        ix = IndexSAJoin("key", "key", 100.0, universe=RoleUniverse())
        assert sorted(result_tids(drive(nl, list(feed)))) == \
            sorted(result_tids(drive(ix, list(feed))))

    def test_probe_compares_only_equal_key_candidates(self):
        """A reintroduced value scan fails here, not just a benchmark:
        on a pure equijoin over uniform segments every value comparison
        the keyed index performs is a result."""
        lefts, rights, _, _ = join_streams(400, compatibility=0.5, seed=61)
        join = IndexSAJoin("key", "key", 200.0, universe=RoleUniverse())
        out = drive(join, sorted(
            [(0, e) for e in lefts] + [(1, e) for e in rights],
            key=lambda pair: pair[1].ts))
        assert len(result_tids(out)) == join.results > 50
        assert join.stats.comparisons == join.pairs_checked == join.results

    def test_skipping_rule_no_duplicates(self):
        """Policies sharing several roles yield each pair exactly once."""
        join = IndexSAJoin("key", "key", 100.0, universe=RoleUniverse())
        out = drive(join, [
            (0, grant(["A", "B", "C"], 0.0)), (0, left(1, 7, 1.0)),
            (1, grant(["A", "B", "C"], 0.0)), (1, right(2, 7, 2.0)),
        ])
        assert result_tids(out) == [(1, 2)]  # exactly one result

    def test_skipping_disabled_still_correct(self):
        join = IndexSAJoin("key", "key", 100.0, universe=RoleUniverse(),
                           skipping=False)
        out = drive(join, [
            (0, grant(["A", "B"], 0.0)), (0, left(1, 7, 1.0)),
            (1, grant(["A", "B"], 0.0)), (1, right(2, 7, 2.0)),
        ])
        assert result_tids(out) == [(1, 2)]


# -- one sp-batch interpreter: a window stores the tracker's answers --------

WINDOWED = {
    "nl-pf": lambda: NestedLoopSAJoin("v", "v", 100.0, method="PF"),
    "nl-fp": lambda: NestedLoopSAJoin("v", "v", 100.0, method="FP"),
    "index": lambda: IndexSAJoin("v", "v", 100.0),
}


class TestWindowsStoreTheTrackersAnswer:
    @pytest.mark.parametrize("operator", WINDOWED)
    @pytest.mark.parametrize("name", ONE_SP_BATCHES)
    def test_policy_stored_for_a_port_0_tuple(self, name, operator):
        elements, expected = ONE_SP_BATCHES[name]
        op = WINDOWED[operator]()
        for element in elements:
            op.process(element, 0)
        stored = {item.tid: policy
                  for item, policy in op.windows[0].iter_entries()}
        assert stored.keys() == expected.keys()
        for tid, (roles, ts) in expected.items():
            assert stored[tid].roles == roles
            assert stored[tid].ts == ts

    def test_a_discarded_stale_batch_leaves_no_state(self):
        newer, first, stale, second = \
            ONE_SP_BATCHES["older sp after a newer one"][0]
        join = IndexSAJoin("v", "v", 100.0)
        drive(join, [(0, newer), (0, first)])
        before = join.state_size()
        drive(join, [(0, stale), (0, second)])
        assert join.state_size() == before + 1  # the tuple, not the sp
        assert join.indexes[0].entry_count() == 1
        assert join.windows[0].segment_count() == 1
