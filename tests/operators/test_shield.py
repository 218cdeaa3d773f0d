"""Tests for the Security Shield operator (Table I: ψ)."""

import pytest

from repro.core.analyzer import SPAnalyzer
from repro.core.bitmap import RoleUniverse
from repro.core.patterns import literal, numeric_range
from repro.core.punctuation import SecurityPunctuation
from repro.errors import PunctuationError
from repro.operators.base import PolicyTracker
from repro.operators.shield import SecurityShield
from repro.stream.tuples import DataTuple


def grant(roles, ts, **kwargs):
    return SecurityPunctuation.grant(roles, ts, **kwargs)


def tup(tid, ts, sid="s1"):
    return DataTuple(sid, tid, {"v": tid}, ts)


def drive(shield, elements):
    out = []
    for element in elements:
        out.extend(shield.process(element))
    return out


def out_tids(elements):
    return [e.tid for e in elements if isinstance(e, DataTuple)]


class TestBasicFiltering:
    def test_passing_policy(self):
        shield = SecurityShield(["D"])
        out = drive(shield, [grant(["D", "ND"], 0.0), tup(1, 1.0)])
        assert out_tids(out) == [1]
        # The sp is propagated ahead of the tuple.
        assert isinstance(out[0], SecurityPunctuation)

    def test_blocking_policy(self):
        shield = SecurityShield(["C"])
        out = drive(shield, [grant(["D"], 0.0), tup(1, 1.0)])
        assert out == []
        assert shield.tuples_blocked == 1
        assert shield.sps_blocked == 1

    def test_denial_by_default(self):
        """Tuples before any sp are discarded (no sp ⇒ no access)."""
        shield = SecurityShield(["D"])
        out = drive(shield, [tup(1, 1.0)])
        assert out == []

    def test_decision_shared_across_segment(self):
        shield = SecurityShield(["D"])
        out = drive(shield, [grant(["D"], 0.0),
                             tup(1, 1.0), tup(2, 2.0), tup(3, 3.0)])
        assert out_tids(out) == [1, 2, 3]
        # Only one sp emitted for the whole segment.
        assert sum(isinstance(e, SecurityPunctuation) for e in out) == 1

    def test_policy_switch_mid_stream(self):
        shield = SecurityShield(["D"])
        out = drive(shield, [
            grant(["D"], 0.0), tup(1, 1.0),
            grant(["C"], 2.0), tup(2, 3.0),
            grant(["D", "C"], 4.0), tup(3, 5.0),
        ])
        assert out_tids(out) == [1, 3]

    def test_sp_batch_union_semantics(self):
        """Consecutive same-ts sps are one policy (union of roles)."""
        shield = SecurityShield(["ND"])
        out = drive(shield, [grant(["D"], 0.0), grant(["ND"], 0.0),
                             tup(1, 1.0)])
        assert out_tids(out) == [1]

    def test_newer_batch_overrides(self):
        """A different-ts sp replaces the previous policy entirely."""
        shield = SecurityShield(["D"])
        out = drive(shield, [grant(["D"], 0.0), grant(["C"], 1.0),
                             tup(1, 2.0)])
        assert out == []

    def test_denied_segment_is_discarded_with_its_sps(self):
        """Table I: the sp of a segment nothing passed from must not
        ride out with the next segment's first tuple."""
        denied, granted = grant(["D"], 1.0), grant(["X"], 3.0)
        feed = [denied, tup(1, 2.0), granted, tup(2, 4.0)]
        shield = SecurityShield(["X"])
        out = drive(shield, feed)
        assert out == [granted, feed[3]]
        assert out[0] is granted
        assert shield.tuples_blocked == 1


class TestTupleGranularity:
    def test_per_tuple_decisions(self):
        shield = SecurityShield(["GP"])
        sp = grant(["GP"], 0.0, tuple_id=numeric_range(120, 133))
        out = drive(shield, [sp, tup(125, 1.0), tup(200, 2.0),
                             tup(130, 3.0)])
        assert out_tids(out) == [125, 130]

    def test_sps_propagated_with_first_passing_tuple(self):
        shield = SecurityShield(["GP"])
        sp = grant(["GP"], 0.0, tuple_id=numeric_range(120, 133))
        out = drive(shield, [sp, tup(200, 1.0), tup(125, 2.0)])
        # First tuple blocked; sp emitted right before the passing one.
        assert isinstance(out[0], SecurityPunctuation)
        assert out_tids(out) == [125]

    def test_fully_blocked_segment_drops_sps(self):
        shield = SecurityShield(["GP"])
        sp = grant(["GP"], 0.0, tuple_id=numeric_range(120, 133))
        out = drive(shield, [sp, tup(200, 1.0), grant(["GP"], 2.0),
                             tup(300, 3.0)])
        assert out_tids(out) == [300]
        assert shield.sps_blocked == 1


class TestConjunctivePredicates:
    def test_all_conjuncts_must_intersect(self):
        shield = SecurityShield(
            ["A", "B"], conjuncts=[["A"], ["B"]])
        out = drive(shield, [grant(["A", "B"], 0.0), tup(1, 1.0)])
        assert out_tids(out) == [1]
        out = drive(shield, [grant(["A"], 2.0), tup(2, 3.0)])
        assert out_tids(out) == []

    def test_split_preserves_semantics(self):
        """Table II Rule 1: ψ_{A∧B}(T) ≡ ψ_A(ψ_B(T)), stacked by hand."""
        elements = [grant(["A", "B"], 0.0), tup(1, 1.0),
                    grant(["A"], 2.0), tup(2, 3.0),
                    grant(["B"], 4.0), tup(3, 5.0)]
        conjunction = SecurityShield(["A", "B"], conjuncts=[["A"], ["B"]])
        together = drive(conjunction, list(elements))
        stacked = drive(SecurityShield(["A"]),
                        drive(SecurityShield(["B"]), list(elements)))
        assert together == stacked
        assert out_tids(together) == [1]

    def test_merged_constructor(self):
        """A conjunction shield keeps each conjunct; its predicate is their union."""
        a = SecurityShield(["A"])
        b = SecurityShield(["B"])
        merged = SecurityShield(
            a.predicate | b.predicate, conjuncts=[a.predicate, b.predicate])
        assert merged.conjuncts == (a.predicate, b.predicate)
        assert merged.predicate == frozenset({"A", "B"})


class TestIndexedVsUnindexed:
    def test_same_decisions(self):
        elements = [grant(["r5", "r9"], 0.0), tup(1, 1.0),
                    grant(["r1"], 2.0), tup(2, 3.0)]
        indexed = SecurityShield([f"r{i}" for i in range(10)], indexed=True)
        naive = SecurityShield([f"r{i}" for i in range(10)], indexed=False)
        assert (out_tids(drive(indexed, list(elements)))
                == out_tids(drive(naive, list(elements))) == [1, 2])

    def test_naive_scans_whole_state(self):
        naive = SecurityShield([f"r{i}" for i in range(50)], indexed=False)
        drive(naive, [grant(["r5"], 0.0), tup(1, 1.0)])
        assert naive.stats.comparisons >= 50

    def test_state_size(self):
        shield = SecurityShield(["a", "b", "c"])
        assert shield.state_size() == 3


# -- one resolution per sp: a shared policy changes no answer ---------------

def parent_style(sp):
    """A field-by-field copy of ``sp`` that declines to share a policy,
    so a tracker fed with it resolves the way the trackers did before
    sps memoised their own segment policy."""
    copy = SecurityPunctuation(
        ddp=sp.ddp, srp=sp.srp, ts=sp.ts, sign=sp.sign,
        immutable=sp.immutable, provider=sp.provider,
        incremental=sp.incremental)
    object.__setattr__(copy, "_policy_cache", None)
    return copy


def wide(tid, ts, sid="s1"):
    return DataTuple(sid, tid, {"v": tid, "w": 0}, ts)


OPEN_ENDED = SecurityPunctuation.parse("<*, *, * | * | + | F | 1.0>")
UNIVERSE = RoleUniverse(["D", "N"])

#: name -> (elements fed in order, {probe tid: (roles, policy ts)}).
ONE_SP_BATCHES = {
    "plain grant": (
        [grant(["D", "N"], 1.0), tup(1, 1.5)], {1: ({"D", "N"}, 1.0)}),
    "negative": (
        [SecurityPunctuation.deny("D", 1.0), tup(1, 1.5)],
        {1: (set(), 1.0)}),
    "incremental add": (
        [grant("D", 1.0), tup(1, 1.5),
         SecurityPunctuation.add_roles("N", 2.0), tup(2, 2.5)],
        {1: ({"D"}, 1.0), 2: ({"D", "N"}, 2.0)}),
    "incremental retract": (
        [grant(["D", "N"], 1.0), tup(1, 1.5),
         SecurityPunctuation.retract_roles("N", 2.0), tup(2, 2.5)],
        {1: ({"D", "N"}, 1.0), 2: ({"D"}, 2.0)}),
    "stream-scoped": (
        [grant("D", 1.0, stream=literal("s1")), tup(1, 1.5),
         tup(2, 1.6, sid="s2")],
        {1: ({"D"}, 1.0), 2: (set(), 1.0)}),
    "tuple-scoped": (
        [grant("D", 1.0, tuple_id=numeric_range(0, 5)), tup(3, 1.5),
         tup(9, 1.6)],
        {3: ({"D"}, 1.0), 9: (set(), 1.0)}),
    "attribute-scoped": (
        [grant("D", 1.0, attribute=literal("v")), tup(1, 1.5),
         wide(2, 1.6)],
        {1: ({"D"}, 1.0), 2: (set(), 1.0)}),
    "open-ended, normalized": (
        [SPAnalyzer(UNIVERSE)._normalize(OPEN_ENDED), tup(1, 1.5)],
        {1: ({"D", "N"}, 1.0)}),
    "immutable": (
        [grant("D", 1.0, immutable=True), tup(1, 1.5)],
        {1: ({"D"}, 1.0)}),
    "older sp after a newer one": (
        [grant("D", 5.0), tup(1, 5.5), grant("N", 3.0), tup(2, 5.6)],
        {1: ({"D"}, 5.0), 2: ({"D"}, 5.0)}),
}


class TestOneResolutionPerSp:
    @pytest.mark.parametrize("name", ONE_SP_BATCHES)
    def test_tracker_answers_are_the_parents(self, name):
        elements, expected = ONE_SP_BATCHES[name]
        tracker, reference = PolicyTracker("s1"), PolicyTracker("s1")
        for element in elements:
            if isinstance(element, SecurityPunctuation):
                tracker.observe_sp(element)
                reference.observe_sp(parent_style(element))
                continue
            policy = tracker.policy_for(element)
            theirs = reference.policy_for(element)
            roles, ts = expected[element.tid]
            assert policy == theirs
            assert policy.ts == theirs.ts == ts
            assert policy.roles == theirs.roles == roles
            assert tracker.is_uniform == reference.is_uniform
            assert tracker.current_sps() == reference.current_sps()
            assert tracker.take_pending_sps() == reference.take_pending_sps()

    def test_open_ended_roles_still_need_a_universe(self):
        tracker = PolicyTracker("s1")
        tracker.observe_sp(OPEN_ENDED)
        with pytest.raises(PunctuationError):
            tracker.policy_for(tup(1, 1.5))

    def test_rebind_mid_segment_re_decides(self):
        shield = SecurityShield(["C"], "s1")
        out = drive(shield, [grant(["D"], 0.0), tup(1, 1.0), tup(2, 2.0)])
        assert out_tids(out) == []
        shield.rebind(["D"])
        assert out_tids(drive(shield, [tup(3, 3.0)])) == [3]
        shield.rebind(["C"])
        assert out_tids(drive(shield, [tup(4, 4.0)])) == []


class TestSharedSegmentPolicy:
    def test_only_a_lone_plain_grant_shares_its_policy(self):
        sp = grant(["D", "N"], 1.0)
        first, second = PolicyTracker("s1"), PolicyTracker("s2")
        first.observe_sp(sp)
        second.observe_sp(sp)
        assert (first.policy_for(tup(1, 1.5)) is sp.segment_policy()
                is second.policy_for(tup(2, 1.5, sid="s2")))
        for name in ("negative", "stream-scoped", "tuple-scoped",
                     "attribute-scoped"):
            assert ONE_SP_BATCHES[name][0][0].segment_policy() is None
        assert OPEN_ENDED.segment_policy() is None
        assert SecurityPunctuation.add_roles("N", 2.0).segment_policy() is None
        # Two sps are one policy: neither's own resolution may stand in.
        both = PolicyTracker("s1")
        both.observe_sp(sp)
        both.observe_sp(grant("C", 1.0))
        assert both.policy_for(tup(1, 1.5)).roles == {"C", "D", "N"}
