"""Tests for policy semantics: match/union/intersect/override + defaults.

The combinations run through the engine's interpreter: the SP Analyzer
(server intersection, combining same-DDP grants), then
:class:`~repro.operators.base.PolicyTracker` (batches, override).
"""

import pytest

from repro.core.analyzer import SPAnalyzer
from repro.core.patterns import literal, numeric_range, one_of
from repro.core.policy import EMPTY_POLICY, Policy, TuplePolicy
from repro.core.punctuation import SecurityPunctuation
from repro.errors import PolicyError, PunctuationError
from repro.operators.base import PolicyTracker, SPEmitter
from repro.stream.tuples import DataTuple


def grant(roles, ts=1.0, **kwargs):
    return SecurityPunctuation.grant(roles, ts, **kwargs)


def deny(roles, ts=1.0, **kwargs):
    return SecurityPunctuation.deny(roles, ts, **kwargs)


def tup(tid=0, sid="s1"):
    return DataTuple(sid, tid, {"v": tid}, 10.0)


def resolve(*batches, server=(), item=None):
    """Roles the engine gives ``item`` after each batch in turn (one
    tuple after each), with ``server`` sps registered at the analyzer."""
    analyzer = SPAnalyzer()
    for server_sp in server:
        analyzer.add_server_policy(server_sp)
    tracker = PolicyTracker("s1")
    roles = None
    for batch in batches:
        for one in analyzer.process_batch(batch):
            tracker.observe_sp(one)
        roles = tracker.policy_for(item or tup()).roles
    return roles


class TestLeafPolicy:
    def test_authorized_roles_from_positive_sp(self):
        policy = Policy([grant(["C", "D"])])
        assert policy.authorized_roles("s1") == frozenset({"C", "D"})

    def test_denial_by_default(self):
        policy = Policy([grant(["C"], stream=literal("s1"))])
        assert policy.authorized_roles("s2") == frozenset()
        assert resolve([grant(["C"], stream=literal("s1"))],
                       item=tup(sid="s2")) == frozenset()

    def test_negative_sp_subtracts(self):
        policy = Policy([grant(["C", "D", "ND"]), deny(["ND"])])
        assert policy.authorized_roles("s1") == frozenset({"C", "D"})

    def test_negative_only_policy_authorizes_nobody(self):
        policy = Policy([deny(["C"])])
        assert policy.authorized_roles("s1") == frozenset()

    def test_object_scoping(self):
        policy = Policy([
            grant(["GP"], tuple_id=numeric_range(120, 133)),
            grant(["E"], tuple_id=literal(500)),
        ])
        assert policy.authorized_roles("s1", 125) == frozenset({"GP"})
        assert policy.authorized_roles("s1", 500) == frozenset({"E"})
        assert policy.authorized_roles("s1", 600) == frozenset()

    def test_matching_sps(self):
        """``match()`` is ``SecurityPunctuation.describes``."""
        sp1 = grant(["GP"], tuple_id=numeric_range(120, 133))
        sp2 = grant(["E"], tuple_id=literal(500))
        policy = Policy([sp1, sp2])
        assert [sp for sp in policy.sps if sp.describes("s1", 125)] == [sp1]

    def test_mixed_timestamps_rejected(self):
        with pytest.raises(PolicyError):
            Policy([grant(["A"], ts=1.0), grant(["B"], ts=2.0)])

    def test_empty_rejected(self):
        with pytest.raises(PolicyError):
            Policy([])

    def test_immutable_flag_propagates(self):
        analyzer = SPAnalyzer()
        analyzer.add_server_policy(grant(["B"], ts=0.0))
        (kept,) = analyzer.process_batch([grant(["A"], immutable=True,
                                                provider="p")])
        assert kept.immutable and kept.roles() == frozenset({"A"})
        (refined,) = analyzer.process_batch([grant(["A", "B"], ts=2.0,
                                                   provider="p")])
        assert not refined.immutable
        assert refined.roles() == frozenset({"B"})


class TestCombinators:
    def test_union_increases_access(self):
        """The analyzer combines same-DDP grants of a batch into one."""
        (combined,) = SPAnalyzer().process_batch([grant(["C"]),
                                                  grant(["D"])])
        assert combined.roles() == frozenset({"C", "D"})

    def test_same_ts_union_merges_to_leaf(self):
        tracker = PolicyTracker("s1")
        a, b = grant(["C"], ts=1.0), grant(["D"], ts=1.0)
        tracker.observe_sp(a)
        tracker.observe_sp(b)
        assert tracker.policy_for(tup()).roles == frozenset({"C", "D"})
        assert tracker.current_sps() == (a, b)

    def test_intersection_decreases_access(self):
        provider = grant(["C", "D", "ND"], provider="p")
        server = grant(["C", "D"], ts=0.0)
        assert resolve([provider], server=[server]) == frozenset({"C", "D"})

    def test_intersection_respects_object_scope(self):
        provider = grant(["C", "D"], tuple_id=one_of([5, 6]), provider="p")
        server = grant(["C"], tuple_id=literal(5), ts=0.0)
        assert resolve([provider], server=[server],
                       item=tup(5)) == frozenset({"C"})
        # The server sp does not describe tid 6: the provider's grant
        # stands there.
        assert resolve([provider], server=[server],
                       item=tup(6)) == frozenset({"C", "D"})

    def test_composite_ts_is_max(self):
        a = TuplePolicy(frozenset({"C"}), ts=1.0)
        b = TuplePolicy(frozenset({"D"}), ts=5.0)
        assert a.union(b).ts == b.union(a).ts == 5.0


class TestOverride:
    def test_newer_wins(self):
        assert resolve([grant(["C"], ts=1.0)],
                       [grant(["D"], ts=2.0)]) == frozenset({"D"})
        # The older batch arriving second is stale: discarded whole.
        assert resolve([grant(["D"], ts=2.0)],
                       [grant(["C"], ts=1.0)]) == frozenset({"D"})

    def test_tie_goes_to_new(self):
        assert resolve([grant(["C"], ts=1.0)],
                       [grant(["D"], ts=1.0)]) == frozenset({"D"})

    def test_none_old(self):
        tracker = PolicyTracker("s1")
        assert tracker.policy_for(tup()) is EMPTY_POLICY
        assert resolve([grant(["D"], ts=2.0)]) == frozenset({"D"})


class TestTuplePolicy:
    def test_permits_any(self):
        policy = TuplePolicy(frozenset({"C", "D"}))
        assert policy.permits_any({"D", "E"})
        assert not policy.permits_any({"E"})

    def test_intersect_keeps_max_ts(self):
        a = TuplePolicy(frozenset({"C", "D"}), ts=1.0)
        b = TuplePolicy(frozenset({"D"}), ts=3.0)
        joined = a.intersect(b)
        assert joined.roles == frozenset({"D"})
        assert joined.ts == 3.0

    def test_difference_case3(self):
        new = TuplePolicy(frozenset({"A", "B", "C"}))
        common = TuplePolicy(frozenset({"B"}))
        assert new.difference(common).roles == frozenset({"A", "C"})

    def test_empty_policy_constant(self):
        assert EMPTY_POLICY.is_empty()
        assert not EMPTY_POLICY.permits_any({"anything"})

    def test_to_sp_round_trip(self):
        """An operator writes a resolved policy out as one grant sp."""
        out = []
        SPEmitter().emit(TuplePolicy(frozenset({"C", "D"}), ts=7.0), 7.0, out)
        (sp,) = out
        assert sp.roles() == frozenset({"C", "D"})
        assert sp.is_positive and sp.ts == 7.0

    def test_to_sp_empty_rejected(self):
        with pytest.raises(PunctuationError):
            SPEmitter().emit(TuplePolicy(frozenset()), 1.0, [])

    def test_resolve_for_tuple(self):
        policy = Policy([grant(["C"], stream=literal("s1"))])
        resolved = policy.resolve_for_tuple("s1")
        assert resolved.roles == frozenset({"C"})
        assert policy.resolve_for_tuple("s2").is_empty()


class TestPolicyFromSps:
    """The policy the engine builds from a sequence of sps: one
    analyzer pass per batch, then the tracker."""

    def test_same_provider_same_ts_unions(self):
        assert resolve([grant(["C"], provider="p"),
                        grant(["D"], provider="p")]) == frozenset({"C", "D"})

    def test_same_provider_newer_overrides(self):
        assert resolve([grant(["C"], ts=1.0, provider="p")],
                       [grant(["D"], ts=2.0, provider="p")]) \
            == frozenset({"D"})

    def test_server_intersects(self):
        assert resolve([grant(["C", "D"], provider="p")],
                       server=[grant(["C"], ts=0.0)]) == frozenset({"C"})

    def test_immutable_ignores_server(self):
        assert resolve([grant(["C", "D"], provider="p", immutable=True)],
                       server=[grant(["C"], ts=0.0)]) \
            == frozenset({"C", "D"})

    def test_distinct_providers_same_ts_union(self):
        assert resolve([grant(["C", "D"], provider="p1"),
                        grant(["D", "E"], provider="p2")]) \
            == frozenset({"C", "D", "E"})

    def test_empty_rejected(self):
        """No sps, no policy: the analyzer emits nothing and every tuple
        falls under denial-by-default."""
        assert SPAnalyzer().process_batch([]) == []
        assert PolicyTracker("s1").policy_for(tup()) is EMPTY_POLICY
        with pytest.raises(PolicyError):
            Policy([])
