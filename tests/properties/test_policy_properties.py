"""Property-based tests for policy algebra invariants."""

from hypothesis import given
from hypothesis import strategies as st

from repro.core.analyzer import SPAnalyzer
from repro.core.bitmap import RoleBitmap, RoleUniverse
from repro.core.policy import Policy, TuplePolicy
from repro.core.punctuation import SecurityPunctuation
from repro.operators.base import PolicyTracker
from repro.stream.tuples import DataTuple

ROLES = ("a", "b", "c", "d", "e")

role_sets = st.sets(st.sampled_from(ROLES), min_size=0, max_size=4)
nonempty_role_sets = st.sets(st.sampled_from(ROLES), min_size=1, max_size=4)


def tp(roles):
    return TuplePolicy(frozenset(roles))


def tracker_roles(*batches):
    """The tracker's roles for a tuple arriving after each batch."""
    tracker = PolicyTracker("s")
    item = DataTuple("s", 0, {"v": 0}, 200.0)
    for batch in batches:
        for sp in batch:
            tracker.observe_sp(sp)
        roles = tracker.policy_for(item).roles
    return roles


class TestTuplePolicyLattice:
    @given(role_sets, role_sets)
    def test_intersect_commutes(self, a, b):
        assert tp(a).intersect(tp(b)) == tp(b).intersect(tp(a))

    @given(role_sets, role_sets)
    def test_union_commutes(self, a, b):
        assert tp(a).union(tp(b)) == tp(b).union(tp(a))

    @given(role_sets, role_sets, role_sets)
    def test_intersect_associates(self, a, b, c):
        left = tp(a).intersect(tp(b)).intersect(tp(c))
        right = tp(a).intersect(tp(b).intersect(tp(c)))
        assert left == right

    @given(role_sets)
    def test_intersect_idempotent(self, a):
        assert tp(a).intersect(tp(a)) == tp(a)

    @given(role_sets, role_sets)
    def test_intersection_never_widens(self, a, b):
        joined = tp(a).intersect(tp(b))
        assert joined.roles <= a
        assert joined.roles <= b

    @given(role_sets, role_sets)
    def test_difference_definition(self, a, b):
        """Case 3 of dup-elim: Pnew − (Pold ∩ Pnew)."""
        new, old = tp(a), tp(b)
        common = new.intersect(old)
        assert new.difference(common).roles == a - (a & b)

    @given(role_sets, role_sets)
    def test_permits_any_iff_nonempty_intersection(self, a, b):
        assert tp(a).permits_any(b) == bool(a & b)


class TestBitmapSetAgreement:
    @given(nonempty_role_sets, nonempty_role_sets)
    def test_all_ops_agree(self, a, b):
        universe = RoleUniverse(ROLES)
        set_a, set_b = frozenset(a), frozenset(b)
        bm_a = RoleBitmap(universe, a)
        bm_b = RoleBitmap(universe, b)
        assert frozenset(bm_a & bm_b) == set_a & set_b
        assert frozenset(bm_a | bm_b) == set_a | set_b
        assert frozenset(bm_a - bm_b) == set_a - set_b
        assert bm_a.isdisjoint(bm_b) == set_a.isdisjoint(set_b)
        assert bm_a.isdisjoint(set_b) == set_b.isdisjoint(bm_a) \
            == set_a.isdisjoint(set_b)
        assert len(bm_a) == len(set_a)


class TestPolicySemantics:
    @given(nonempty_role_sets, nonempty_role_sets)
    def test_union_monotone(self, a, b):
        """Same-timestamp grants are one batch: its roles cover each."""
        union = tracker_roles([SecurityPunctuation.grant(sorted(a), 1.0),
                               SecurityPunctuation.grant(sorted(b), 1.0)])
        assert union >= tracker_roles([
            SecurityPunctuation.grant(sorted(a), 1.0)])
        assert union == a | b

    @given(nonempty_role_sets, nonempty_role_sets)
    def test_intersect_antitone(self, a, b):
        """A server policy only narrows a provider grant."""
        analyzer = SPAnalyzer()
        analyzer.add_server_policy(SecurityPunctuation.grant(sorted(b), 0.0))
        combined = tracker_roles(analyzer.process_batch(
            [SecurityPunctuation.grant(sorted(a), 1.0, provider="p")]))
        assert combined <= a
        assert combined == a & b

    @given(nonempty_role_sets, nonempty_role_sets,
           st.floats(0, 100), st.floats(0, 100))
    def test_override_picks_newer(self, a, b, ts_a, ts_b):
        winner = tracker_roles([SecurityPunctuation.grant(sorted(a), ts_a)],
                               [SecurityPunctuation.grant(sorted(b), ts_b)])
        assert winner == (b if ts_b >= ts_a else a)

    @given(nonempty_role_sets, nonempty_role_sets)
    def test_negative_sps_subtract_exactly(self, granted, denied):
        sps = [SecurityPunctuation.grant(sorted(granted), 1.0),
               SecurityPunctuation.deny(sorted(denied), 1.0)]
        policy = Policy(sps)
        assert policy.authorized_roles("s") == granted - denied
