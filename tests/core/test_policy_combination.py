"""Exhaustive small-domain tests of the policy combination semantics.

Enumerates every sp-batch over a two-role universe and both signs and
runs it through the engine's one interpreter — the SP Analyzer, then
:class:`~repro.operators.base.PolicyTracker` — checking union within a
batch, override between batches, server intersection and
denial-by-default against a brute-force model and the oracle's
independent :func:`~repro.verify.oracle.resolve_batch`.  The domains
are tiny, so these tests cover the *whole* space rather than sampled
points — any regression in the combination laws is caught exactly.
"""

import itertools

import pytest

from repro.core.analyzer import SPAnalyzer
from repro.core.policy import EMPTY_POLICY, Policy, TuplePolicy
from repro.core.punctuation import SecurityPunctuation
from repro.errors import PolicyError
from repro.operators.base import PolicyTracker
from repro.stream.tuples import DataTuple
from repro.verify.oracle import NaiveTracker, resolve_batch

ROLES = ("R1", "R2")
SID = "s"
ITEM = DataTuple(SID, 0, {"v": 0}, 10.0)
SUBSETS = [frozenset(c) for size in range(len(ROLES) + 1)
           for c in itertools.combinations(ROLES, size)]


def sp(roles, ts, positive=True, provider="p", immutable=False):
    make = SecurityPunctuation.grant if positive else SecurityPunctuation.deny
    return make(list(roles), ts, provider=provider, immutable=immutable)


def all_batches(ts, max_size=2):
    """Every batch of ≤ max_size signed sps over the two-role universe."""
    parts = []
    for roles in (("R1",), ("R2",), ("R1", "R2")):
        for positive in (True, False):
            parts.append((roles, positive))
    batches = []
    for size in range(1, max_size + 1):
        for combo in itertools.product(parts, repeat=size):
            batches.append(tuple(sp(r, ts, positive=p) for r, p in combo))
    return batches


def brute_force_roles(batch):
    """Union the positives; if non-empty, subtract the negatives."""
    granted = set()
    for one in batch:
        if one.is_positive:
            granted |= one.roles()
    if granted:
        for one in batch:
            if not one.is_positive:
                granted -= {r for r in granted if one.srp.authorizes(r)}
    return frozenset(granted)


def feed(*batches):
    """The batches in order, each followed by ``ITEM``."""
    return [x for batch in batches for x in (*batch, ITEM)]


def engine_roles(elements, analyzer=None):
    """Roles the engine resolves for the last tuple of ``elements``."""
    tracker = PolicyTracker(SID)
    roles = None
    for element in (analyzer or SPAnalyzer()).analyze(elements):
        if isinstance(element, SecurityPunctuation):
            tracker.observe_sp(element)
        else:
            roles = tracker.policy_for(element).roles
    return roles


def oracle_roles(elements):
    """The oracle's answer for the last tuple of ``elements``."""
    naive = NaiveTracker()
    roles = None
    for element in elements:
        if isinstance(element, SecurityPunctuation):
            naive.observe(element)
        else:
            roles = resolve_batch(naive.governing(), element)
    return roles


class TestBatchResolution:
    def test_every_batch_matches_brute_force(self):
        for batch in all_batches(1.0):
            elements = feed(batch)
            expected = brute_force_roles(batch)
            assert engine_roles(elements) == expected, batch
            assert oracle_roles(elements) == expected, batch

    def test_empty_batch_is_rejected(self):
        with pytest.raises(PolicyError):
            Policy(())

    def test_denial_by_default_without_positive(self):
        for roles in (("R1",), ("R2",), ("R1", "R2")):
            elements = feed((sp(roles, 1.0, positive=False),))
            assert engine_roles(elements) == frozenset()
            assert oracle_roles(elements) == frozenset()

    def test_conflicting_signs_same_roles_deny(self):
        elements = feed((sp(("R1",), 1.0), sp(("R1",), 1.0, positive=False)))
        assert engine_roles(elements) == frozenset()
        assert oracle_roles(elements) == frozenset()


class TestTuplePolicyAlgebra:
    def test_intersect_union_difference_exhaustive(self):
        for a_roles in SUBSETS:
            for b_roles in SUBSETS:
                a = TuplePolicy(a_roles, ts=1.0)
                b = TuplePolicy(b_roles, ts=2.0)
                assert a.intersect(b).roles == a_roles & b_roles
                assert a.union(b).roles == a_roles | b_roles
                assert a.difference(b).roles == a_roles - b_roles

    def test_permits_any_exhaustive(self):
        for roles in SUBSETS:
            policy = TuplePolicy(roles, ts=1.0)
            for asked in SUBSETS:
                assert policy.permits_any(asked) == bool(roles & asked)

    def test_empty_policy_permits_nothing(self):
        for asked in SUBSETS:
            assert not EMPTY_POLICY.permits_any(asked)


class TestOverride:
    def test_newer_always_wins_exhaustive(self):
        for old_ts, new_ts in itertools.product((1.0, 2.0, 3.0), repeat=2):
            elements = feed((sp(("R1",), old_ts),), (sp(("R2",), new_ts),))
            roles = engine_roles(elements)
            assert roles == oracle_roles(elements)
            if new_ts >= old_ts:  # equal ts: the later batch replaces
                assert roles == {"R2"}
            else:  # a stale batch is discarded whole
                assert roles == {"R1"}


class TestServerRefinement:
    """intersect(): a server sp refines a provider batch in the SP
    Analyzer, and the tracker resolves what it emits."""

    @staticmethod
    def refined(provider_roles, server_roles, immutable):
        analyzer = SPAnalyzer()
        analyzer.add_server_policy(SecurityPunctuation.grant(
            sorted(server_roles), 0.0))
        provider_sp = sp(provider_roles, 1.0, immutable=immutable)
        return engine_roles(feed((provider_sp,)), analyzer)

    def test_server_intersection_exhaustive(self):
        for provider_roles in SUBSETS[1:]:
            for server_roles in SUBSETS[1:]:
                assert self.refined(provider_roles, server_roles, False) \
                    == provider_roles & server_roles

    def test_immutable_exemption_exhaustive(self):
        for provider_roles in SUBSETS[1:]:
            for server_roles in SUBSETS[1:]:
                assert self.refined(provider_roles, server_roles, True) \
                    == provider_roles


class TestPolicyFromSps:
    """A sequence of sps as the engine reads it: consecutive sps sharing
    a timestamp are one batch whichever provider sent them (union), and
    a newer timestamp overrides."""

    def test_same_provider_same_ts_unions(self):
        elements = feed((sp(("R1",), 1.0), sp(("R2",), 1.0)))
        assert engine_roles(elements) == oracle_roles(elements) \
            == {"R1", "R2"}

    def test_same_provider_newer_overrides(self):
        elements = feed((sp(("R1",), 1.0), sp(("R2",), 2.0)))
        assert engine_roles(elements) == oracle_roles(elements) == {"R2"}

    def test_distinct_providers_same_ts_union(self):
        elements = feed((sp(("R1", "R2"), 1.0, provider="alice"),
                         sp(("R2",), 1.0, provider="bob")))
        assert engine_roles(elements) == oracle_roles(elements) \
            == {"R1", "R2"}

    def test_two_providers_same_ts_grant_both_roles(self):
        """p1 grants R1 and p2 grants R2 at one timestamp: one batch, so
        both roles — a per-provider intersection would grant nobody."""
        elements = feed((sp(("R1",), 1.0, provider="p1"),
                         sp(("R2",), 1.0, provider="p2")))
        assert engine_roles(elements) == oracle_roles(elements) \
            == {"R1", "R2"}
