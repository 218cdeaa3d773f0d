"""Direct checks of the reference oracle's denotational semantics.

The oracle is the harness's ground truth, so it gets its own tests:
each asserts a fact that follows from the paper's semantics by hand,
independent of the engine.
"""

from repro.core.patterns import literal
from repro.core.punctuation import (DataDescription, SecurityPunctuation,
                                    SecurityRestriction)
from repro.stream.tuples import DataTuple
from repro.verify.oracle import (NaiveTracker, canonical_tid, resolve_batch,
                                 run_oracle, signature)

#: Wildcard-scoped server policies (provider ``None``).
SERVER_GRANT = SecurityPunctuation.grant(["R1", "R3"], 0.0)
SERVER_DENIAL = SecurityPunctuation.deny(["R2"], 0.0)


def grant(roles, ts, **kw):
    kw.setdefault("stream", literal("s"))
    return SecurityPunctuation.grant(roles, ts, provider="s", **kw)


def deny(roles, ts, **kw):
    kw.setdefault("stream", literal("s"))
    return SecurityPunctuation.deny(roles, ts, provider="s", **kw)


def t(tid, ts, **values):
    values = values or {"a": tid}
    return DataTuple("s", tid, values, ts)


def scan_query(roles):
    return {"q": {"roles": list(roles), "plan": {"op": "scan", "stream": "s"}}}


def delivered_tids(outcome, name="q"):
    return [sig[1] for sig in outcome.delivered[name]]


class TestTracker:
    def test_batch_accumulates_same_ts(self):
        tracker = NaiveTracker()
        tracker.observe(grant(["R1"], 1.0))
        tracker.observe(grant(["R2"], 1.0))
        assert len(tracker.governing()) == 2

    def test_new_ts_overrides(self):
        tracker = NaiveTracker()
        tracker.observe(grant(["R1"], 1.0))
        tracker.observe(grant(["R2"], 2.0))
        (sp,) = tracker.governing()
        assert sp.roles() == {"R2"}

    def test_stale_batch_discarded(self):
        tracker = NaiveTracker()
        tracker.observe(grant(["R1"], 5.0))
        assert tracker.governing()[0].ts == 5.0
        tracker.observe(grant(["R2"], 1.0))
        (sp,) = tracker.governing()
        assert sp.roles() == {"R1"}


class TestResolution:
    def test_denial_by_default(self):
        assert resolve_batch((), t(0, 1.0)) == frozenset()

    def test_union_within_batch(self):
        batch = (grant(["R1"], 0.0), grant(["R2"], 0.0))
        assert resolve_batch(batch, t(0, 1.0)) == {"R1", "R2"}

    def test_negative_subtracts(self):
        batch = (grant(["R1", "R2"], 0.0), deny(["R1"], 0.0))
        assert resolve_batch(batch, t(0, 1.0)) == {"R2"}

    def test_deny_without_grant_is_empty(self):
        batch = (deny(["R1"], 0.0),)
        assert resolve_batch(batch, t(0, 1.0)) == frozenset()

    def test_attribute_scope_intersects_over_attributes(self):
        batch = (grant(["R1", "R2"], 0.0, attribute=literal("a")),
                 grant(["R1"], 0.0, attribute=literal("b")))
        item = DataTuple("s", 0, {"a": 1, "b": 2}, 1.0)
        assert resolve_batch(batch, item) == {"R1"}

    def test_attribute_scope_missing_attr_denies(self):
        batch = (grant(["R1"], 0.0, attribute=literal("a")),)
        item = DataTuple("s", 0, {"a": 1, "b": 2}, 1.0)
        assert resolve_batch(batch, item) == frozenset()

    def test_tuple_scope(self):
        batch = (grant(["R1"], 0.0, tuple_id=literal(7)),)
        assert resolve_batch(batch, t(7, 1.0)) == {"R1"}
        assert resolve_batch(batch, t(8, 1.0)) == frozenset()

    def test_an_unresolved_open_pattern_grants_nobody(self):
        """As the engine's entry rules for a pattern that matches no
        known role: its segment is denied, nothing raises."""
        unmatched = SecurityPunctuation(
            ddp=DataDescription(stream=literal("s")),
            srp=SecurityRestriction.parse("/Z.*/"), ts=2.0, provider="s")
        outcome = run_oracle(
            {"s": [grant(["R1"], 0.0), t(0, 1.0), unmatched, t(1, 3.0)]},
            scan_query(["R1"]))
        assert delivered_tids(outcome) == [0]
        assert outcome.denied["q"] == 1


class TestCanonicalTid:
    def test_scalar_passthrough(self):
        assert canonical_tid(3) == 3

    def test_nested_pairs_flatten_sorted(self):
        assert canonical_tid(((1, 2), 3)) == canonical_tid((3, (2, 1)))


class TestScanSemantics:
    def test_tuple_before_any_sp_is_invisible(self):
        outcome = run_oracle(
            {"s": [t(0, 0.5), grant(["R1"], 1.0), t(1, 2.0)]},
            scan_query(["R1"]))
        assert delivered_tids(outcome) == [1]
        assert outcome.denied["q"] == 1

    def test_override_changes_visibility(self):
        outcome = run_oracle(
            {"s": [grant(["R1"], 0.0), t(0, 1.0),
                   grant(["R2"], 2.0), t(1, 3.0)]},
            scan_query(["R1"]))
        assert delivered_tids(outcome) == [0]
        assert outcome.denied["q"] == 1

    def test_delivery_keeps_full_role_set(self):
        outcome = run_oracle(
            {"s": [grant(["R1", "R2"], 0.0), t(0, 1.0)]},
            scan_query(["R1"]))
        (sig,) = outcome.delivered["q"]
        assert sig[4] == ("R1", "R2")


class TestShieldSemantics:
    def test_all_conjuncts_must_intersect(self):
        plan = {"op": "shield", "input": {"op": "scan", "stream": "s"},
                "predicates": [["R1"], ["R2"]]}
        outcome = run_oracle(
            {"s": [grant(["R1"], 0.0), t(0, 1.0),
                   grant(["R1", "R2"], 2.0), t(1, 3.0)]},
            {"q": {"roles": ["R1"], "plan": plan}})
        assert delivered_tids(outcome) == [1]


class TestDupElimSemantics:
    def plan(self):
        return {"op": "dupelim", "input": {"op": "scan", "stream": "s"},
                "window": 100.0, "attributes": ["a"]}

    def test_three_cases(self):
        # {R1} emit; {R1} suppress; {R2} disjoint -> emit; {R1,R2}
        # overlapping -> emit for the new role only (roles narrow to R1
        # after the {R2} replacement... here: {R2} replaced the entry).
        streams = {"s": [
            grant(["R1"], 0.0), t(0, 1.0, a=5),
            t(1, 2.0, a=5),
            grant(["R2"], 3.0), t(2, 4.0, a=5),
            grant(["R1", "R2"], 5.0), t(3, 6.0, a=5),
        ]}
        outcome = run_oracle(
            streams, {"q": {"roles": ["R1", "R2"],
                            "plan": self.plan()}})
        sigs = outcome.delivered["q"]
        assert [s[1] for s in sigs] == [0, 2, 3]
        # the last emission is for the roles that had not seen a=5 yet
        assert sigs[-1][4] == ("R1",)

    def test_invisible_tuples_do_not_suppress(self):
        streams = {"s": [
            t(0, 1.0, a=5),                      # denial-by-default
            grant(["R1"], 2.0), t(1, 3.0, a=5),  # must still be emitted
        ]}
        outcome = run_oracle(streams,
                             {"q": {"roles": ["R1"], "plan": self.plan()}})
        assert delivered_tids(outcome) == [1]


class TestJoinSemantics:
    def plan(self, window=100.0):
        return {"op": "join",
                "left": {"op": "scan", "stream": "s"},
                "right": {"op": "scan", "stream": "r"},
                "left_on": "k", "right_on": "k", "window": window}

    def streams(self, left_roles, right_roles):
        return {
            "s": [SecurityPunctuation.grant(left_roles, 0.0, provider="s"),
                  DataTuple("s", 0, {"k": 1}, 1.0)],
            "r": [SecurityPunctuation.grant(right_roles, 0.0, provider="r"),
                  DataTuple("r", 10, {"k": 1}, 2.0)],
        }

    def test_result_policy_is_intersection(self):
        outcome = run_oracle(
            self.streams(["R1", "R2"], ["R2", "R3"]),
            {"q": {"roles": ["R2"], "plan": self.plan()}})
        (sig,) = outcome.delivered["q"]
        assert sig[4] == ("R2",)

    def test_disjoint_policies_join_nothing(self):
        outcome = run_oracle(
            self.streams(["R1"], ["R2"]),
            {"q": {"roles": ["R1", "R2"], "plan": self.plan()}})
        assert outcome.delivered["q"] == []

    def test_window_expiry(self):
        streams = {
            "s": [SecurityPunctuation.grant(["R1"], 0.0, provider="s"),
                  DataTuple("s", 0, {"k": 1}, 1.0)],
            "r": [SecurityPunctuation.grant(["R1"], 0.0, provider="r"),
                  DataTuple("r", 10, {"k": 1}, 50.0)],
        }
        outcome = run_oracle(
            streams, {"q": {"roles": ["R1"], "plan": self.plan(window=10.0)}})
        assert outcome.delivered["q"] == []


class TestGroupBySemantics:
    def test_subgroups_partition_by_policy(self):
        plan = {"op": "groupby", "input": {"op": "scan", "stream": "s"},
                "key": None, "agg": "sum", "attribute": "a",
                "window": 100.0}
        streams = {"s": [
            grant(["R1"], 0.0), t(0, 1.0, a=10),
            grant(["R2"], 2.0), t(1, 3.0, a=5),
        ]}
        outcome = run_oracle(streams,
                             {"q": {"roles": ["R1", "R2"], "plan": plan}})
        sums = [dict(sig[3])["sum(a)"] for sig in outcome.delivered["q"]]
        # R1's aggregate never mixes with R2's disjoint subgroup
        assert sums == [10, 5]


class TestServerPolicies:
    """A wildcard server grant intersects every mutable positive sp; a
    server denial subtracts unless every sp of the batch is immutable;
    a batch refined to nothing denies everyone."""

    def roles(self, stream, server):
        outcome = run_oracle({"s": stream}, scan_query(["R1", "R2", "R3"]),
                             server)
        return [sig[4] for sig in outcome.delivered["q"]]

    def test_a_grant_intersects_a_mutable_sp(self):
        assert self.roles([grant(["R1", "R2"], 1.0), t(0, 2.0)],
                          [SERVER_GRANT]) == [("R1",)]

    def test_a_grant_leaves_an_immutable_sp(self):
        assert self.roles(
            [grant(["R1", "R2"], 1.0, immutable=True), t(0, 2.0)],
            [SERVER_GRANT]) == [("R1", "R2")]

    def test_a_denial_subtracts_from_the_whole_batch(self):
        # One mutable sp is enough: the denial joins the batch and so
        # also narrows the immutable sp's grant.
        stream = [grant(["R1", "R2"], 1.0, immutable=True),
                  grant(["R3"], 1.0), t(0, 2.0)]
        assert self.roles(stream, [SERVER_DENIAL]) == [("R1", "R3")]

    def test_a_denial_skips_an_all_immutable_batch(self):
        stream = [grant(["R1", "R2"], 1.0, immutable=True), t(0, 2.0)]
        assert self.roles(stream, [SERVER_DENIAL]) == [("R1", "R2")]

    def test_a_batch_refined_to_nothing_denies_everyone(self):
        # Not the previous policy: the refined-away batch still takes
        # over the segment.
        stream = [grant(["R1"], 1.0), t(0, 2.0), grant(["R2"], 3.0),
                  t(1, 4.0)]
        outcome = run_oracle({"s": stream}, scan_query(["R1", "R2"]),
                             [SERVER_GRANT])
        assert delivered_tids(outcome) == [0]
        assert outcome.denied["q"] == 1
