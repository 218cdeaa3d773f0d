"""Tests for the DSMS facade: streams, queries, runs, runtime changes."""

import pytest

from repro.access.rbac import RBACModel
from repro.algebra.expressions import ScanExpr
from repro.core.patterns import parse_names
from repro.core.punctuation import (DataDescription, SecurityPunctuation,
                                    SecurityRestriction)
from repro.engine.dsms import DSMS
from repro.errors import QueryError, StreamError
from repro.observability import Observability
from repro.operators.conditions import Comparison
from repro.stream.schema import StreamSchema
from repro.stream.tuples import DataTuple
from repro.stream.wire import decode_element
from tests.drive import push_all

SCHEMA = StreamSchema("hr", ("patient", "bpm"), key="patient")


def grant(roles, ts, **kwargs):
    return SecurityPunctuation.grant(roles, ts, provider="p1", **kwargs)


def reading(patient, bpm, ts):
    return DataTuple("hr", patient, {"patient": patient, "bpm": bpm}, ts)


def basic_elements():
    return [
        grant(["D", "ND"], 0.0),
        reading(1, 72, 1.0),
        reading(2, 95, 2.0),
        grant(["C"], 3.0),
        reading(3, 99, 4.0),
    ]


class TestRegistration:
    def test_duplicate_stream_rejected(self):
        dsms = DSMS()
        dsms.register_stream(SCHEMA, [])
        with pytest.raises(StreamError):
            dsms.register_stream(SCHEMA, [])

    def test_duplicate_query_rejected(self):
        dsms = DSMS()
        dsms.register_stream(SCHEMA, [])
        dsms.register_query("q", ScanExpr("hr"), roles={"D"})
        with pytest.raises(QueryError):
            dsms.register_query("q", ScanExpr("hr"), roles={"D"})

    def test_query_requires_roles_or_user(self):
        dsms = DSMS()
        with pytest.raises(QueryError):
            dsms.register_query("q", ScanExpr("hr"))

    def test_run_without_queries_rejected(self):
        dsms = DSMS()
        with pytest.raises(QueryError):
            dsms.run()


class TestEnforcement:
    def test_roles_see_only_their_segments(self):
        dsms = DSMS()
        dsms.register_stream(SCHEMA, basic_elements())
        dsms.register_query("doc", ScanExpr("hr"), roles={"D"})
        dsms.register_query("cardio", ScanExpr("hr"), roles={"C"})
        results = dsms.run()
        assert [t.tid for t in results["doc"].tuples] == [1, 2]
        assert [t.tid for t in results["cardio"].tuples] == [3]

    def test_selection_composes_with_enforcement(self):
        dsms = DSMS()
        dsms.register_stream(SCHEMA, basic_elements())
        expr = ScanExpr("hr").select(Comparison("bpm", ">", 80))
        dsms.register_query("q", expr, roles={"D"})
        results = dsms.run()
        assert [t.tid for t in results["q"].tuples] == [2]

    def test_server_policy_refines(self):
        dsms = DSMS()
        dsms.register_stream(SCHEMA, basic_elements())
        # Server allows only C globally: D/ND segments become empty.
        dsms.add_server_policy(SecurityPunctuation.grant(["C"], ts=0.0))
        dsms.register_query("doc", ScanExpr("hr"), roles={"D"})
        dsms.register_query("cardio", ScanExpr("hr"), roles={"C"})
        results = dsms.run()
        assert results["doc"].tuples == []
        assert [t.tid for t in results["cardio"].tuples] == [3]

    def test_results_include_sps(self):
        dsms = DSMS()
        dsms.register_stream(SCHEMA, basic_elements())
        dsms.register_query("doc", ScanExpr("hr"), roles={"D"})
        result = dsms.run()["doc"]
        assert len(result.sps) >= 1


class TestRBACIntegration:
    def _dsms(self):
        rbac = RBACModel()
        rbac.add_role("D")
        rbac.add_role("C")
        rbac.add_user("alice")
        rbac.assign_role("alice", "D")
        dsms = DSMS(rbac=rbac)
        dsms.register_stream(SCHEMA, basic_elements())
        return dsms, rbac

    def test_query_inherits_user_roles(self):
        dsms, _ = self._dsms()
        query = dsms.register_query("q", ScanExpr("hr"), user_id="alice")
        assert query.roles == frozenset({"D"})

    def test_registration_locks_user(self):
        dsms, rbac = self._dsms()
        dsms.register_query("q", ScanExpr("hr"), user_id="alice")
        assert rbac.is_locked("alice")
        dsms.deregister_query("q")
        assert not rbac.is_locked("alice")

    def test_session_roles_preferred(self):
        dsms, rbac = self._dsms()
        rbac.assign_role("alice", "C")
        rbac.sign_in("alice", frozenset({"C"}))
        query = dsms.register_query("q", ScanExpr("hr"), user_id="alice")
        assert query.roles == frozenset({"C"})


class TestRuntimeRoleChange:
    def test_update_query_roles_changes_results(self):
        dsms = DSMS()
        dsms.register_stream(SCHEMA, basic_elements())
        dsms.register_query("q", ScanExpr("hr"), roles={"D"})
        assert [t.tid for t in dsms.run()["q"].tuples] == [1, 2]
        dsms.update_query_roles("q", {"C"})
        assert [t.tid for t in dsms.run()["q"].tuples] == [3]

    def test_update_requires_nonempty(self):
        dsms = DSMS()
        dsms.register_stream(SCHEMA, [])
        dsms.register_query("q", ScanExpr("hr"), roles={"D"})
        with pytest.raises(QueryError):
            dsms.update_query_roles("q", set())

    def test_update_unknown_query(self):
        dsms = DSMS()
        with pytest.raises(QueryError):
            dsms.update_query_roles("ghost", {"D"})

    def test_live_shield_updated_in_place(self):
        dsms = DSMS()
        dsms.register_stream(SCHEMA, basic_elements())
        dsms.register_query("q", ScanExpr("hr"), roles={"D"})
        plan, sinks = dsms.build_plan()
        dsms.update_query_roles("q", {"C"})
        shields = dsms.shields("q")
        assert shields
        assert shields[0].predicate == frozenset({"C"})


class TestImmutablePolicies:
    def test_immutable_provider_sp_defeats_server_refinement(self):
        dsms = DSMS()
        elements = [
            SecurityPunctuation.grant(["D"], ts=0.0, provider="p1",
                                      immutable=True),
            reading(1, 72, 1.0),
            SecurityPunctuation.grant(["D"], ts=2.0, provider="p1"),
            reading(2, 80, 3.0),
        ]
        dsms.register_stream(SCHEMA, elements)
        # The server tries to restrict everything to C.
        dsms.add_server_policy(SecurityPunctuation.grant(["C"], ts=0.0))
        dsms.register_query("doc", ScanExpr("hr"), roles={"D"})
        results = dsms.run()
        # The immutable sp survives the server policy; the mutable one
        # is refined to nothing.
        assert [t.tid for t in results["doc"].tuples] == [1]


class TestOpenPatternWithoutServerPolicy:
    """A provider line whose open role pattern matches no known role
    grants nobody: the analyzer resolves it at the entry, so its
    segment is denied and audited, and neither a run nor a session
    raises."""

    LINES = [
        '{"k":"sp","sp":"<*, *, * | A | + | F | 0.0>"}',
        '{"k":"t","sid":"hr","tid":1,"ts":1.0,'
        '"v":{"patient":1,"bpm":72}}',
        '{"k":"sp","sp":"<hr, *, * | /Z.*/ | + | F | 2.0>"}',
        '{"k":"t","sid":"hr","tid":2,"ts":3.0,'
        '"v":{"patient":2,"bpm":80}}',
    ]

    def _dsms(self, observability=None):
        dsms = DSMS(observability=observability)
        dsms.register_stream(SCHEMA, [decode_element(line)
                                      for line in self.LINES])
        dsms.register_query("q", ScanExpr("hr"), roles={"A"})
        return dsms

    def test_run_denies_the_segment(self):
        results = self._dsms().run()
        assert [t.tid for t in results["q"].tuples] == [1]

    def test_session_denies_the_segment(self):
        results = push_all(self._dsms())
        assert [t.tid for t in results["q"].tuples] == [1]

    @pytest.mark.parametrize("drive", ["run", "session"])
    def test_the_denial_is_audited(self, drive):
        dsms = self._dsms(Observability.in_memory())
        if drive == "run":
            dsms.run()
        else:
            push_all(dsms)
        (denied,) = dsms.audit.explain(2)
        assert (denied.kind, denied.query) == ("shield.drop", "q")


class TestOpenIncrementalDenial:
    """An incremental denial with an open role pattern retracts the
    roles in force that it matches — here none, so ``A`` keeps the
    second segment — and neither a run nor a session raises."""

    LINES = [
        '{"k":"sp","sp":"<*, *, * | A | + | F | 0.0>"}',
        '{"k":"t","sid":"hr","tid":1,"ts":1.0,'
        '"v":{"patient":1,"bpm":72}}',
        '{"k":"sp","sp":"<*, *, * | /Z.*/ | - | F | 2.0 | INC>"}',
        '{"k":"t","sid":"hr","tid":2,"ts":3.0,'
        '"v":{"patient":2,"bpm":80}}',
        '{"k":"sp","sp":"<*, *, * | /A.*/ | - | F | 4.0 | INC>"}',
        '{"k":"t","sid":"hr","tid":3,"ts":5.0,'
        '"v":{"patient":3,"bpm":90}}',
    ]

    def _dsms(self):
        dsms = DSMS()
        dsms.register_stream(SCHEMA, [decode_element(line)
                                      for line in self.LINES])
        dsms.register_query("q", ScanExpr("hr"), roles={"A"})
        return dsms

    def test_run_retracts_only_matched_roles(self):
        results = self._dsms().run()
        assert [t.tid for t in results["q"].tuples] == [1, 2]

    def test_session_retracts_only_matched_roles(self):
        results = push_all(self._dsms())
        assert [t.tid for t in results["q"].tuples] == [1, 2]


class TestOpenServerGrant:
    """A server grant with an open role pattern keeps, of each provider
    grant, the roles it matches among those known when the batch is
    refined: ``/Z.*/`` matches no role of the first batch, so that
    segment is denied, not aborted, and ``Z1`` of the second."""

    def _dsms(self):
        dsms = DSMS()
        dsms.register_stream(SCHEMA, [
            grant(["A"], 0.0),
            reading(1, 72, 1.0),
            grant(["A", "Z1"], 2.0),
            reading(2, 80, 3.0),
        ])
        dsms.add_server_policy(decode_element(
            '{"k":"sp","sp":"<*, *, * | /Z.*/ | + | F | 0.0>"}'))
        dsms.register_query("q", ScanExpr("hr"), roles={"A"})
        dsms.register_query("z", ScanExpr("hr"), roles={"Z1"})
        return dsms

    @pytest.mark.parametrize("drive", ["run", "session"])
    def test_refines_to_the_matched_roles(self, drive):
        dsms = self._dsms()
        results = dsms.run() if drive == "run" else push_all(dsms)
        assert [t.tid for t in results["q"].tuples] == []
        assert [t.tid for t in results["z"].tuples] == [2]

    @pytest.mark.parametrize("sign", ["+", "-"])
    def test_a_role_known_at_registration_does_not_freeze_it(self, sign):
        """``Z1`` is known when the server policy is added; ``Z2``,
        which the pattern matches too, arrives later and is granted
        (``+``) or denied (``-``) all the same."""
        dsms = DSMS()
        dsms.register_stream(SCHEMA, [grant(["A", "Z2"], 0.0),
                                      reading(1, 72, 1.0)])
        dsms.register_query("z1", ScanExpr("hr"), roles={"Z1"})
        dsms.add_server_policy(decode_element(
            f'{{"k":"sp","sp":"<*, *, * | /Z.*/ | {sign} | F | 0.0>"}}'))
        dsms.register_query("z2", ScanExpr("hr"), roles={"Z2"})
        results = dsms.run()
        assert [t.tid for t in results["z2"].tuples] == (
            [1] if sign == "+" else [])


class TestUnmatchedOpenPattern:
    """A provider sp whose open role pattern matched no known role
    grants the server roles it matches — none — so under a server grant
    its segment is denied, and neither a run nor a session raises."""

    def _dsms(self, observability=None):
        dsms = DSMS(observability=observability)
        dsms.register_stream(SCHEMA, [
            grant(["A"], 0.0),
            reading(1, 72, 1.0),
            SecurityPunctuation(ddp=DataDescription(),
                                srp=SecurityRestriction(parse_names("/C|E/")),
                                ts=2.0, provider="p1"),
            reading(2, 80, 3.0),
        ])
        dsms.add_server_policy(SecurityPunctuation.grant(["A"], ts=0.0))
        dsms.register_query("q", ScanExpr("hr"), roles={"A"})
        return dsms

    def test_run_denies_the_segment(self):
        results = self._dsms().run()
        assert [t.tid for t in results["q"].tuples] == [1]

    def test_session_denies_the_segment(self):
        results = push_all(self._dsms())
        assert [t.tid for t in results["q"].tuples] == [1]

    def test_refinement_is_audited_as_granting_nobody(self):
        dsms = self._dsms(Observability.in_memory())
        dsms.run()
        refine = dsms.audit.events(kind="analyzer.refine")[-1]
        assert refine.policy == ()
        assert refine.detail["result_roles"] == []
