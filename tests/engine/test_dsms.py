"""Tests for the DSMS facade: streams, queries, runs, runtime changes."""

import pytest

from repro.access.rbac import RBACModel
from repro.algebra.expressions import ScanExpr
from repro.core.punctuation import SecurityPunctuation
from repro.engine.dsms import DSMS
from repro.errors import QueryError, StreamError
from repro.operators.conditions import Comparison
from repro.stream.schema import StreamSchema
from repro.stream.tuples import DataTuple

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
