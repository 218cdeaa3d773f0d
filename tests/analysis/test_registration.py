"""DSMS analysis modes ("off"/"warn"/"strict") at registration and build."""

import warnings

import pytest

from repro.algebra.expressions import ScanExpr, ShieldExpr
from repro.core.punctuation import SecurityPunctuation
from repro.engine.dsms import DSMS
from repro.errors import (PlanAnalysisError, PlanAnalysisWarning,
                          QueryError)
from repro.operators.conditions import FuncCondition
from repro.stream.schema import StreamSchema
from repro.stream.tuples import DataTuple


def make_dsms():
    dsms = DSMS()
    dsms.register_stream(StreamSchema("s", ("a",)), [
        SecurityPunctuation.grant(["R1"], 0.0, provider="s"),
        DataTuple("s", 0, {"a": 1}, 1.0),
    ])
    return dsms


def reads_undeclared(t):
    return t.get("a", 0) > 0 and t.get("b", 0) > 0


def cheating_select():
    """σ over ``s`` whose UDF reads ``b`` undeclared: a SEC006 error."""
    return ScanExpr("s").select(
        FuncCondition(reads_undeclared, ("a",), label="cheat"))


def register_quietly(dsms, name, expr, **kwargs):
    """Register, leaving out the registration-time warnings."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PlanAnalysisWarning)
        dsms.register_query(name, expr, **kwargs)


def build_findings(dsms):
    """The messages ``build_plan`` warns with."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", PlanAnalysisWarning)
        dsms.build_plan()
    return [str(w.message) for w in caught
            if issubclass(w.category, PlanAnalysisWarning)]


class TestStrictMode:
    def test_rejects_error_finding_before_any_tuple(self):
        dsms = make_dsms()
        with pytest.raises(PlanAnalysisError) as excinfo:
            dsms.register_query("q", cheating_select(),
                                roles={"R1"}, analyze="strict")
        # Rejection is pre-registration and pre-execution.
        assert "q" not in dsms.queries
        report = excinfo.value.report
        assert report is not None
        assert "SEC006" in report.codes()

    def test_accepts_shielded_plan_and_runs(self):
        dsms = make_dsms()
        dsms.register_query("q", ScanExpr("s"), roles={"R1"},
                            analyze="strict")
        results = dsms.run()
        assert len(results["q"].tuples) == 1

    def test_accepts_explicit_shield_without_auto(self):
        dsms = make_dsms()
        expr = ShieldExpr(ScanExpr("s"), frozenset({"R1"}))
        dsms.register_query("q", expr, roles={"R1"}, analyze="strict")
        assert len(dsms.run()["q"].tuples) == 1

    def test_warning_severity_findings_do_not_raise(self):
        # A dominated shield is warning-severity: strict mode still
        # registers and runs the query (errors only).
        dsms = make_dsms()
        expr = ShieldExpr(ShieldExpr(ScanExpr("s"), frozenset({"R1"})),
                          frozenset({"R1", "R2"}))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PlanAnalysisWarning)
            dsms.register_query("q", expr, roles={"R1"},
                                analyze="strict")
            assert len(dsms.run()["q"].tuples) == 1


class TestWarnMode:
    def test_error_finding_warns_but_registers(self):
        dsms = make_dsms()
        with pytest.warns(PlanAnalysisWarning, match="SEC006"):
            dsms.register_query("q", cheating_select(),
                                roles={"R1"}, analyze="warn")
        assert "q" in dsms.queries

    def test_build_plan_reanalyzes_compiled_dag(self):
        dsms = make_dsms()
        register_quietly(dsms, "q", cheating_select(),
                         roles={"R1"}, analyze="warn")
        with pytest.warns(PlanAnalysisWarning, match="compiled plan"):
            dsms.build_plan()

    def test_clean_plan_is_silent(self):
        dsms = make_dsms()
        with warnings.catch_warnings():
            warnings.simplefilter("error", PlanAnalysisWarning)
            dsms.register_query("q", ScanExpr("s"), roles={"R1"},
                                analyze="warn")
            dsms.run()


class TestBuildTimeAnalysis:
    """``build_plan`` re-checks each query's compiled plan in its mode."""

    def test_outlet_only_plan_is_clean(self):
        # The delivery:q outlet is the query's shield: no SEC001.
        dsms = make_dsms()
        register_quietly(dsms, "q", ScanExpr("s"), roles={"R1"},
                         analyze="warn")
        assert build_findings(dsms) == []
        (outlet,) = dsms.shields("q")
        assert outlet.name == "delivery:q"

    def test_outlet_root_is_not_sec003(self):
        # A root ψ_R1 ahead of the ψ_R1 outlet is redundant but harmless
        # (Table II Rule 1): the analysis does not model the outlet.
        dsms = make_dsms()
        register_quietly(dsms, "q", ShieldExpr(ScanExpr("s"),
                                               frozenset({"R1"})),
                         roles={"R1"}, analyze="warn")
        assert build_findings(dsms) == []
        assert [s.name for s in dsms.shields("q")] == [
            "SecurityShield", "delivery:q"]

    def test_dominated_inplan_shield_flagged(self):
        dsms = make_dsms()
        expr = ShieldExpr(ShieldExpr(ScanExpr("s"), frozenset({"R1"})),
                          frozenset({"R1", "R2"}))
        register_quietly(dsms, "q", expr, roles={"R1"}, analyze="warn")
        (finding,) = build_findings(dsms)
        assert finding.startswith("compiled plan: SEC003 warning at q/")

    def test_shared_scan_checked_per_query(self):
        # Two queries over one scan: only q2's own selection is
        # reported.
        dsms = make_dsms()
        register_quietly(dsms, "q1", ScanExpr("s"), roles={"R1"},
                         analyze="warn")
        register_quietly(dsms, "q2", cheating_select(),
                         roles={"R2"}, analyze="warn")
        (finding,) = build_findings(dsms)
        assert finding.startswith("compiled plan: SEC006 error at q2/")

    def test_each_query_keeps_its_own_mode(self):
        # A warn query's error-severity finding warns even when a
        # strict query shares the plan.
        dsms = make_dsms()
        register_quietly(dsms, "q1", cheating_select(),
                         roles={"R1"}, analyze="warn")
        register_quietly(dsms, "q2", ScanExpr("s"), roles={"R1"},
                         analyze="strict")
        (finding,) = build_findings(dsms)
        assert finding.startswith("compiled plan: SEC006 error at q1/")


class TestModeHandling:
    def test_off_is_the_default_and_silent(self):
        dsms = make_dsms()
        with warnings.catch_warnings():
            warnings.simplefilter("error", PlanAnalysisWarning)
            dsms.register_query("q", ScanExpr("s"), roles={"R1"})
            dsms.run()

    def test_invalid_mode_rejected(self):
        dsms = make_dsms()
        with pytest.raises(QueryError, match="analyze"):
            dsms.register_query("q", ScanExpr("s"), roles={"R1"},
                                analyze="paranoid")

    def test_mode_survives_with_expr(self):
        from repro.engine.query import ContinuousQuery

        query = ContinuousQuery("q", ScanExpr("s"), {"R1"},
                                analyze="strict")
        clone = query.with_expr(query.expr)
        assert clone.analyze == "strict"
