"""Logical-plan analysis: SEC001/SEC002/SEC003 over expressions."""

from repro.algebra.expressions import (DupElimExpr, GroupByExpr, JoinExpr,
                                       ProjectExpr, ScanExpr, ShieldExpr)
from repro.analysis.exprcheck import analyze_expr
from repro.analysis.lattice import StreamFacts
from repro.core.patterns import literal
from repro.core.punctuation import SecurityPunctuation
from repro.stream.tuples import DataTuple


def shield(expr, *rolesets):
    return ShieldExpr(expr, tuple(frozenset(r) for r in rolesets))


class TestSEC001:
    def test_unshielded_plan_is_error(self):
        report = analyze_expr(ScanExpr("s"))
        (diag,) = report.by_code("SEC001")
        assert diag.severity.label == "error"
        assert not report.ok

    def test_delivery_assumption_reports_nothing(self):
        # The query's delivery:<name> outlet is its shield.
        report = analyze_expr(ScanExpr("s"), assume_delivery=True)
        assert report.codes() == set()

    def test_shielded_plan_is_clean(self):
        report = analyze_expr(shield(ScanExpr("s"), {"R1"}))
        assert report.codes() == set()

    def test_one_unshielded_join_branch_is_flagged(self):
        # The shield guards only the left route; the right route
        # reaches the sink unshielded, so the meet loses the guarantee.
        expr = JoinExpr(shield(ScanExpr("l"), {"R1"}), ScanExpr("r"),
                        "k", "k", 10.0)
        report = analyze_expr(expr)
        assert "SEC001" in report.codes()

    def test_both_branches_shielded_is_clean(self):
        expr = JoinExpr(shield(ScanExpr("l"), {"R1"}),
                        shield(ScanExpr("r"), {"R1"}), "k", "k", 10.0)
        assert analyze_expr(expr).codes() == set()

    def test_roles_sharpen_the_fixit(self):
        report = analyze_expr(ScanExpr("s"), roles=["R1"])
        (diag,) = report.by_code("SEC001")
        assert "R1" in (diag.fixit or "")


def _attr_scoped_facts():
    elements = [
        SecurityPunctuation.grant(["R1"], 0.0, provider="s",
                                  attribute=literal("a")),
        DataTuple("s", 0, {"a": 1, "b": 2}, 1.0),
    ]
    return StreamFacts.from_elements({"s": elements}, {"s": ("a", "b")})


class TestSEC002:
    def test_project_pruning_governed_attribute(self):
        expr = shield(ProjectExpr(ScanExpr("s"), ("b",)), {"R1"})
        report = analyze_expr(expr, facts=_attr_scoped_facts())
        (diag,) = report.by_code("SEC002")
        assert "'a'" in diag.message or "['a']" in diag.message
        assert report.ok  # warning, not error

    def test_groupby_pruning_governed_attribute(self):
        expr = shield(GroupByExpr(ScanExpr("s"), None, "sum", "b", 5.0),
                      {"R1"})
        report = analyze_expr(expr, facts=_attr_scoped_facts())
        assert "SEC002" in report.codes()

    def test_keeping_the_attribute_is_clean(self):
        expr = shield(ProjectExpr(ScanExpr("s"), ("a",)), {"R1"})
        report = analyze_expr(expr, facts=_attr_scoped_facts())
        assert "SEC002" not in report.codes()

    def test_unknown_facts_stay_silent(self):
        expr = shield(ProjectExpr(ScanExpr("s"), ("b",)), {"R1"})
        report = analyze_expr(expr, facts=StreamFacts.unknown())
        assert "SEC002" not in report.codes()


class TestSEC003:
    def test_dominated_downstream_shield(self):
        expr = shield(shield(ScanExpr("s"), {"R1"}), {"R1", "R2"})
        report = analyze_expr(expr)
        (diag,) = report.by_code("SEC003")
        assert "dominated" in diag.message

    def test_narrower_downstream_shield_is_useful(self):
        expr = shield(shield(ScanExpr("s"), {"R1", "R2"}), {"R1"})
        assert "SEC003" not in analyze_expr(expr).codes()

    def test_partially_shielded_merge_not_dominated(self):
        # Only one branch crossed {R1}: the root shield still guards
        # the other route and is not redundant.
        expr = shield(
            JoinExpr(shield(ScanExpr("l"), {"R1"}), ScanExpr("r"),
                     "k", "k", 10.0),
            {"R1"})
        assert "SEC003" not in analyze_expr(expr).codes()

    def test_dupelim_does_not_clear_domination(self):
        expr = shield(DupElimExpr(shield(ScanExpr("s"), {"R1"}),
                                  5.0, None),
                      {"R1", "R2"})
        assert "SEC003" in analyze_expr(expr).codes()
