"""Tests for plan explain/pretty-printing."""

from repro.algebra.explain import explain, node_label
from repro.algebra.expressions import (JoinExpr, ScanExpr, ShieldExpr,
                                       UnionExpr)
from repro.operators.conditions import Comparison


def sample_plan():
    return (ScanExpr("s")
            .select(Comparison("v", ">", 1))
            .shield({"D", "C"})
            .project(["v"]))


class TestNodeLabels:
    def test_each_node_type_labelled(self):
        assert node_label(ScanExpr("s")) == "Scan(s)"
        assert node_label(ScanExpr("s").shield({"D"})) == "ψ[{D}]"
        assert "σ[" in node_label(
            ScanExpr("s").select(Comparison("v", ">", 1)))
        assert node_label(ScanExpr("s").project(["a", "b"])) == "π[a,b]"
        join = JoinExpr(ScanExpr("a"), ScanExpr("b"), "x", "y", 5.0)
        assert "⋈[x=y" in node_label(join)
        assert "δ[" in node_label(ScanExpr("s").distinct(5.0, ["v"]))
        assert "G[" in node_label(
            ScanExpr("s").group_by("g", "sum", "v", 5.0))
        assert node_label(UnionExpr(ScanExpr("a"), ScanExpr("b"))) == "∪"

    def test_conjunctive_shield_label(self):
        shield = ShieldExpr(ScanExpr("s"),
                            (frozenset({"a"}), frozenset({"b"})))
        assert node_label(shield) == "ψ[{a}∧{b}]"


class TestExplain:
    def test_tree_structure(self):
        text = explain(sample_plan())
        lines = text.splitlines()
        assert lines[0].startswith("π[v]")
        assert lines[1].startswith("  ψ[")
        assert lines[2].startswith("    σ[")
        assert lines[3].startswith("      Scan(s)")

    def test_binary_plans(self):
        plan = ShieldExpr(
            JoinExpr(ScanExpr("a"), ScanExpr("b"), "x", "x", 5.0),
            frozenset({"D"}))
        text = explain(plan)
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("ψ[{D}]")
        assert sum("Scan" in line for line in lines) == 2
