"""Table II's fail-closed guards and the SEC004 sites they mirror."""

from repro.algebra.expressions import (DupElimExpr, GroupByExpr, JoinExpr,
                                       ProjectExpr, ScanExpr, ShieldExpr)
from repro.analysis import hazard_sites
from repro.analysis.lattice import StreamFacts
from repro.core.patterns import literal
from repro.core.punctuation import SecurityPunctuation
from repro.stream.tuples import DataTuple
from tests.algebra.table2 import (ALL_RULES, RewriteContext,
                                  equivalent_forms, hazard_absent)


class TestProofs:
    def test_only_proven_admits(self):
        assert hazard_absent(False)
        assert not hazard_absent(True)
        assert not hazard_absent(None)


class TestFailClosedDefault:
    """The adversarial-context regression: a default (all-unknown)
    context must refuse every guarded rewrite — assuming safety from
    ignorance is exactly the unsoundness the differ once found."""

    def guarded_exprs(self):
        shielded = ShieldExpr(ScanExpr("s"), frozenset({"R1"}))
        return [
            ShieldExpr(ProjectExpr(ScanExpr("s"), ("a",)),
                       frozenset({"R1"})),
            ProjectExpr(shielded, ("a",)),
            ShieldExpr(DupElimExpr(ScanExpr("s"), 5.0, None),
                       frozenset({"R1"})),
            DupElimExpr(shielded, 5.0, None),
            ShieldExpr(GroupByExpr(ScanExpr("s"), None, "sum", "a", 5.0),
                       frozenset({"R1"})),
            GroupByExpr(shielded, None, "sum", "a", 5.0),
            JoinExpr(JoinExpr(ScanExpr("a"), ScanExpr("b"),
                              "k", "k", 5.0),
                     ScanExpr("c"), "k", "k", 5.0),
        ]

    def test_default_context_refuses_all_guarded_rules(self):
        ctx = RewriteContext(policy_streams=frozenset({"s", "a", "b",
                                                       "c"}))
        guarded = {"commute-project-shield", "commute-dupelim-shield",
                   "commute-groupby-shield", "associate-join"}
        for expr in self.guarded_exprs():
            for rule in ALL_RULES:
                if rule.name in guarded:
                    assert not rule.matches(expr, ctx), (
                        f"{rule.name} admitted under an unknown "
                        f"precondition on {expr!r}")

    def test_proven_absent_readmits(self):
        ctx = RewriteContext(
            policy_streams=frozenset({"s", "a", "b", "c"}),
            attribute_policies_possible=False,
            heterogeneous_policies_possible=False,
            strict_join_windows=False)
        admitted = set()
        for expr in self.guarded_exprs():
            for rule in ALL_RULES:
                if rule.matches(expr, ctx):
                    admitted.add(rule.name)
        assert {"commute-project-shield", "commute-dupelim-shield",
                "commute-groupby-shield",
                "associate-join"} <= admitted

    def test_equivalent_forms_honours_the_guards(self):
        expr = ShieldExpr(DupElimExpr(ScanExpr("s"), 5.0, None),
                          frozenset({"R1"}))
        closed = equivalent_forms(expr, RewriteContext())
        opened = equivalent_forms(
            expr, RewriteContext(heterogeneous_policies_possible=False))
        commuted = DupElimExpr(
            ShieldExpr(ScanExpr("s"), frozenset({"R1"})), 5.0, None)
        assert commuted not in closed
        assert commuted in opened


def _hetero_facts():
    elements = [
        SecurityPunctuation.grant(["R1"], 0.0, provider="s"),
        DataTuple("s", 0, {"a": 1}, 1.0),
        SecurityPunctuation.grant(["R2"], 2.0, provider="s"),
        DataTuple("s", 1, {"a": 1}, 3.0),
    ]
    return StreamFacts.from_elements({"s": elements}, {"s": ("a",)})


class TestHazardSites:
    def test_heterogeneous_stream_refutes_dupelim_commute(self):
        expr = ShieldExpr(DupElimExpr(ScanExpr("s"), 5.0, None),
                          frozenset({"R1"}))
        report = hazard_sites(expr, _hetero_facts())
        (diag,) = report.by_code("SEC004")
        assert diag.severity.label == "warning"
        assert "commute-dupelim-shield" in diag.message

    def test_attribute_scoped_stream_refutes_project_commute(self):
        elements = [
            SecurityPunctuation.grant(["R1"], 0.0, provider="s",
                                      attribute=literal("a")),
            DataTuple("s", 0, {"a": 1, "b": 2}, 1.0),
        ]
        facts = StreamFacts.from_elements({"s": elements},
                                          {"s": ("a", "b")})
        expr = ProjectExpr(ShieldExpr(ScanExpr("s"), frozenset({"R1"})),
                           ("b",))
        report = hazard_sites(expr, facts)
        assert any("commute-project-shield" in d.message
                   for d in report.by_code("SEC004"))

    def test_uniform_stream_is_silent(self):
        elements = [
            SecurityPunctuation.grant(["R1"], 0.0, provider="s"),
            DataTuple("s", 0, {"a": 1}, 1.0),
        ]
        facts = StreamFacts.from_elements({"s": elements}, {"s": ("a",)})
        expr = ShieldExpr(DupElimExpr(ScanExpr("s"), 5.0, None),
                          frozenset({"R1"}))
        assert len(hazard_sites(expr, facts)) == 0

    def test_unknown_facts_are_silent(self):
        expr = ShieldExpr(DupElimExpr(ScanExpr("s"), 5.0, None),
                          frozenset({"R1"}))
        assert len(hazard_sites(expr, StreamFacts.unknown())) == 0
