"""Tests for the Table II equivalence rules (structural side).

Semantic equivalence (same visible results on real streams) is covered
by tests/properties/test_rules_equivalence.py; here we verify the
rewrites produce the intended shapes and respect their guards.
"""

import pytest

from repro.algebra.expressions import (JoinExpr, ProjectExpr, ScanExpr,
                                       SelectExpr, ShieldExpr, UnionExpr)
from repro.operators.conditions import Comparison
from tests.algebra.table2 import (AssociateJoin, CommuteJoinInputs,
                                  CommuteProjectShield, CommuteSelectShield,
                                  CommuteShields, MergeShields,
                                  PullShieldOutOfBinary, PushShieldIntoBinary,
                                  RewriteContext, SplitShield, apply_at,
                                  equivalent_forms)

CTX = RewriteContext(policy_streams=frozenset({"a", "b"}))
COND = Comparison("v", ">", 1)


class TestRule1:
    def test_split_peels_first_conjunct(self):
        expr = ShieldExpr(ScanExpr("a"),
                          (frozenset({"p"}), frozenset({"q"})))
        rule = SplitShield()
        assert rule.matches(expr, CTX)
        split = rule.apply(expr, CTX)
        assert isinstance(split, ShieldExpr)
        assert split.predicates == (frozenset({"p"}),)
        assert isinstance(split.input, ShieldExpr)
        assert split.input.predicates == (frozenset({"q"}),)

    def test_single_conjunct_cannot_split(self):
        expr = ScanExpr("a").shield({"p"})
        assert not SplitShield().matches(expr, CTX)

    def test_merge_inverts_split(self):
        expr = ShieldExpr(ScanExpr("a"),
                          (frozenset({"p"}), frozenset({"q"})))
        split = SplitShield().apply(expr, CTX)
        merged = MergeShields().apply(split, CTX)
        assert merged == expr


class TestRule2:
    def test_commute_shields(self):
        expr = ShieldExpr(ShieldExpr(ScanExpr("a"), frozenset({"q"})),
                          frozenset({"p"}))
        swapped = CommuteShields().apply(expr, CTX)
        assert swapped.predicates == (frozenset({"q"}),)
        assert swapped.input.predicates == (frozenset({"p"}),)

    def test_select_shield_push_down(self):
        expr = ShieldExpr(SelectExpr(ScanExpr("a"), COND), frozenset({"p"}))
        rule = CommuteSelectShield()
        pushed = rule.apply(expr, CTX)
        assert isinstance(pushed, SelectExpr)
        assert isinstance(pushed.input, ShieldExpr)

    def test_select_shield_pull_up(self):
        expr = SelectExpr(ShieldExpr(ScanExpr("a"), frozenset({"p"})), COND)
        pulled = CommuteSelectShield().apply(expr, CTX)
        assert isinstance(pulled, ShieldExpr)
        assert isinstance(pulled.input, SelectExpr)

    def test_project_shield_guard(self):
        expr = ShieldExpr(ProjectExpr(ScanExpr("a"), ("v",)),
                          frozenset({"p"}))
        safe = RewriteContext(attribute_policies_possible=False)
        unsafe = RewriteContext(attribute_policies_possible=True)
        assert CommuteProjectShield().matches(expr, safe)
        assert not CommuteProjectShield().matches(expr, unsafe)


class TestRule3:
    def _join(self, left="a", right="b"):
        return JoinExpr(ScanExpr(left), ScanExpr(right), "x", "x", 10.0)

    def test_push_two_sided_when_both_stream_policies(self):
        expr = ShieldExpr(self._join(), frozenset({"p"}))
        pushed = PushShieldIntoBinary().apply(expr, CTX)
        assert isinstance(pushed, JoinExpr)
        assert isinstance(pushed.left, ShieldExpr)
        assert isinstance(pushed.right, ShieldExpr)

    def test_push_one_sided_when_only_left_streams(self):
        ctx = RewriteContext(policy_streams=frozenset({"a"}))
        expr = ShieldExpr(self._join(), frozenset({"p"}))
        pushed = PushShieldIntoBinary().apply(expr, ctx)
        assert isinstance(pushed.left, ShieldExpr)
        assert isinstance(pushed.right, ScanExpr)

    def test_pull_two_sided_requires_equal_predicates(self):
        join = JoinExpr(ScanExpr("a").shield({"p"}),
                        ScanExpr("b").shield({"p"}), "x", "x", 10.0)
        pulled = PullShieldOutOfBinary().apply(join, CTX)
        assert isinstance(pulled, ShieldExpr)
        assert isinstance(pulled.input, JoinExpr)
        mismatched = JoinExpr(ScanExpr("a").shield({"p"}),
                              ScanExpr("b").shield({"q"}), "x", "x", 10.0)
        assert not PullShieldOutOfBinary().matches(mismatched, CTX)

    def test_pull_one_sided_requires_policy_free_other_side(self):
        ctx = RewriteContext(policy_streams=frozenset({"a"}))
        join = JoinExpr(ScanExpr("a").shield({"p"}), ScanExpr("b"),
                        "x", "x", 10.0)
        assert PullShieldOutOfBinary().matches(join, ctx)
        # Under CTX both streams carry policies: one-sided pull invalid.
        assert not PullShieldOutOfBinary().matches(join, CTX)


class TestRules4And5:
    def test_commute_join_inputs_swaps_keys(self):
        join = JoinExpr(ScanExpr("a"), ScanExpr("b"), "x", "y", 10.0)
        swapped = CommuteJoinInputs().apply(join, CTX)
        assert swapped.left == ScanExpr("b")
        assert swapped.left_on == "y" and swapped.right_on == "x"

    def test_commute_union(self):
        union = UnionExpr(ScanExpr("a"), ScanExpr("b"))
        swapped = CommuteJoinInputs().apply(union, CTX)
        assert swapped.left == ScanExpr("b")

    def test_associate_join(self):
        inner = JoinExpr(ScanExpr("a"), ScanExpr("b"), "x", "x", 10.0)
        outer = JoinExpr(inner, ScanExpr("c"), "y", "y", 10.0)
        rotated = AssociateJoin().apply(outer, CTX)
        assert rotated.left == ScanExpr("a")
        assert isinstance(rotated.right, JoinExpr)
        assert rotated.right.left == ScanExpr("b")
        assert rotated.right.right == ScanExpr("c")


class TestRewriteMachinery:
    def test_apply_at_path(self):
        expr = UnionExpr(ScanExpr("a"),
                         ShieldExpr(SelectExpr(ScanExpr("b"), COND),
                                    frozenset({"p"})))
        rewritten = apply_at(expr, (1,), CommuteSelectShield(), CTX)
        assert isinstance(rewritten.right, SelectExpr)

    def test_apply_at_bad_path(self):
        with pytest.raises(ValueError):
            apply_at(ScanExpr("a"), (3,), CommuteShields(), CTX)

    def test_apply_at_non_matching_rule(self):
        with pytest.raises(ValueError):
            apply_at(ScanExpr("a"), (), CommuteShields(), CTX)

    def test_equivalent_forms_deduplicated(self):
        expr = ShieldExpr(SelectExpr(ScanExpr("a"), COND), frozenset({"p"}))
        forms = equivalent_forms(expr, CTX)
        assert len(forms) == len(set(forms))
        assert expr not in forms
        assert SelectExpr(ShieldExpr(ScanExpr("a"), frozenset({"p"})),
                          COND) in forms
