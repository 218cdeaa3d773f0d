"""The security-aware equivalence rules (Table II), as tested theorems.

The engine compiles every query as registered and applies none of
these rules; they live beside their proofs.  The suites that import
this module (``test_rules``, ``test_rules_equivalence``,
``test_rule_equivalence_property``, ``test_select_rules``,
``test_three_way_join``, ``test_udf_proofs``) register a rewritten
expression and call ``DSMS.run()`` to show that each rule preserves
what every query delivers.

Rule 1   ψ_{p1∧p2∧..∧pn}(T) ≡ ψ_p1(ψ_p2(..(ψ_pn(T))))          (split / merge)
Rule 2   commute SS with SS, π, σ, δ, G
Rule 3   ψ_p(T Θ E) ≡ ψ_p(T) Θ E            if only T streams policies
         ψ_p(T Θ E) ≡ ψ_p(T) Θ ψ_p(E)       if both stream policies
Rule 4   binary operators commute under a shield
Rule 5   binary operators associate under a shield

Each rule is a :class:`Rule` with ``matches(expr, ctx)`` and
``apply(expr, ctx)``; ``apply`` returns the rewritten expression (the
input expression object is never mutated).  :func:`apply_at` rewrites
one node addressed by path, and :func:`equivalent_forms` enumerates the
one-step rewrite neighbourhood.

A note on the project/SS commute guard: the paper allows commuting
π and ψ outright when the tuple identifier is retained by the
projection (its formulation ``attr' = attr ∪ attr''`` with
``attr'' = tid``).  In this engine ``DataTuple.project`` always
preserves ``sid``/``tid`` (they are tuple metadata, not attributes),
so the guard is only violated by *attribute-granularity* policies
whose attribute patterns the projection could prune differently
before vs. after the shield; :class:`CommuteProjectShield` therefore
carries an ``attribute_policies_possible`` flag in the context.  All
guard flags are three-valued and default to *unknown*, which fails
closed: a precondition that cannot be proven absent
(:func:`hazard_absent`) refuses the rewrite.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.algebra.expressions import (DupElimExpr, GroupByExpr,
                                       JoinExpr, LogicalExpr, ProjectExpr,
                                       ScanExpr, SelectExpr, ShieldExpr,
                                       UnionExpr, walk)
from repro.operators.conditions import And, FuncCondition, Not, Or
from repro.operators.udfs import registered_udfs

__all__ = [
    "Proof",
    "RewriteContext",
    "Rule",
    "SplitShield",
    "MergeShields",
    "CommuteShields",
    "CommuteSelectShield",
    "CommuteProjectShield",
    "CommuteDupElimShield",
    "CommuteGroupByShield",
    "PushShieldIntoBinary",
    "PullShieldOutOfBinary",
    "CommuteJoinInputs",
    "AssociateJoin",
    "SplitSelect",
    "MergeSelects",
    "PushSelectIntoJoin",
    "ALL_RULES",
    "apply_at",
    "condition_udfs",
    "condition_verified",
    "equivalent_forms",
    "hazard_absent",
    "verify_declaration",
]

_BINARY = (JoinExpr, UnionExpr)


def hazard_absent(flag: "bool | None") -> bool:
    """Fail-closed guard: only a hazard *proven* absent (``False``)
    admits a rewrite; ``True`` (present) and ``None`` (unknown)
    refuse it."""
    return flag is False


class Proof(enum.Enum):
    """Outcome of trying to prove a property of a condition."""

    #: The property holds.
    PROVEN = "proven"
    #: The property provably fails.
    REFUTED = "refuted"
    #: Nothing is known; fail closed.
    UNKNOWN = "unknown"


def condition_udfs(cond) -> "list[FuncCondition]":
    """Every ``FuncCondition`` leaf reachable in a condition tree."""
    if isinstance(cond, (And, Or)):
        return [udf for part in cond.parts for udf in condition_udfs(part)]
    if isinstance(cond, Not):
        return condition_udfs(cond.inner)
    return [cond] if isinstance(cond, FuncCondition) else []


def verify_declaration(cond: FuncCondition) -> Proof:
    """Prove a ``FuncCondition``'s declared attribute set covers its
    read-set.

    Only a registered UDF (:mod:`repro.operators.udfs`) has a known
    read-set: its registered declaration, for the same callable, pure
    and deterministic by the registry's contract.  PROVEN when the
    condition declares at least that, REFUTED when it declares less;
    any other callable is UNKNOWN.
    """
    for entry in registered_udfs().values():
        if entry.fn is cond.fn:
            return (Proof.PROVEN if entry.attributes <= cond.attributes()
                    else Proof.REFUTED)
    return Proof.UNKNOWN


def condition_verified(cond) -> Proof:
    """The proof the select rules consult before moving a condition.

    PROVEN when every UDF leaf is a registered UDF whose declaration
    covers its registered read-set (:func:`verify_declaration`) —
    algebraic leaves (``Comparison`` etc.) are trivially proven.
    Moving an unproven UDF across a Security Shield or a join changes
    which tuples its side effects observe, so UNKNOWN refuses the
    rewrite (fail closed), like the hazard flags of
    :class:`RewriteContext`.  REFUTED < UNKNOWN < PROVEN.
    """
    proof = Proof.PROVEN
    for udf in condition_udfs(cond):
        part = verify_declaration(udf)
        if part is Proof.REFUTED:
            return part
        if part is Proof.UNKNOWN:
            proof = part
    return proof


@dataclass
class RewriteContext:
    """Facts about the environment the rules may rely on.

    The three hazard flags are **three-valued**: ``False`` means the
    hazard is *proven absent* (the guarded rewrite is admitted),
    ``True`` means it is proven present, and ``None`` — the default —
    means nothing is known.  Guarded rules consult
    :func:`hazard_absent` and refuse the rewrite unless the hazard is
    proven absent: an unknown precondition fails closed instead of
    assuming safety.
    """

    #: Stream ids that carry security punctuations.  Rule 3's one-sided
    #: push is only valid when the other side streams no policies.
    policy_streams: frozenset[str] = frozenset()
    #: Whether attribute-granularity sps may occur (guards the π/ψ
    #: commute; see module docstring).  ``None`` = unknown (refuse).
    attribute_policies_possible: bool | None = None
    #: Whether segments with differing policies may occur at runtime.
    #: Guards the δ/ψ and G/ψ commutes: both operators keep *stateful*
    #: output policies (dup-elim suppression state, ASG partitions)
    #: built from every visible input tuple, so filtering before vs.
    #: after the operator changes which duplicates are suppressed and
    #: how subgroups merge whenever the stream interleaves disjoint
    #: policies.  With a single uniform policy the commute is exact.
    #: ``None`` = unknown (refuse).
    heterogeneous_policies_possible: bool | None = None
    #: Whether join windows carry real time-based semantics.  Guards
    #: Rule 5 (join associativity): re-association re-anchors window
    #: checks on different intermediate timestamps, so
    #: ``(T ⋈ E) ⋈ K`` and ``T ⋈ (E ⋈ K)`` can pair different tuples
    #: unless windows are effectively unbounded.  Pure-algebra
    #: exploration may opt in by proving the hazard absent (``False``);
    #: the executing engine sets ``True``.  ``None`` = unknown
    #: (refuse).
    strict_join_windows: bool | None = None
    #: Stream schemas (stream id → attribute names), used by the
    #: classical selection-pushdown rule to decide which join side
    #: produces a condition's attributes.  Empty = unknown (pushdown
    #: of plain selections stays disabled).
    schemas: dict = field(default_factory=dict)

    def streams_policies(self, expr: LogicalExpr) -> bool:
        """Whether any scan under ``expr`` carries sps."""
        return any(isinstance(node, ScanExpr)
                   and node.stream_id in self.policy_streams
                   for node in walk(expr))

    def attributes_of(self, expr: LogicalExpr) -> frozenset[str] | None:
        """Attributes produced by ``expr``, or ``None`` if unknown.

        Join outputs are excluded (clashing attributes get renamed at
        runtime), keeping the pushdown guard conservative.
        """
        if isinstance(expr, ScanExpr):
            attrs = self.schemas.get(expr.stream_id)
            return frozenset(attrs) if attrs is not None else None
        if isinstance(expr, ProjectExpr):
            return frozenset(expr.attributes)
        if isinstance(expr, (ShieldExpr, SelectExpr, DupElimExpr)):
            return self.attributes_of(expr.children()[0])
        return None


class Rule:
    """One equivalence rule: a guarded local rewrite."""

    name = "rule"

    def matches(self, expr: LogicalExpr, ctx: RewriteContext) -> bool:
        raise NotImplementedError

    def apply(self, expr: LogicalExpr, ctx: RewriteContext) -> LogicalExpr:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<Rule {self.name}>"


class SplitShield(Rule):
    """Rule 1 →: peel the first conjunct off a multi-conjunct shield."""

    name = "split-shield"

    def matches(self, expr: LogicalExpr, ctx: RewriteContext) -> bool:
        return isinstance(expr, ShieldExpr) and len(expr.predicates) > 1

    def apply(self, expr: LogicalExpr, ctx: RewriteContext) -> LogicalExpr:
        assert isinstance(expr, ShieldExpr)
        inner = ShieldExpr(expr.input, expr.predicates[1:])
        return ShieldExpr(inner, expr.predicates[:1])


class MergeShields(Rule):
    """Rule 1 ←: fuse directly stacked shields into one conjunction."""

    name = "merge-shields"

    def matches(self, expr: LogicalExpr, ctx: RewriteContext) -> bool:
        return (isinstance(expr, ShieldExpr)
                and isinstance(expr.input, ShieldExpr))

    def apply(self, expr: LogicalExpr, ctx: RewriteContext) -> LogicalExpr:
        assert isinstance(expr, ShieldExpr)
        inner = expr.input
        assert isinstance(inner, ShieldExpr)
        return ShieldExpr(inner.input, expr.predicates + inner.predicates)


class CommuteShields(Rule):
    """Rule 2: ψ_p1(ψ_p2(T)) ≡ ψ_p2(ψ_p1(T))."""

    name = "commute-shields"

    def matches(self, expr: LogicalExpr, ctx: RewriteContext) -> bool:
        return (isinstance(expr, ShieldExpr)
                and isinstance(expr.input, ShieldExpr))

    def apply(self, expr: LogicalExpr, ctx: RewriteContext) -> LogicalExpr:
        assert isinstance(expr, ShieldExpr)
        inner = expr.input
        assert isinstance(inner, ShieldExpr)
        return ShieldExpr(ShieldExpr(inner.input, expr.predicates),
                          inner.predicates)


class _CommuteUnaryShield(Rule):
    """Shared shape: ψ_p(Op(T)) ≡ Op(ψ_p(T)) both directions."""

    unary_type: type = SelectExpr

    def matches(self, expr: LogicalExpr, ctx: RewriteContext) -> bool:
        if isinstance(expr, ShieldExpr) and isinstance(expr.input,
                                                       self.unary_type):
            return True
        return (isinstance(expr, self.unary_type)
                and isinstance(expr.children()[0], ShieldExpr))

    def apply(self, expr: LogicalExpr, ctx: RewriteContext) -> LogicalExpr:
        if isinstance(expr, ShieldExpr):
            # ψ(Op(T)) → Op(ψ(T)): push the shield down.
            op = expr.input
            (inner,) = op.children()
            return op.with_children(ShieldExpr(inner, expr.predicates))
        # Op(ψ(T)) → ψ(Op(T)): pull the shield up.
        (shield,) = expr.children()
        assert isinstance(shield, ShieldExpr)
        return ShieldExpr(expr.with_children(shield.input),
                          shield.predicates)


class CommuteSelectShield(_CommuteUnaryShield):
    """Rule 2: σ_c(ψ_p(T)) ≡ ψ_p(σ_c(T)), guarded on UDF proofs.

    For algebraic conditions the commute is exact.  A ``FuncCondition``
    moves across the shield only when it is a proven registered UDF
    (:func:`condition_verified`): pushing σ below ψ
    makes the UDF observe tuples the shield would have dropped, which
    an impure or nondeterministic callable can tell apart, and an
    undeclared read voids every attribute-based argument.  UNKNOWN
    refuses fail-closed, exactly like the flag-guarded commutes.
    """

    name = "commute-select-shield"
    unary_type = SelectExpr

    def matches(self, expr: LogicalExpr, ctx: RewriteContext) -> bool:
        if not super().matches(expr, ctx):
            return False
        select = expr.input if isinstance(expr, ShieldExpr) else expr
        assert isinstance(select, SelectExpr)
        return condition_verified(select.condition) is Proof.PROVEN


class CommuteProjectShield(_CommuteUnaryShield):
    """Rule 2: π(ψ_p(T)) ≡ ψ_p(π(T)), guarded (see module docstring)."""

    name = "commute-project-shield"
    unary_type = ProjectExpr

    def matches(self, expr: LogicalExpr, ctx: RewriteContext) -> bool:
        if not hazard_absent(ctx.attribute_policies_possible):
            return False  # fail closed: unproven precondition
        return super().matches(expr, ctx)


class CommuteDupElimShield(_CommuteUnaryShield):
    """Rule 2: δ(ψ_p(T)) ≡ ψ_p(δ(T)), guarded.

    δ's suppression state depends on every visible input tuple, so the
    commute is only exact when segments cannot carry differing
    policies (see :class:`RewriteContext`).
    """

    name = "commute-dupelim-shield"
    unary_type = DupElimExpr

    def matches(self, expr: LogicalExpr, ctx: RewriteContext) -> bool:
        if not hazard_absent(ctx.heterogeneous_policies_possible):
            return False  # fail closed: unproven precondition
        return super().matches(expr, ctx)


class CommuteGroupByShield(_CommuteUnaryShield):
    """Rule 2: G(ψ_p(T)) ≡ ψ_p(G(T)), guarded.

    G's ASG partitions (and their union policies) depend on every
    visible input tuple, so the commute is only exact when segments
    cannot carry differing policies (see :class:`RewriteContext`).
    """

    name = "commute-groupby-shield"
    unary_type = GroupByExpr

    def matches(self, expr: LogicalExpr, ctx: RewriteContext) -> bool:
        if not hazard_absent(ctx.heterogeneous_policies_possible):
            return False  # fail closed: unproven precondition
        return super().matches(expr, ctx)


class PushShieldIntoBinary(Rule):
    """Rule 3: push ψ below a binary operator.

    One-sided when only one input subtree streams policies, two-sided
    when both do.
    """

    name = "push-shield-binary"

    def matches(self, expr: LogicalExpr, ctx: RewriteContext) -> bool:
        return (isinstance(expr, ShieldExpr)
                and isinstance(expr.input, _BINARY))

    def apply(self, expr: LogicalExpr, ctx: RewriteContext) -> LogicalExpr:
        assert isinstance(expr, ShieldExpr)
        binary = expr.input
        left, right = binary.children()
        left_sps = ctx.streams_policies(left)
        right_sps = ctx.streams_policies(right)
        if left_sps and right_sps:
            return binary.with_children(
                ShieldExpr(left, expr.predicates),
                ShieldExpr(right, expr.predicates),
            )
        if left_sps:
            return binary.with_children(
                ShieldExpr(left, expr.predicates), right)
        if right_sps:
            return binary.with_children(
                left, ShieldExpr(right, expr.predicates))
        # Neither side streams policies: denial-by-default means the
        # shield (and the whole subtree) produces nothing; pushing to
        # either side preserves that.
        return binary.with_children(
            ShieldExpr(left, expr.predicates), right)


class PullShieldOutOfBinary(Rule):
    """Rule 3 ←: hoist shield(s) above a binary operator."""

    name = "pull-shield-binary"

    def matches(self, expr: LogicalExpr, ctx: RewriteContext) -> bool:
        if not isinstance(expr, _BINARY):
            return False
        left, right = expr.children()
        if isinstance(left, ShieldExpr) and isinstance(right, ShieldExpr):
            return left.predicates == right.predicates
        if isinstance(left, ShieldExpr):
            return not ctx.streams_policies(right)
        if isinstance(right, ShieldExpr):
            return not ctx.streams_policies(left)
        return False

    def apply(self, expr: LogicalExpr, ctx: RewriteContext) -> LogicalExpr:
        left, right = expr.children()
        if isinstance(left, ShieldExpr) and isinstance(right, ShieldExpr):
            return ShieldExpr(
                expr.with_children(left.input, right.input),
                left.predicates,
            )
        if isinstance(left, ShieldExpr):
            return ShieldExpr(expr.with_children(left.input, right),
                              left.predicates)
        assert isinstance(right, ShieldExpr)
        return ShieldExpr(expr.with_children(left, right.input),
                          right.predicates)


class CommuteJoinInputs(Rule):
    """Rule 4: swap the inputs of a join/union under a shield."""

    name = "commute-binary-inputs"

    def matches(self, expr: LogicalExpr, ctx: RewriteContext) -> bool:
        return isinstance(expr, _BINARY)

    def apply(self, expr: LogicalExpr, ctx: RewriteContext) -> LogicalExpr:
        left, right = expr.children()
        if isinstance(expr, JoinExpr):
            return JoinExpr(right, left, expr.right_on, expr.left_on,
                            expr.window, variant=expr.variant,
                            method=expr.method)
        return expr.with_children(right, left)


class AssociateJoin(Rule):
    """Rule 5: (T ⋈ E) ⋈ K ≡ T ⋈ (E ⋈ K) when join keys permit.

    Applicable when the outer join's left key is produced by the inner
    join's *left* input (so re-association keeps each key on its
    stream).  Window sizes carry over unchanged.
    """

    name = "associate-join"

    def matches(self, expr: LogicalExpr, ctx: RewriteContext) -> bool:
        if not hazard_absent(ctx.strict_join_windows):
            return False  # fail closed: unproven precondition
        return (isinstance(expr, JoinExpr)
                and isinstance(expr.left, JoinExpr))

    def apply(self, expr: LogicalExpr, ctx: RewriteContext) -> LogicalExpr:
        assert isinstance(expr, JoinExpr)
        inner = expr.left
        assert isinstance(inner, JoinExpr)
        new_inner = JoinExpr(inner.right, expr.right, expr.left_on,
                             expr.right_on, expr.window,
                             variant=expr.variant, method=expr.method)
        return JoinExpr(inner.left, new_inner, inner.left_on,
                        inner.right_on, inner.window,
                        variant=inner.variant, method=inner.method)


class SplitSelect(Rule):
    """Classical rule: σ_{c1 ∧ c2}(T) ≡ σ_c1(σ_c2(T)).

    Splitting (and merging) reorders conjunct evaluation and changes
    short-circuit call counts, so any UDF conjunct must be a proven
    registered UDF before the rule applies.
    """

    name = "split-select"

    def matches(self, expr: LogicalExpr, ctx: RewriteContext) -> bool:
        return (isinstance(expr, SelectExpr)
                and len(expr.condition.conjuncts()) > 1
                and condition_verified(expr.condition) is Proof.PROVEN)

    def apply(self, expr: LogicalExpr, ctx: RewriteContext) -> LogicalExpr:
        assert isinstance(expr, SelectExpr)
        first, *rest = expr.condition.conjuncts()
        inner_condition = rest[0] if len(rest) == 1 else And(rest)
        return SelectExpr(SelectExpr(expr.input, inner_condition), first)


class MergeSelects(Rule):
    """Classical rule (reverse): σ_c1(σ_c2(T)) ≡ σ_{c1 ∧ c2}(T)."""

    name = "merge-selects"

    def matches(self, expr: LogicalExpr, ctx: RewriteContext) -> bool:
        return (isinstance(expr, SelectExpr)
                and isinstance(expr.input, SelectExpr)
                and condition_verified(expr.condition) is Proof.PROVEN
                and condition_verified(
                    expr.input.condition) is Proof.PROVEN)

    def apply(self, expr: LogicalExpr, ctx: RewriteContext) -> LogicalExpr:
        assert isinstance(expr, SelectExpr)
        inner = expr.input
        assert isinstance(inner, SelectExpr)
        return SelectExpr(inner.input,
                          And((expr.condition, inner.condition)))


class PushSelectIntoJoin(Rule):
    """Classical selection pushdown: σ_c(T ⋈ E) ≡ σ_c(T) ⋈ E when all
    attributes of ``c`` are produced by ``T`` and by ``T`` only.

    Requires schemas in the context — without them the rule stays
    inapplicable (conservative).
    """

    name = "push-select-join"

    def matches(self, expr: LogicalExpr, ctx: RewriteContext) -> bool:
        if not (isinstance(expr, SelectExpr)
                and isinstance(expr.input, JoinExpr)):
            return False
        return self._target_side(expr, ctx) is not None

    @staticmethod
    def _target_side(expr: "SelectExpr",
                     ctx: RewriteContext) -> int | None:
        join = expr.input
        if condition_verified(expr.condition) is not Proof.PROVEN:
            # The side decision trusts Condition.attributes(); a UDF's
            # declaration only counts for a registered UDF, whose
            # read-set it covers and whose callable is pure (pushdown
            # changes what the UDF observes).
            return None
        attrs = expr.condition.attributes()
        if not attrs:
            return None
        left_attrs = ctx.attributes_of(join.left)
        right_attrs = ctx.attributes_of(join.right)
        if left_attrs is None or right_attrs is None:
            return None
        if attrs <= left_attrs and not (attrs & right_attrs):
            return 0
        if attrs <= right_attrs and not (attrs & left_attrs):
            return 1
        return None

    def apply(self, expr: LogicalExpr, ctx: RewriteContext) -> LogicalExpr:
        assert isinstance(expr, SelectExpr)
        join = expr.input
        assert isinstance(join, JoinExpr)
        side = self._target_side(expr, ctx)
        left, right = join.children()
        if side == 0:
            return join.with_children(SelectExpr(left, expr.condition),
                                      right)
        return join.with_children(left,
                                  SelectExpr(right, expr.condition))


ALL_RULES: tuple[Rule, ...] = (
    SplitShield(),
    MergeShields(),
    CommuteShields(),
    CommuteSelectShield(),
    CommuteProjectShield(),
    CommuteDupElimShield(),
    CommuteGroupByShield(),
    PushShieldIntoBinary(),
    PullShieldOutOfBinary(),
    CommuteJoinInputs(),
    AssociateJoin(),
    SplitSelect(),
    MergeSelects(),
    PushSelectIntoJoin(),
)


def apply_at(root: LogicalExpr, path: tuple[int, ...], rule: Rule,
             ctx: RewriteContext) -> LogicalExpr:
    """Apply ``rule`` at the node addressed by ``path`` (child indexes)."""
    if not path:
        if not rule.matches(root, ctx):
            raise ValueError(f"{rule.name} does not match {root!r}")
        return rule.apply(root, ctx)
    children = list(root.children())
    index = path[0]
    if not 0 <= index < len(children):
        raise ValueError(f"invalid path {path} at {root!r}")
    children[index] = apply_at(children[index], path[1:], rule, ctx)
    return root.with_children(*children)


def equivalent_forms(root: LogicalExpr,
                     ctx: RewriteContext) -> list[LogicalExpr]:
    """All single-rule-application rewrites of ``root`` (deduplicated)."""
    results: list[LogicalExpr] = []
    seen: set[LogicalExpr] = {root}

    def visit(expr: LogicalExpr, path: tuple[int, ...]) -> None:
        for rule in ALL_RULES:
            if rule.matches(expr, ctx):
                rewritten = apply_at(root, path, rule, ctx)
                if rewritten not in seen:
                    seen.add(rewritten)
                    results.append(rewritten)
        for index, child in enumerate(expr.children()):
            visit(child, path + (index,))

    visit(root, ())
    return results
