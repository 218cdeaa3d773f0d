"""The security-aware logical algebra (Table I).

Logical expressions form the tree the engine compiles into physical
operators, as registered; Table II's rewrites of it (Rules 1-5) are
proved to preserve deliveries in ``tests/algebra/table2.py``.  The
algebra is the classic windowed stream algebra — select σ, project π,
join ⋈, duplicate elimination δ, group-by G — extended with the
Security Shield ψ.

Expressions are immutable value objects: equality is structural, which
gives the engine common-subexpression sharing (shared subplans across
queries, Figure 5) for free, and lets the property tests assert that
rewritten plans are structurally different but semantically equal.
"""

from __future__ import annotations

from typing import Iterator

from repro.errors import PlanError
from repro.operators.conditions import Condition

__all__ = [
    "LogicalExpr",
    "ScanExpr",
    "ShieldExpr",
    "SelectExpr",
    "ProjectExpr",
    "JoinExpr",
    "DupElimExpr",
    "GroupByExpr",
    "UnionExpr",
    "walk",
]


class LogicalExpr:
    """Base class of logical plan expressions."""

    __slots__ = ()

    def children(self) -> tuple["LogicalExpr", ...]:
        raise NotImplementedError

    def with_children(self, *children: "LogicalExpr") -> "LogicalExpr":
        """Copy of this node with replaced children."""
        raise NotImplementedError

    def _key(self) -> tuple:
        """Structural identity (type + parameters + children keys)."""
        raise NotImplementedError

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LogicalExpr):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    # -- fluent construction helpers -----------------------------------
    def shield(self, roles) -> "ShieldExpr":
        return ShieldExpr(self, frozenset(roles))

    def select(self, condition: Condition) -> "SelectExpr":
        return SelectExpr(self, condition)

    def project(self, attributes) -> "ProjectExpr":
        return ProjectExpr(self, tuple(attributes))

    def join(self, other: "LogicalExpr", left_on: str, right_on: str,
             window: float, variant: str = "index") -> "JoinExpr":
        return JoinExpr(self, other, left_on, right_on, window,
                        variant=variant)

    def distinct(self, window: float, attributes=None) -> "DupElimExpr":
        return DupElimExpr(self, window,
                           tuple(attributes) if attributes else None)

    def group_by(self, key: str | None, agg: str, attribute: str,
                 window: float) -> "GroupByExpr":
        return GroupByExpr(self, key, agg, attribute, window)


class ScanExpr(LogicalExpr):
    """Leaf: read one registered input stream."""

    __slots__ = ("stream_id",)

    def __init__(self, stream_id: str):
        if not stream_id:
            raise PlanError("scan requires a stream id")
        self.stream_id = stream_id

    def children(self) -> tuple[LogicalExpr, ...]:
        return ()

    def with_children(self, *children: LogicalExpr) -> "ScanExpr":
        if children:
            raise PlanError("scan has no children")
        return self

    def _key(self) -> tuple:
        return ("scan", self.stream_id)

    def __repr__(self) -> str:
        return f"Scan({self.stream_id})"


class ShieldExpr(LogicalExpr):
    """ψ_{p1∧..∧pn} — the Security Shield.

    The security predicate is a *conjunction* of role sets: a tuple
    passes iff its policy intersects every conjunct.  A single conjunct
    is the common case (the roles of the query's specifier); splitting
    and merging conjuncts is Rule 1 of Table II.
    """

    __slots__ = ("input", "predicates")

    def __init__(self, input_expr: LogicalExpr,
                 predicates: frozenset[str] | tuple):
        self.input = input_expr
        if isinstance(predicates, (frozenset, set)):
            predicates = (frozenset(predicates),)
        normalized = tuple(sorted((frozenset(p) for p in predicates),
                                  key=lambda s: tuple(sorted(s))))
        if not normalized:
            raise PlanError("shield requires at least one predicate")
        self.predicates = normalized

    @property
    def roles(self) -> frozenset[str]:
        """All roles mentioned by any conjunct (the merged SS state)."""
        out: frozenset[str] = frozenset()
        for predicate in self.predicates:
            out |= predicate
        return out

    def children(self) -> tuple[LogicalExpr, ...]:
        return (self.input,)

    def with_children(self, *children: LogicalExpr) -> "ShieldExpr":
        (child,) = children
        return ShieldExpr(child, self.predicates)

    def _key(self) -> tuple:
        return ("shield",
                tuple(tuple(sorted(p)) for p in self.predicates),
                self.input._key())

    def __repr__(self) -> str:
        preds = "∧".join("{" + ",".join(sorted(p)) + "}"
                         for p in self.predicates)
        return f"ψ[{preds}]({self.input!r})"


class SelectExpr(LogicalExpr):
    """σ_c."""

    __slots__ = ("input", "condition")

    def __init__(self, input_expr: LogicalExpr, condition: Condition):
        self.input = input_expr
        self.condition = condition

    def children(self) -> tuple[LogicalExpr, ...]:
        return (self.input,)

    def with_children(self, *children: LogicalExpr) -> "SelectExpr":
        (child,) = children
        return SelectExpr(child, self.condition)

    def _key(self) -> tuple:
        return ("select", repr(self.condition), self.input._key())

    def __repr__(self) -> str:
        return f"σ[{self.condition!r}]({self.input!r})"


class ProjectExpr(LogicalExpr):
    """π_{a1..an}."""

    __slots__ = ("input", "attributes")

    def __init__(self, input_expr: LogicalExpr, attributes: tuple[str, ...]):
        if not attributes:
            raise PlanError("projection requires attributes")
        self.input = input_expr
        self.attributes = tuple(attributes)

    def children(self) -> tuple[LogicalExpr, ...]:
        return (self.input,)

    def with_children(self, *children: LogicalExpr) -> "ProjectExpr":
        (child,) = children
        return ProjectExpr(child, self.attributes)

    def _key(self) -> tuple:
        return ("project", self.attributes, self.input._key())

    def __repr__(self) -> str:
        return f"π[{','.join(self.attributes)}]({self.input!r})"


class JoinExpr(LogicalExpr):
    """⋈ over sliding windows; ``variant`` picks the physical algorithm."""

    __slots__ = ("left", "right", "left_on", "right_on", "window",
                 "variant", "method")

    def __init__(self, left: LogicalExpr, right: LogicalExpr, left_on: str,
                 right_on: str, window: float, *, variant: str = "index",
                 method: str = "PF"):
        if variant not in ("index", "nl"):
            raise PlanError(f"join variant must be 'index' or 'nl': {variant!r}")
        self.left = left
        self.right = right
        self.left_on = left_on
        self.right_on = right_on
        self.window = window
        self.variant = variant
        self.method = method

    def children(self) -> tuple[LogicalExpr, ...]:
        return (self.left, self.right)

    def with_children(self, *children: LogicalExpr) -> "JoinExpr":
        left, right = children
        return JoinExpr(left, right, self.left_on, self.right_on,
                        self.window, variant=self.variant,
                        method=self.method)

    def _key(self) -> tuple:
        return ("join", self.left_on, self.right_on, self.window,
                self.variant, self.method, self.left._key(),
                self.right._key())

    def __repr__(self) -> str:
        return (f"({self.left!r} ⋈[{self.left_on}={self.right_on},"
                f"W={self.window}] {self.right!r})")


class DupElimExpr(LogicalExpr):
    """δ over a sliding window."""

    __slots__ = ("input", "window", "attributes")

    def __init__(self, input_expr: LogicalExpr, window: float,
                 attributes: tuple[str, ...] | None = None):
        self.input = input_expr
        self.window = window
        self.attributes = attributes

    def children(self) -> tuple[LogicalExpr, ...]:
        return (self.input,)

    def with_children(self, *children: LogicalExpr) -> "DupElimExpr":
        (child,) = children
        return DupElimExpr(child, self.window, self.attributes)

    def _key(self) -> tuple:
        return ("distinct", self.window, self.attributes, self.input._key())

    def __repr__(self) -> str:
        return f"δ[W={self.window}]({self.input!r})"


class GroupByExpr(LogicalExpr):
    """G^agg_A over a sliding window."""

    __slots__ = ("input", "key", "agg", "attribute", "window")

    def __init__(self, input_expr: LogicalExpr, key: str | None, agg: str,
                 attribute: str, window: float):
        self.input = input_expr
        self.key = key
        self.agg = agg
        self.attribute = attribute
        self.window = window

    def children(self) -> tuple[LogicalExpr, ...]:
        return (self.input,)

    def with_children(self, *children: LogicalExpr) -> "GroupByExpr":
        (child,) = children
        return GroupByExpr(child, self.key, self.agg, self.attribute,
                           self.window)

    def _key(self) -> tuple:
        return ("groupby", self.key, self.agg, self.attribute, self.window,
                self.input._key())

    def __repr__(self) -> str:
        return (f"G[{self.key}; {self.agg}({self.attribute}); "
                f"W={self.window}]({self.input!r})")


class UnionExpr(LogicalExpr):
    """∪ (bag union, re-punctuated)."""

    __slots__ = ("left", "right")

    def __init__(self, left: LogicalExpr, right: LogicalExpr):
        self.left = left
        self.right = right

    def children(self) -> tuple[LogicalExpr, ...]:
        return (self.left, self.right)

    def with_children(self, *children: LogicalExpr) -> "UnionExpr":
        left, right = children
        return UnionExpr(left, right)

    def _key(self) -> tuple:
        return ("union", self.left._key(), self.right._key())

    def __repr__(self) -> str:
        return f"({self.left!r} ∪ {self.right!r})"


def walk(expr: LogicalExpr) -> Iterator[LogicalExpr]:
    """Pre-order traversal of an expression tree."""
    yield expr
    for child in expr.children():
        yield from walk(child)
