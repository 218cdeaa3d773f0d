"""Selection and join conditions.

Conditions are introspectable predicate objects rather than bare
lambdas so a run can be filtered in one kernel, sibling comparisons
can share one selection-group hop, and the CQL layer can build them
from parsed expressions.  They are all callable on a
:class:`~repro.stream.tuples.DataTuple`.
"""

from __future__ import annotations

import operator
from typing import Callable, Iterable, Sequence

from repro.errors import PlanError
from repro.stream.tuples import DataTuple

__all__ = ["Condition", "Comparison", "And", "Or", "Not", "FuncCondition",
           "TrueCondition"]

_OPS: dict[str, Callable[[object, object], bool]] = {
    "=": operator.eq,
    "==": operator.eq,
    "!=": operator.ne,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


class Condition:
    """Abstract predicate over data tuples."""

    def __call__(self, item: DataTuple) -> bool:
        raise NotImplementedError

    def filter(self, tuples: Sequence[DataTuple]) -> list[DataTuple]:
        """The tuples of one run that satisfy the condition, in order.

        Always equal to ``[t for t in tuples if self(t)]``, the default:
        one call per tuple in run order, so a raising or side-effecting
        part aborts the run at the same tuple after the same calls.  An
        override returns a new list, leaves the run alone, and may
        evaluate another way (inline, a tuple twice) only if pure.
        """
        return [item for item in tuples if self(item)]

    def attributes(self) -> frozenset[str]:
        """Attributes the condition reads (for commuting with project)."""
        raise NotImplementedError

    def conjuncts(self) -> list["Condition"]:
        """Top-level AND factors (selection splitting)."""
        return [self]

    def __and__(self, other: "Condition") -> "Condition":
        return And((self, other))

    def __or__(self, other: "Condition") -> "Condition":
        return Or((self, other))

    def __invert__(self) -> "Condition":
        return Not(self)


class TrueCondition(Condition):
    """Always true (the WHERE-less query)."""

    def __call__(self, item: DataTuple) -> bool:
        return True

    def attributes(self) -> frozenset[str]:
        return frozenset()

    def __repr__(self) -> str:
        return "TRUE"


class Comparison(Condition):
    """``attribute <op> value`` or ``attribute <op> attribute2``."""

    def __init__(self, attribute: str, op: str, value: object, *,
                 rhs_attribute: bool = False) -> None:
        if op not in _OPS:
            raise PlanError(f"unknown comparison operator: {op!r}")
        self.attribute = attribute
        self.op = op
        self.value = value
        self.rhs_attribute = rhs_attribute
        self._fn = _OPS[op]

    def __call__(self, item: DataTuple) -> bool:
        values = item.values
        left = values.get(self.attribute)
        right = values.get(self.value) if self.rhs_attribute else self.value
        if left is None or right is None:
            return False
        try:
            return self._fn(left, right)
        except TypeError:
            return False

    def filter(self, tuples: Sequence[DataTuple]) -> list[DataTuple]:
        """Run kernel: one comprehension, no frame per tuple.  On a
        ``TypeError`` (incomparable values in the run) the run is redone
        through the pure ``__call__``: at most two compares per tuple."""
        attribute, fn, value = self.attribute, self._fn, self.value
        try:
            if self.rhs_attribute:
                return [item for item in tuples
                        if (left := item.values.get(attribute)) is not None
                        and (right := item.values.get(value)) is not None
                        and fn(left, right)]
            if value is None:
                return []
            return [item for item in tuples
                    if (left := item.values.get(attribute)) is not None
                    and fn(left, value)]
        except TypeError:
            return super().filter(tuples)

    def attributes(self) -> frozenset[str]:
        if self.rhs_attribute:
            return frozenset({self.attribute, str(self.value)})
        return frozenset({self.attribute})

    def __repr__(self) -> str:
        return f"({self.attribute} {self.op} {self.value!r})"


class And(Condition):
    def __init__(self, parts: Iterable[Condition]) -> None:
        flat: list[Condition] = []
        for part in parts:
            if isinstance(part, And):
                flat.extend(part.parts)
            else:
                flat.append(part)
        self.parts = tuple(flat)
        #: Every part pure by construction (exact types: a subclass may
        #: override ``__call__``): filter part by part, not tuple by tuple.
        self._pure = bool(flat) and all(
            type(part) in (Comparison, TrueCondition) for part in flat)

    def __call__(self, item: DataTuple) -> bool:
        return all(part(item) for part in self.parts)

    def filter(self, tuples: Sequence[DataTuple]) -> list[DataTuple]:
        if not self._pure:
            return super().filter(tuples)
        for part in self.parts:
            tuples = part.filter(tuples)
        return tuples

    def attributes(self) -> frozenset[str]:
        out: frozenset[str] = frozenset()
        for part in self.parts:
            out |= part.attributes()
        return out

    def conjuncts(self) -> list[Condition]:
        out: list[Condition] = []
        for part in self.parts:
            out.extend(part.conjuncts())
        return out

    def __repr__(self) -> str:
        return "(" + " AND ".join(map(repr, self.parts)) + ")"


class Or(Condition):
    def __init__(self, parts: Iterable[Condition]) -> None:
        self.parts = tuple(parts)

    def __call__(self, item: DataTuple) -> bool:
        return any(part(item) for part in self.parts)

    def attributes(self) -> frozenset[str]:
        out: frozenset[str] = frozenset()
        for part in self.parts:
            out |= part.attributes()
        return out

    def __repr__(self) -> str:
        return "(" + " OR ".join(map(repr, self.parts)) + ")"


class Not(Condition):
    def __init__(self, inner: Condition) -> None:
        self.inner = inner

    def __call__(self, item: DataTuple) -> bool:
        return not self.inner(item)

    def attributes(self) -> frozenset[str]:
        return self.inner.attributes()

    def __repr__(self) -> str:
        return f"(NOT {self.inner!r})"


class FuncCondition(Condition):
    """Escape hatch: wrap an arbitrary callable.

    ``attributes`` is the read-set the caller declares; nothing checks
    it against the callable.  A named UDF from
    :mod:`repro.operators.udfs` carries its registered read-set.
    """

    def __init__(self, fn: Callable[[DataTuple], bool],
                 attributes: Iterable[str] = (),
                 label: str = "fn") -> None:
        self._fn = fn
        self._attributes = frozenset(attributes)
        self.label = label

    @property
    def fn(self) -> Callable[[DataTuple], bool]:
        """The wrapped callable (read-only; identity matters to proofs)."""
        return self._fn

    def __call__(self, item: DataTuple) -> bool:
        return bool(self._fn(item))

    def attributes(self) -> frozenset[str]:
        return self._attributes

    def __repr__(self) -> str:
        return f"<{self.label}>"
