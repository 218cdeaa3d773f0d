"""Named UDF registry for spec-based plans.

Plan specs (``examples/plans/*.json``, the verify harness) are pure
data, but selections sometimes need predicates the
``{"attribute", "op", "value"}`` comparison form cannot express.  The
registry gives those a *named* escape hatch:

.. code-block:: json

    {"op": "select", "condition": {"udf": "in_region"},
     "input": {"op": "scan", "stream": "cars"}}

Each :class:`RegisteredUdf` pairs a callable with its declared
attribute read-set; :func:`named_udf` materializes it as a
:class:`~repro.operators.conditions.FuncCondition` carrying that
read-set.  The reference oracle evaluates the *same* registered
callable — by construction the callable is the semantics, so
registered UDFs must stay pure and deterministic or the differential
harness will flag them.

The built-ins below read only their declared attributes (``.get``
reads, ``None`` guards, arithmetic and constant comparisons) and keep
no state: the Table II proofs (``tests/algebra/table2.py``) take a
registered UDF's declaration as its read-set, so they double as
end-to-end fixtures proving that a declared-correct pure UDF filters
whole runs and commutes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

from repro.errors import PlanError
from repro.operators.conditions import FuncCondition
from repro.stream.tuples import DataTuple

__all__ = [
    "RegisteredUdf",
    "call_udf",
    "named_udf",
    "register_udf",
    "registered_udfs",
    "udf_entry",
]


@dataclass(frozen=True)
class RegisteredUdf:
    """One named UDF: the callable plus its declared read-set."""

    name: str
    fn: Callable[[DataTuple], bool]
    attributes: frozenset[str]

    def condition(self) -> FuncCondition:
        return FuncCondition(self.fn, self.attributes, label=self.name)


_REGISTRY: "dict[str, RegisteredUdf]" = {}


def register_udf(name: str, fn: Callable[[DataTuple], bool],
                 attributes: "tuple[str, ...] | frozenset[str]"
                 ) -> RegisteredUdf:
    """Register ``name`` (idempotent for the identical callable)."""
    existing = _REGISTRY.get(name)
    if existing is not None and existing.fn is not fn:
        raise PlanError(f"UDF {name!r} is already registered with a "
                        "different callable")
    entry = RegisteredUdf(name, fn, frozenset(attributes))
    _REGISTRY[name] = entry
    return entry


def udf_entry(name: str) -> RegisteredUdf:
    """The registry entry for ``name`` (:class:`PlanError` if absent)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise PlanError(
            f"unknown UDF {name!r}; registered: "
            f"{sorted(_REGISTRY)}") from None


def named_udf(name: str) -> FuncCondition:
    """The registered UDF as a ``FuncCondition``."""
    return udf_entry(name).condition()


def call_udf(name: str, item: DataTuple) -> bool:
    """Evaluate the registered callable directly (the oracle's path)."""
    return bool(udf_entry(name).fn(item))


def registered_udfs() -> "Mapping[str, RegisteredUdf]":
    """A snapshot of every registered UDF, keyed by name."""
    return dict(_REGISTRY)


# -- built-ins ----------------------------------------------------------------

def _in_region(item: DataTuple) -> bool:
    """Inside the 350-unit disc centred on (500, 500)."""
    x = item.get("x")
    y = item.get("y")
    if x is None or y is None:
        return False
    dx = x - 500.0
    dy = y - 500.0
    return dx * dx + dy * dy <= 122500.0


def _fast_mover(item: DataTuple) -> bool:
    """Vehicle speed above 60 (traffic-feed workloads)."""
    speed = item.get("speed")
    return speed is not None and speed > 60.0


def _bpm_critical(item: DataTuple) -> bool:
    """Heart-rate monitor trip-wire (health-feed workloads)."""
    bpm = item.get("beats_per_min")
    return bpm is not None and bpm > 140.0


register_udf("in_region", _in_region, ("x", "y"))
register_udf("fast_mover", _fast_mover, ("speed",))
register_udf("bpm_critical", _bpm_critical, ("beats_per_min",))
