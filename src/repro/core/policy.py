"""Access-control policies derived from security punctuations.

Section III.E of the paper defines four operations for manipulating sps
on the server — ``match()``, ``union()``, ``intersect()`` and
``override()`` — and three design choices for preserving correct
security semantics:

* ``union()`` when multiple sps arrive from the *same data provider
  with the same timestamp* (they are one policy, an sp-batch);
* ``intersect()`` when combining data-provider sps with
  *server-specified* sps (the server may refine but never widen
  access);
* ``override()`` when sps arrive from the same provider with *different
  timestamps* (the newer policy replaces the older one for the same
  objects).

The rules are written once.  The SP Analyzer
(:class:`~repro.core.analyzer.SPAnalyzer`) intersects provider sps with
server sps, sparing immutable ones; the
:class:`~repro.operators.base.PolicyTracker` groups an input's
consecutive same-timestamp sps into one sp-batch (whichever providers
sent them), lets a newer batch override and discards a stale one.  This
module holds the two values the tracker produces:

:class:`Policy`
    The leaf interpretation of one sp-batch: given a concrete object
    (stream id, tuple id, optional attribute), it answers "which roles
    may access it" (``match()`` is :meth:`SecurityPunctuation.describes
    <repro.core.punctuation.SecurityPunctuation.describes>`).
    Denial-by-default: an object no positive sp covers is accessible to
    no one.  The tracker builds one per batch — unless the batch is a
    lone plain grant, whose sp resolves itself — and caches its answers
    at the batch's scope.

:class:`TuplePolicy`
    The *resolved* policy of a concrete tuple — a frozenset of role
    names plus the policy timestamp.  This is what sp-aware operators
    store in their windows and intersect during joins / duplicate
    elimination (Table I), and it is independent of patterns, so the
    hot path never re-evaluates regular expressions.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence

from repro.errors import PolicyError

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.core.punctuation import SecurityPunctuation

__all__ = [
    "Policy",
    "TuplePolicy",
    "wildcard_policy_roles",
    "EMPTY_POLICY",
]


class Policy:
    """A leaf policy: the interpretation of one sp-batch.

    The batch's positive sps grant roles on the objects their DDPs
    describe; negative sps subtract roles from objects they describe.
    """

    __slots__ = ("_sps", "_ts")

    def __init__(self, sps: Sequence[SecurityPunctuation]):
        sps = tuple(sps)
        if not sps:
            raise PolicyError("a policy requires at least one sp")
        ts = sps[0].ts
        if any(sp.ts != ts for sp in sps):
            raise PolicyError(
                "all sps of one policy must share a timestamp; "
                "sps with different timestamps are separate sp-batches"
            )
        self._sps = sps
        self._ts = ts

    @property
    def sps(self) -> tuple[SecurityPunctuation, ...]:
        return self._sps

    @property
    def ts(self) -> float:
        """When the policy went into effect."""
        return self._ts

    def authorized_roles(self, stream_id: object, tuple_id: object = None,
                         attribute: object = None) -> frozenset[str]:
        """Roles allowed to access the given object (denial-by-default)."""
        granted: set[str] = set()
        for sp in self._sps:
            if sp.is_positive and sp.describes(stream_id, tuple_id, attribute):
                granted |= sp.roles()
        if not granted:
            return frozenset()
        for sp in self._sps:
            if not sp.is_positive and sp.describes(stream_id, tuple_id,
                                                   attribute):
                granted = {r for r in granted if not sp.srp.authorizes(r)}
        return frozenset(granted)

    def resolve_for_tuple(self, stream_id: object,
                          tuple_id: object = None,
                          attribute: object = None) -> "TuplePolicy":
        """Resolve to the concrete :class:`TuplePolicy` of one object."""
        return TuplePolicy(
            self.authorized_roles(stream_id, tuple_id, attribute),
            ts=self._ts)

    def resolve_for_attributes(self, stream_id: object, tuple_id: object,
                               attributes: Iterable[object]) -> "TuplePolicy":
        """Policy of a whole tuple under attribute-scoped sps.

        Emitting a tuple exposes *all* its attributes at once, so a
        role may access the tuple only if it is authorized for every
        attribute present: the resolved role set is the intersection
        over the tuple's attributes.  (Project an attribute away first
        if a query should see the rest — Table I's π semantics.)
        """
        roles: frozenset[str] | None = None
        for attribute in attributes:
            authorized = self.authorized_roles(stream_id, tuple_id,
                                               attribute)
            roles = authorized if roles is None else roles & authorized
            if not roles:
                break
        return TuplePolicy(roles or frozenset(), ts=self._ts)

    def __repr__(self) -> str:
        return f"Policy(ts={self._ts}, sps={len(self._sps)})"


def wildcard_policy_roles(policy: Policy | None) -> frozenset[str] | None:
    """Effective roles of a fully wildcard-scoped policy.

    Returns ``None`` when any sp is scoped below stream-wildcard
    granularity — callers needing incremental-sp semantics use this to
    detect the supported base case.
    """
    if policy is None:
        return frozenset()
    for sp in policy.sps:
        ddp = sp.ddp
        if not (ddp.stream.is_wildcard() and ddp.tuple_id.is_wildcard()
                and ddp.attribute.is_wildcard()):
            return None
    return policy.authorized_roles("*")


class TuplePolicy:
    """The resolved access policy of one concrete tuple: a role set.

    Table I's operator semantics (``Pt ∩ p ≠ ∅`` and friends) work on
    this type.  ``roles`` is a frozenset of role names; a policy is a
    value shared by every tracker and window that resolved it, so its
    fields are never assigned after construction.
    """

    __slots__ = ("roles", "ts")

    def __init__(self, roles: frozenset[str], ts: float = 0.0):
        self.roles = roles
        self.ts = ts

    def is_empty(self) -> bool:
        """A tuple with an empty policy is accessible to no one."""
        return not self.roles

    def permits_any(self, predicate: Iterable[str]) -> bool:
        """The SS check: ``Pt ∩ p ≠ ∅``."""
        return not self.roles.isdisjoint(predicate)

    def intersect(self, other: "TuplePolicy") -> "TuplePolicy":
        """Join semantics: intersection of base-tuple policies."""
        return TuplePolicy(self.roles & other.roles,
                           ts=max(self.ts, other.ts))

    def union(self, other: "TuplePolicy") -> "TuplePolicy":
        return TuplePolicy(self.roles | other.roles,
                           ts=max(self.ts, other.ts))

    def difference(self, other: "TuplePolicy") -> "TuplePolicy":
        """Duplicate-elimination case 3: ``Pnew − (Pold ∩ Pnew)``."""
        return TuplePolicy(self.roles - other.roles, ts=self.ts)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TuplePolicy):
            return NotImplemented
        return self.roles == other.roles

    def __hash__(self) -> int:
        return hash(self.roles)

    def __repr__(self) -> str:
        return f"TuplePolicy({sorted(self.roles)}, ts={self.ts})"


#: The denial-by-default policy: no roles authorized for anything.
EMPTY_POLICY = TuplePolicy(frozenset(), ts=float("-inf"))
