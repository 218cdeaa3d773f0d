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

Two policy layers are provided:

:class:`AccessPolicy` (with :class:`Policy`, :class:`PolicyIntersection`,
:class:`PolicyUnion`)
    Object-scoped policies: given a concrete object (stream id, tuple
    id, optional attribute), they answer "which roles may access it".
    Denial-by-default: an object no positive sp covers is accessible to
    no one.

:class:`TuplePolicy`
    The *resolved* policy of a concrete tuple — just a role set plus
    the policy timestamp.  This is what sp-aware operators store in
    their windows and intersect during joins / duplicate elimination
    (Table I), and it is independent of patterns, so the hot path never
    re-evaluates regular expressions.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.core.bitmap import AbstractRoleSet, RoleSet
from repro.core.patterns import ANY, Pattern, literal
from repro.core.punctuation import SecurityPunctuation, Sign
from repro.errors import PolicyError

__all__ = [
    "AccessPolicy",
    "Policy",
    "PolicyIntersection",
    "PolicyUnion",
    "TuplePolicy",
    "apply_incremental_batch",
    "deny_all_sp",
    "has_attribute_scope",
    "override",
    "policy_from_sps",
    "policy_is_uniform",
    "resolve_tuple_policy",
    "wildcard_policy_roles",
    "EMPTY_POLICY",
]


class AccessPolicy:
    """Object-scoped access policy interface."""

    __slots__ = ()

    @property
    def ts(self) -> float:
        """When the policy went into effect."""
        raise NotImplementedError

    @property
    def immutable(self) -> bool:
        """Whether server policies may refine this policy."""
        raise NotImplementedError

    def authorized_roles(self, stream_id: object, tuple_id: object = None,
                         attribute: object = None) -> frozenset[str]:
        """Roles allowed to access the given object (denial-by-default)."""
        raise NotImplementedError

    def allows(self, role: str, stream_id: object, tuple_id: object = None,
               attribute: object = None) -> bool:
        """Whether ``role`` may access the given object."""
        return role in self.authorized_roles(stream_id, tuple_id, attribute)

    def intersect(self, other: "AccessPolicy") -> "AccessPolicy":
        """Policy allowing access only where both policies allow it."""
        return PolicyIntersection((self, other))

    def union(self, other: "AccessPolicy") -> "AccessPolicy":
        """Policy allowing access where either policy allows it."""
        return PolicyUnion((self, other))

    def resolve_for_tuple(self, stream_id: object,
                          tuple_id: object = None,
                          attribute: object = None) -> "TuplePolicy":
        """Resolve to the concrete :class:`TuplePolicy` of one object."""
        return TuplePolicy(
            RoleSet(self.authorized_roles(stream_id, tuple_id, attribute)),
            ts=self.ts,
        )

    def resolve_for_attributes(self, stream_id: object, tuple_id: object,
                               attributes) -> "TuplePolicy":
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
        return TuplePolicy(RoleSet(roles or frozenset()), ts=self.ts)


class Policy(AccessPolicy):
    """A leaf policy: the interpretation of one sp-batch.

    The batch's positive sps grant roles on the objects their DDPs
    describe; negative sps subtract roles from objects they describe.
    """

    __slots__ = ("_sps", "_ts", "_immutable")

    def __init__(self, sps: Sequence[SecurityPunctuation]):
        sps = tuple(sps)
        if not sps:
            raise PolicyError("a policy requires at least one sp")
        ts = sps[0].ts
        if any(sp.ts != ts for sp in sps):
            raise PolicyError(
                "all sps of one policy must share a timestamp; "
                "use override() for sps with different timestamps"
            )
        self._sps = sps
        self._ts = ts
        self._immutable = any(sp.immutable for sp in sps)

    @classmethod
    def from_sp(cls, sp: SecurityPunctuation) -> "Policy":
        return cls((sp,))

    @classmethod
    def granting(cls, roles: Iterable[str] | str, ts: float,
                 **ddp_kwargs) -> "Policy":
        """Convenience: one positive sp for ``roles``."""
        return cls((SecurityPunctuation.grant(roles, ts, **ddp_kwargs),))

    @property
    def sps(self) -> tuple[SecurityPunctuation, ...]:
        return self._sps

    @property
    def ts(self) -> float:
        return self._ts

    @property
    def immutable(self) -> bool:
        return self._immutable

    def matching_sps(self, stream_id: object, tuple_id: object = None,
                     attribute: object = None) -> list[SecurityPunctuation]:
        """``match()``: the sps whose DDP covers the given object."""
        return [sp for sp in self._sps
                if sp.describes(stream_id, tuple_id, attribute)]

    def authorized_roles(self, stream_id: object, tuple_id: object = None,
                         attribute: object = None) -> frozenset[str]:
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

    def union(self, other: AccessPolicy) -> AccessPolicy:
        # Same-timestamp leaf policies merge into a single sp-batch,
        # which is exactly the paper's union() for same-provider sps.
        if isinstance(other, Policy) and other.ts == self.ts:
            return Policy(self._sps + other.sps)
        return PolicyUnion((self, other))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Policy):
            return NotImplemented
        return self._sps == other._sps

    def __hash__(self) -> int:
        return hash(self._sps)

    def __repr__(self) -> str:
        return f"Policy(ts={self._ts}, sps={len(self._sps)})"


class _CompositePolicy(AccessPolicy):
    """Shared structure of intersection/union policy combinators."""

    __slots__ = ("_parts",)

    def __init__(self, parts: Sequence[AccessPolicy]):
        flat: list[AccessPolicy] = []
        for part in parts:
            if type(part) is type(self):
                flat.extend(part._parts)  # type: ignore[attr-defined]
            else:
                flat.append(part)
        if not flat:
            raise PolicyError("composite policy requires at least one part")
        self._parts = tuple(flat)

    @property
    def parts(self) -> tuple[AccessPolicy, ...]:
        return self._parts

    @property
    def ts(self) -> float:
        return max(part.ts for part in self._parts)

    @property
    def immutable(self) -> bool:
        return any(part.immutable for part in self._parts)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._parts == other._parts  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash((type(self).__name__, self._parts))


class PolicyIntersection(_CompositePolicy):
    """``intersect()``: access allowed only where every part allows it.

    Used to combine data-provider policies with server-specified
    policies — the server can only *reduce* access.
    """

    __slots__ = ()

    def authorized_roles(self, stream_id: object, tuple_id: object = None,
                         attribute: object = None) -> frozenset[str]:
        roles = self._parts[0].authorized_roles(stream_id, tuple_id, attribute)
        for part in self._parts[1:]:
            if not roles:
                break
            roles &= part.authorized_roles(stream_id, tuple_id, attribute)
        return frozenset(roles)

    def __repr__(self) -> str:
        return f"PolicyIntersection({len(self._parts)} parts, ts={self.ts})"


class PolicyUnion(_CompositePolicy):
    """``union()``: access allowed where any part allows it."""

    __slots__ = ()

    def authorized_roles(self, stream_id: object, tuple_id: object = None,
                         attribute: object = None) -> frozenset[str]:
        roles: frozenset[str] = frozenset()
        for part in self._parts:
            roles |= part.authorized_roles(stream_id, tuple_id, attribute)
        return roles

    def __repr__(self) -> str:
        return f"PolicyUnion({len(self._parts)} parts, ts={self.ts})"


def wildcard_policy_roles(policy: AccessPolicy | None) -> frozenset[str] | None:
    """Effective roles of a fully wildcard-scoped leaf policy.

    Returns ``None`` when the policy is absent in that simple form
    (composite, or any sp scoped below stream-wildcard granularity) —
    callers needing incremental-sp semantics use this to detect the
    supported base case.
    """
    if policy is None:
        return frozenset()
    if not isinstance(policy, Policy):
        return None
    for sp in policy.sps:
        ddp = sp.ddp
        if not (ddp.stream.is_wildcard() and ddp.tuple_id.is_wildcard()
                and ddp.attribute.is_wildcard()):
            return None
    return policy.authorized_roles("*")


def apply_incremental_batch(
    current_roles: frozenset[str],
    batch: Sequence[SecurityPunctuation],
) -> list[SecurityPunctuation]:
    """Apply an incremental sp-batch to the roles currently in force.

    Paper future work ("incremental access control policies"): the
    batch *edits* the policy — positive sps add their roles, negative
    sps retract theirs, applied in order.  The result is a normalized
    full replacement batch (one grant sp, or a wildcard deny when
    nobody is left), so downstream consumers never need to know the
    policy arrived as a delta.

    Incremental sps are supported for segment-scoped policies
    (wildcard DDPs) — the granularity of the paper's experiments;
    finer-scoped deltas raise :class:`PolicyError`.
    """
    if not batch:
        raise PolicyError("empty incremental batch")
    roles = set(current_roles)
    ts = batch[0].ts
    provider = batch[0].provider
    for sp in batch:
        ddp = sp.ddp
        if not (ddp.stream.is_wildcard() and ddp.tuple_id.is_wildcard()
                and ddp.attribute.is_wildcard()):
            raise PolicyError(
                "incremental sps require wildcard DDPs "
                "(segment-scoped policies)")
        if sp.is_positive:
            roles |= sp.roles()
        else:
            roles -= sp.roles()
    if roles:
        return [SecurityPunctuation.grant(sorted(roles), ts,
                                          provider=provider)]
    return [deny_all_sp(ts)]


def deny_all_sp(ts: float) -> SecurityPunctuation:
    """The explicit "grant nobody" policy marker (wildcard denial)."""
    from repro.core.patterns import ANY
    from repro.core.punctuation import (DataDescription,
                                        SecurityRestriction)

    return SecurityPunctuation(
        ddp=DataDescription(),
        srp=SecurityRestriction(roles=ANY),
        sign=Sign.NEGATIVE,
        ts=ts,
    )


def has_attribute_scope(policy: AccessPolicy | None) -> bool:
    """Whether any sp of ``policy`` is attribute-granular."""
    if policy is None:
        return False
    if isinstance(policy, Policy):
        return any(not sp.ddp.attribute.is_wildcard() for sp in policy.sps)
    parts = getattr(policy, "parts", None)
    if parts is not None:
        return any(has_attribute_scope(part) for part in parts)
    return True  # unknown policy type: be conservative


def policy_is_uniform(policy: AccessPolicy | None) -> bool:
    """Whether ``policy`` resolves identically for every tuple of a stream.

    True when every sp of the (leaf) policy has wildcard tuple-id and
    attribute patterns, so the authorized role set cannot depend on
    which tuple is asked about.  Composite policies are uniform when
    all their parts are.
    """
    if policy is None:
        return True
    if isinstance(policy, Policy):
        return all(
            sp.ddp.tuple_id.is_wildcard() and sp.ddp.attribute.is_wildcard()
            for sp in policy.sps
        )
    parts = getattr(policy, "parts", None)
    if parts is not None:
        return all(policy_is_uniform(part) for part in parts)
    return False


def resolve_tuple_policy(policy: AccessPolicy, item) -> TuplePolicy:
    """Resolve the policy of one data tuple, attribute-scope aware."""
    if has_attribute_scope(policy):
        return policy.resolve_for_attributes(item.sid, item.tid,
                                             item.values.keys())
    return policy.resolve_for_tuple(item.sid, item.tid)


def override(old: AccessPolicy | None, new: AccessPolicy) -> AccessPolicy:
    """``override()``: the policy with the more recent timestamp wins.

    Both policies are assumed applicable to the same objects (the
    caller — typically an operator's policy state — guarantees this).
    Ties go to the *new* policy, matching the paper's rule that a policy
    with timestamp ``tsj`` overrides an earlier one with ``tsi < tsj``
    and the streaming convention that later-arriving metadata refreshes
    equal-timestamp state.
    """
    if old is None or new.ts >= old.ts:
        return new
    return old


class TuplePolicy:
    """The resolved access policy of one concrete tuple: a role set.

    Table I's operator semantics (``Pt ∩ p ≠ ∅`` and friends) work on
    this type.  It supports either plain-set or bitmap role encodings
    via :class:`~repro.core.bitmap.AbstractRoleSet`.
    """

    __slots__ = ("_roles", "_ts")

    def __init__(self, roles: AbstractRoleSet | Iterable[str], ts: float = 0.0):
        if not isinstance(roles, AbstractRoleSet):
            roles = RoleSet(roles)
        self._roles = roles
        self._ts = ts

    @property
    def roles(self) -> AbstractRoleSet:
        return self._roles

    @property
    def ts(self) -> float:
        return self._ts

    def is_empty(self) -> bool:
        """A tuple with an empty policy is accessible to no one."""
        return self._roles.is_empty()

    def permits_any(self, predicate: AbstractRoleSet) -> bool:
        """The SS check: ``Pt ∩ p ≠ ∅``."""
        return self._roles.intersects(predicate)

    def intersect(self, other: "TuplePolicy") -> "TuplePolicy":
        """Join semantics: intersection of base-tuple policies."""
        return TuplePolicy(self._roles.intersect(other._roles),
                           ts=max(self._ts, other._ts))

    def union(self, other: "TuplePolicy") -> "TuplePolicy":
        return TuplePolicy(self._roles.union(other._roles),
                           ts=max(self._ts, other._ts))

    def difference(self, other: "TuplePolicy") -> "TuplePolicy":
        """Duplicate-elimination case 3: ``Pnew − (Pold ∩ Pnew)``."""
        return TuplePolicy(self._roles.difference(other._roles), ts=self._ts)

    def to_sp(self, ts: float | None = None, *, stream: Pattern = ANY,
              tuple_id: Pattern = ANY,
              attribute: Pattern = ANY) -> SecurityPunctuation:
        """Materialize this policy as a positive sp for propagation."""
        if self.is_empty():
            raise PolicyError("cannot materialize an empty policy as an sp")
        return SecurityPunctuation.grant(
            sorted(self._roles.names()),
            self._ts if ts is None else ts,
            stream=stream, tuple_id=tuple_id, attribute=attribute,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TuplePolicy):
            return NotImplemented
        return self._roles == other._roles

    def __hash__(self) -> int:
        return hash(self._roles)

    def __repr__(self) -> str:
        return f"TuplePolicy({sorted(self._roles.names())}, ts={self._ts})"


#: The denial-by-default policy: no roles authorized for anything.
EMPTY_POLICY = TuplePolicy(RoleSet(), ts=float("-inf"))


def policy_from_sps(
    sps: Sequence[SecurityPunctuation],
) -> AccessPolicy:
    """Build a policy from a heterogeneous sequence of sps.

    Sps sharing provider *and* timestamp are union-ed (one sp-batch per
    policy); across different timestamps from the same provider the
    newest wins (override); distinct providers' policies are
    intersected, as are server-specified sps — unless a provider sp is
    immutable, in which case server sps are ignored for that policy.
    This mirrors the SP Analyzer's combination pipeline and is exposed
    for direct library use.
    """
    if not sps:
        raise PolicyError("policy_from_sps requires at least one sp")
    by_provider: dict[str | None, list[SecurityPunctuation]] = {}
    for sp in sps:
        by_provider.setdefault(sp.provider, []).append(sp)

    provider_policies: list[AccessPolicy] = []
    server_policy: AccessPolicy | None = None
    immutable_seen = False
    for provider, group in by_provider.items():
        newest_ts = max(sp.ts for sp in group)
        newest = [sp for sp in group if sp.ts == newest_ts]
        policy = Policy(newest)
        if provider is None:
            server_policy = policy
        else:
            provider_policies.append(policy)
            immutable_seen = immutable_seen or policy.immutable

    if not provider_policies:
        if server_policy is None:
            raise PolicyError("no applicable sps")
        return server_policy

    combined: AccessPolicy = provider_policies[0]
    for policy in provider_policies[1:]:
        combined = combined.intersect(policy)
    if server_policy is not None and not immutable_seen:
        combined = combined.intersect(server_policy)
    return combined
