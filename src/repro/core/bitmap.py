"""Role universes and role-set encodings.

Security punctuations authorize *sets of roles*.  The paper notes
(Section I.C) that policies "can also be encoded in a bitmap format for
compactness".  This module provides both encodings behind one protocol:

* :class:`RoleSet` — a frozenset-backed role set (the alphanumeric
  format the paper uses for presentation).
* :class:`RoleBitmap` — an integer-bitmap role set over a
  :class:`RoleUniverse`, used by the bitmap ablation benchmarks.

A :class:`RoleUniverse` assigns each role a stable integer id.  The id
order is the role order the SPIndex skipping rule (Lemma 5.1) relies
on, so the universe is also the single source of truth for "role order"
throughout the system.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.errors import AccessControlError

__all__ = ["RoleUniverse", "AbstractRoleSet", "RoleSet", "RoleBitmap"]


class RoleUniverse:
    """Ordered registry of all roles known to the system.

    Roles are registered once and receive monotonically increasing
    integer ids.  The universe is shared by bitmaps (bit positions) and
    by the SPIndex r-node array (array slots).
    """

    def __init__(self, roles: Iterable[str] = ()):
        self._ids: dict[str, int] = {}
        self._names: list[str] = []
        for role in roles:
            self.register(role)

    def register(self, role: str) -> int:
        """Register ``role`` (idempotent) and return its id."""
        if not role:
            raise AccessControlError("role name must be non-empty")
        existing = self._ids.get(role)
        if existing is not None:
            return existing
        role_id = len(self._names)
        self._ids[role] = role_id
        self._names.append(role)
        return role_id

    def id_of(self, role: str) -> int:
        """Id of a registered role; raises if unknown."""
        try:
            return self._ids[role]
        except KeyError:
            raise AccessControlError(f"unknown role: {role!r}") from None

    def name_of(self, role_id: int) -> str:
        """Role name for an id; raises if out of range."""
        if 0 <= role_id < len(self._names):
            return self._names[role_id]
        raise AccessControlError(f"unknown role id: {role_id}")

    def __contains__(self, role: str) -> bool:
        return role in self._ids

    def __len__(self) -> int:
        return len(self._names)

    def __iter__(self) -> Iterator[str]:
        return iter(self._names)

    def roles(self) -> tuple[str, ...]:
        """All role names in id order."""
        return tuple(self._names)

    def sort_key(self, role: str) -> int:
        """Sorting key: registered id, registering on first sight.

        Sps may mention roles the server has not seen yet; they are
        registered lazily so that every role always has a stable order.
        """
        return self.register(role)


class AbstractRoleSet:
    """Protocol shared by :class:`RoleSet` and :class:`RoleBitmap`.

    All operations are non-mutating and return the same concrete type
    as ``self``.
    """

    __slots__ = ("_sorted_cache",)

    def names(self) -> frozenset[str]:
        raise NotImplementedError

    def names_sorted(self) -> list[str]:
        """Sorted role names, memoized per instance.

        Audit records render the governing policy as a
        sorted name list on every security verdict; role sets are
        immutable, so the render is computed once and shared (callers
        must not mutate the returned list).
        """
        cached = getattr(self, "_sorted_cache", None)
        if cached is None:
            cached = self._sorted_cache = sorted(self.names())
        return cached

    def intersect(self, other: "AbstractRoleSet") -> "AbstractRoleSet":
        raise NotImplementedError

    def union(self, other: "AbstractRoleSet") -> "AbstractRoleSet":
        raise NotImplementedError

    def difference(self, other: "AbstractRoleSet") -> "AbstractRoleSet":
        raise NotImplementedError

    def is_empty(self) -> bool:
        raise NotImplementedError

    def __contains__(self, role: str) -> bool:
        return role in self.names()

    def __len__(self) -> int:
        return len(self.names())

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self.names()))

    def __bool__(self) -> bool:
        return not self.is_empty()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AbstractRoleSet):
            return NotImplemented
        return self.names() == other.names()

    def __hash__(self) -> int:
        return hash(self.names())

    def intersects(self, other: "AbstractRoleSet") -> bool:
        """Fast non-empty-intersection test (the SS/join predicate)."""
        return not self.intersect(other).is_empty()


class RoleSet(AbstractRoleSet):
    """Frozenset-backed role set."""

    __slots__ = ("_roles",)

    def __init__(self, roles: Iterable[str] = ()):
        if isinstance(roles, str):
            roles = (roles,)
        self._roles = frozenset(roles)

    @classmethod
    def of(cls, *roles: str) -> "RoleSet":
        """Convenience constructor: ``RoleSet.of("D", "ND")``."""
        return cls(roles)

    def names(self) -> frozenset[str]:
        return self._roles

    def intersect(self, other: AbstractRoleSet) -> "RoleSet":
        return RoleSet(self._roles & other.names())

    def union(self, other: AbstractRoleSet) -> "RoleSet":
        return RoleSet(self._roles | other.names())

    def difference(self, other: AbstractRoleSet) -> "RoleSet":
        return RoleSet(self._roles - other.names())

    def is_empty(self) -> bool:
        return not self._roles

    def intersects(self, other: AbstractRoleSet) -> bool:
        if isinstance(other, RoleSet):
            return not self._roles.isdisjoint(other._roles)
        return not self._roles.isdisjoint(other.names())

    def __repr__(self) -> str:
        return f"RoleSet({{{', '.join(sorted(self._roles))}}})"


class RoleBitmap(AbstractRoleSet):
    """Integer-bitmap role set over a :class:`RoleUniverse`.

    Set operations are single integer bitwise operations, making the
    encoding attractive for large policies (cf. the paper's Eddies
    bitmap discussion).
    """

    __slots__ = ("_universe", "_mask")

    def __init__(self, universe: RoleUniverse, roles: Iterable[str] = (), *,
                 mask: int | None = None):
        self._universe = universe
        if mask is not None:
            self._mask = mask
        else:
            bits = 0
            for role in roles:
                bits |= 1 << universe.register(role)
            self._mask = bits

    @property
    def universe(self) -> RoleUniverse:
        return self._universe

    @property
    def mask(self) -> int:
        return self._mask

    def names(self) -> frozenset[str]:
        out = []
        mask = self._mask
        while mask:
            low = mask & -mask
            out.append(self._universe.name_of(low.bit_length() - 1))
            mask ^= low
        return frozenset(out)

    def _coerce_mask(self, other: AbstractRoleSet) -> int:
        if isinstance(other, RoleBitmap):
            if other._universe is not self._universe:
                raise AccessControlError(
                    "cannot combine bitmaps from different role universes"
                )
            return other._mask
        bits = 0
        for role in other.names():
            bits |= 1 << self._universe.register(role)
        return bits

    def intersect(self, other: AbstractRoleSet) -> "RoleBitmap":
        return RoleBitmap(self._universe, mask=self._mask & self._coerce_mask(other))

    def union(self, other: AbstractRoleSet) -> "RoleBitmap":
        return RoleBitmap(self._universe, mask=self._mask | self._coerce_mask(other))

    def difference(self, other: AbstractRoleSet) -> "RoleBitmap":
        return RoleBitmap(self._universe, mask=self._mask & ~self._coerce_mask(other))

    def is_empty(self) -> bool:
        return self._mask == 0

    def intersects(self, other: AbstractRoleSet) -> bool:
        return bool(self._mask & self._coerce_mask(other))

    def __len__(self) -> int:
        return self._mask.bit_count()

    def __contains__(self, role: str) -> bool:
        if role not in self._universe:
            return False
        return bool(self._mask & (1 << self._universe.id_of(role)))

    def __repr__(self) -> str:
        return f"RoleBitmap({{{', '.join(sorted(self.names()))}}})"
