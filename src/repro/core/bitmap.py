"""Role universes and the bitmap role-set encoding.

Security punctuations authorize *sets of roles*.  On the engine path a
role set is a plain ``frozenset`` of role names (the alphanumeric
format the paper uses for presentation).  The paper notes (Section
I.C) that policies "can also be encoded in a bitmap format for
compactness": :class:`RoleBitmap` is that encoding over a
:class:`RoleUniverse`, read by the tuple-embedded baseline and the
bitmap ablation bench.  It answers frozenset's operations under
frozenset's names, so both encodings take the same check,
``not policy.isdisjoint(roles)``.

A :class:`RoleUniverse` assigns each role a stable integer id.  The id
order is the role order the SPIndex skipping rule (Lemma 5.1) relies
on, so the universe is also the single source of truth for "role order"
throughout the system.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.errors import AccessControlError

__all__ = ["RoleUniverse", "RoleBitmap", "role_set"]


def role_set(roles: Iterable[str] | str) -> frozenset[str]:
    """``roles`` as a frozenset of names; a bare string is one name.

    Operators that hold a role predicate call this once at
    construction.  A plain ``frozenset(roles)`` would split ``"CD"``
    into roles ``C`` and ``D`` and so widen a predicate.
    """
    return frozenset((roles,) if isinstance(roles, str) else roles)


class RoleUniverse:
    """Ordered registry of all roles known to the system.

    Roles are registered once and receive monotonically increasing
    integer ids.  The universe is shared by bitmaps (bit positions) and
    by the SPIndex r-node array (array slots).
    """

    def __init__(self, roles: Iterable[str] = ()):
        self._ids: dict[str, int] = {}
        self._names: list[str] = []
        #: The registered names, a live set-like view: ``roles <=
        #: universe.known`` is whether every one of ``roles`` is
        #: registered, one subset test and no call.
        self.known = self._ids.keys()
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


class RoleBitmap:
    """Integer-bitmap role set over a :class:`RoleUniverse`.

    Set operations are single integer bitwise operations, making the
    encoding attractive for large policies (cf. the paper's Eddies
    bitmap discussion).  The other operand may be a bitmap over the
    same universe or any iterable of role names.
    """

    __slots__ = ("_universe", "_mask")

    def __init__(self, universe: RoleUniverse, roles: Iterable[str] = (), *,
                 mask: int | None = None):
        self._universe = universe
        self._mask = self._mask_of(roles) if mask is None else mask

    def _mask_of(self, other: "RoleBitmap | Iterable[str]") -> int:
        if isinstance(other, RoleBitmap):
            if other._universe is not self._universe:
                raise AccessControlError(
                    "cannot combine bitmaps from different role universes"
                )
            return other._mask
        bits = 0
        for role in other:
            bits |= 1 << self._universe.register(role)
        return bits

    def isdisjoint(self, other: "RoleBitmap | Iterable[str]") -> bool:
        return not self._mask & self._mask_of(other)

    def __and__(self, other: "RoleBitmap | Iterable[str]") -> "RoleBitmap":
        return RoleBitmap(self._universe, mask=self._mask & self._mask_of(other))

    def __or__(self, other: "RoleBitmap | Iterable[str]") -> "RoleBitmap":
        return RoleBitmap(self._universe, mask=self._mask | self._mask_of(other))

    def __sub__(self, other: "RoleBitmap | Iterable[str]") -> "RoleBitmap":
        return RoleBitmap(self._universe,
                          mask=self._mask & ~self._mask_of(other))

    def __len__(self) -> int:
        return self._mask.bit_count()

    def __contains__(self, role: str) -> bool:
        if role not in self._universe:
            return False
        return bool(self._mask & (1 << self._universe.id_of(role)))

    def __iter__(self) -> Iterator[str]:
        """Role names in universe (id) order."""
        mask = self._mask
        while mask:
            low = mask & -mask
            yield self._universe.name_of(low.bit_length() - 1)
            mask ^= low

    def __repr__(self) -> str:
        return f"RoleBitmap({{{', '.join(sorted(self))}}})"
