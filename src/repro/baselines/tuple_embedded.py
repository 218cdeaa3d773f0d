"""The tuple-embedded baseline (Section I.C, "Streaming: tuple-embedded").

Security restrictions are embedded *inside* every data tuple as extra
metadata fields (like tuple lineage in Eddies).  Tuples that share a
policy each carry their own redundant copy, and the query processor
checks every tuple individually — the storage and processing redundancy
the sp model eliminates.  A bitmap encoding of the embedded policy is
supported (the improvement the paper concedes to this baseline); it
compresses the per-tuple copy but does not remove the redundancy.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.core.bitmap import RoleBitmap, RoleUniverse, role_set
from repro.core.punctuation import SecurityPunctuation
from repro.stream.element import StreamElement
from repro.stream.tuples import DataTuple

__all__ = ["PolicyTuple", "embed_policies", "TupleEmbeddedEnforcer"]


class PolicyTuple:
    """A data tuple with its embedded access-control policy."""

    __slots__ = ("tuple", "policy")

    def __init__(self, item: DataTuple,
                 policy: frozenset[str] | RoleBitmap):
        self.tuple = item
        self.policy = policy

    def __repr__(self) -> str:
        return f"PolicyTuple({self.tuple!r}, roles={sorted(self.policy)})"


def embed_policies(elements: Iterable[StreamElement], *,
                   universe: RoleUniverse | None = None,
                   bitmap: bool = False) -> Iterator[PolicyTuple]:
    """Convert a punctuated stream into a tuple-embedded stream.

    This models what the data sources would emit under this
    architecture: the punctuations disappear and every tuple carries a
    private copy of the governing policy.  With ``bitmap=True`` the
    embedded copy is a role bitmap over ``universe``.
    """
    if bitmap and universe is None:
        universe = RoleUniverse()
    current_roles: frozenset[str] = frozenset()
    batch: list[SecurityPunctuation] = []
    batch_ts: float | None = None
    for element in elements:
        if isinstance(element, SecurityPunctuation):
            if batch_ts is not None and element.ts == batch_ts:
                batch.append(element)  # same batch: one policy
            else:
                batch = [element]  # new policy: override
                batch_ts = element.ts
            continue
        if batch:
            # Resolve the batch once per segment: positive sps grant
            # the union of their roles, negative sps subtract the
            # roles they authorize (denial-by-default otherwise).
            granted: set[str] = set()
            for sp in batch:
                if sp.is_positive:
                    granted |= sp.roles()
            if granted:
                for sp in batch:
                    if not sp.is_positive:
                        granted = {r for r in granted
                                   if not sp.srp.authorizes(r)}
            current_roles = frozenset(granted)
            batch = []
            batch_ts = None
        if bitmap:
            policy: frozenset[str] | RoleBitmap = RoleBitmap(universe,
                                                            current_roles)
        else:
            # A fresh private copy per tuple — the redundancy under test.
            policy = frozenset(set(current_roles))
        yield PolicyTuple(element, policy)


class TupleEmbeddedEnforcer:
    """Per-tuple access control on an embedded-policy stream."""

    def __init__(self, roles: Iterable[str] | str):
        self.roles = role_set(roles)
        self.tuples_in = 0
        self.tuples_out = 0
        self.checks = 0

    def ingest(self, stream: Iterable[PolicyTuple]) -> Iterator[DataTuple]:
        for policy_tuple in stream:
            self.tuples_in += 1
            self.checks += 1
            if not policy_tuple.policy.isdisjoint(self.roles):
                self.tuples_out += 1
                yield policy_tuple.tuple
