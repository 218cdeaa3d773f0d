"""The Security Punctuation Index (SPIndex, paper Section V.B.2).

The index SAJoin keeps, per input window, an SPIndex for efficient
lookup of policy-wise compatible tuples in the *opposite* stream.  The
structure (Figure 6) consists of:

* the **r-node array** — one node per role in the system, ordered by
  role id; each r-node heads a linked list of index entries whose sp
  contains that role (``r-head``/``r-tail`` pointers: new entries are
  appended at the tail, expired entries leave from the head);
* one **index entry per sp(-batch)** — an entry with a vertex for every
  role of the sp, pointing at the physical sp / segment in the sliding
  window.

Probing walks, for each role of the probing tuple's policy in role-id
order, the entry list of the matching r-node.  The **skipping rule**
(Lemma 5.1) prevents an entry reachable through several common roles
from being processed more than once: an entry is processed only at the
r-node of the *smallest-id role common to the entry and the probing
policy*, and skipped everywhere else.  (The lemma in the paper is
stated in terms of the entry's first role; restricting to *common*
roles is the general form — an entry whose first role is not in the
probing policy was never reached through that role at all.)

Because window segments expire strictly FIFO, expired entries are
always at the r-heads; removal is lazy (entries carry an ``alive``
flag and dead entries are popped from list heads during maintenance),
matching the paper's r-head removal discipline.
"""

from __future__ import annotations

from collections import deque
from typing import Iterator

from repro.core.bitmap import RoleUniverse
from repro.stream.window import Segment

__all__ = ["IndexEntry", "SPIndex"]


class IndexEntry:
    """One index entry: the roles of an sp-batch plus its segment."""

    __slots__ = ("segment", "roles_ordered", "role_set", "alive")

    def __init__(self, segment: Segment, roles_ordered: tuple[str, ...]):
        self.segment = segment
        self.roles_ordered = roles_ordered
        self.role_set = frozenset(roles_ordered)
        self.alive = True

    def __repr__(self) -> str:
        state = "live" if self.alive else "dead"
        return f"IndexEntry({list(self.roles_ordered)}, {state})"


class SPIndex:
    """Role-indexed lookup of s-punctuated segments."""

    def __init__(self, universe: RoleUniverse, *, skipping: bool = True):
        self.universe = universe
        #: Lemma 5.1 on/off switch (off only for the ablation bench).
        self.skipping = skipping
        self._rnodes: dict[str, deque[IndexEntry]] = {}
        self._by_segment: dict[int, IndexEntry] = {}
        #: Maintenance counters (the sp-maintenance cost of Fig. 9).
        self.insertions = 0
        self.deletions = 0
        #: Entries visited during probes, including skipped ones.
        self.entries_scanned = 0
        self.entries_skipped = 0

    # -- maintenance ---------------------------------------------------------
    def insert(self, segment: Segment, roles: frozenset[str]) -> IndexEntry:
        """Add an index entry for a newly opened segment."""
        ordered = tuple(sorted(roles, key=self.universe.sort_key))
        entry = IndexEntry(segment, ordered)
        for role in ordered:
            node = self._rnodes.get(role)
            if node is None:
                node = deque()
                self._rnodes[role] = node
            node.append(entry)  # new entries always join at the r-tail
        self._by_segment[id(segment)] = entry
        self.insertions += 1
        return entry

    def remove_segment(self, segment: Segment) -> None:
        """Mark the entry of an expired segment dead (lazy removal)."""
        entry = self._by_segment.pop(id(segment), None)
        if entry is not None and entry.alive:
            entry.alive = False
            self.deletions += 1
            # Eager head cleanup: expired entries sit at r-heads.
            for role in entry.roles_ordered:
                node = self._rnodes.get(role)
                while node and not node[0].alive:
                    node.popleft()

    # -- probing ------------------------------------------------------------
    def probe(self, policy_roles: frozenset[str]) -> Iterator[Segment]:
        """Segments policy-compatible with ``policy_roles``, each once.

        Roles are visited in role-id order; the skipping rule
        suppresses duplicate processing of entries sharing several
        roles with the probing policy.
        """
        if not policy_roles:
            return
        ordered = sorted(policy_roles, key=self.universe.sort_key)
        probe_set = frozenset(ordered)
        for role in ordered:
            node = self._rnodes.get(role)
            if not node:
                continue
            for entry in node:
                if not entry.alive:
                    continue
                self.entries_scanned += 1
                if self.skipping:
                    if self._first_common_role(entry, probe_set) != role:
                        self.entries_skipped += 1
                        continue
                    yield entry.segment
                else:
                    # Ablation mode: no dedup here — the caller sees
                    # the segment once per common role.
                    yield entry.segment

    @staticmethod
    def _first_common_role(entry: IndexEntry,
                           probe_set: frozenset[str]) -> str | None:
        for role in entry.roles_ordered:
            if role in probe_set:
                return role
        return None

    # -- accounting --------------------------------------------------------
    def entry_count(self) -> int:
        return sum(1 for e in self._by_segment.values() if e.alive)

    def rnode_count(self) -> int:
        return len(self._rnodes)

    def __repr__(self) -> str:
        return (f"SPIndex(entries={self.entry_count()}, "
                f"rnodes={self.rnode_count()}, skipping={self.skipping})")
