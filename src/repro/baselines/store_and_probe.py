"""The store-and-probe baseline (Section I.C, "Non-streaming").

Policies on the streaming data are collected in one place — a
persistent policy table on the server.  Every policy change is an
update to the table; every data access probes the table to decide
whether access is granted.  Simple, but policy churn and per-access
lookups make the central table a bottleneck, which is exactly what
Figure 7 measures.

The implementation keeps the baseline honest rather than strawman:
tuple-granularity policies with literal tuple ids get a hash-indexed
fast path; only pattern-scoped policies (wildcards, ranges, regexes)
require scanning.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.core.bitmap import role_set
from repro.core.patterns import LiteralPattern, SetPattern
from repro.core.policy import TuplePolicy
from repro.core.punctuation import SecurityPunctuation
from repro.stream.element import StreamElement
from repro.stream.tuples import DataTuple

__all__ = ["PolicyTable", "StoreAndProbeEnforcer"]


class _StoredPolicy:
    __slots__ = ("sp", "roles")

    def __init__(self, sp: SecurityPunctuation):
        self.sp = sp
        #: Granted roles for positive sps; ``None`` for negative sps
        #: (denials are pattern-matched via the SRP, which also covers
        #: wildcard-denial markers with non-enumerable role patterns).
        self.roles = sp.roles() if sp.is_positive else None


class PolicyTable:
    """The central persistent policy store."""

    def __init__(self):
        #: (stream key, tid) -> same-timestamp policies, for
        #: literal-tid sps.  A list because one sp-batch (same ts) is
        #: a single policy whose sps combine by union.
        self._exact: dict[tuple[str, object], list[_StoredPolicy]] = {}
        #: Pattern-scoped policies, scanned on probe.
        self._patterns: list[_StoredPolicy] = []
        self.updates = 0
        self.probes = 0
        self.scan_steps = 0
        #: Policy roles materialised: each stored row's role set and
        #: the policy each probe resolves for its tuple.
        self.roles_materialised = 0

    # -- updates ------------------------------------------------------------
    def store(self, sp: SecurityPunctuation) -> None:
        """Insert or override a policy (newer timestamps win).

        Sps sharing a timestamp are one sp-batch — one policy — so an
        equal-timestamp store *extends* the stored policy instead of
        replacing it; a strictly newer one overrides.  Negative sps are
        stored as denials, never as grants.
        """
        self.updates += 1
        stored = _StoredPolicy(sp)
        self.roles_materialised += len(stored.roles or ())
        exact_keys = self._exact_keys(sp)
        if exact_keys is not None:
            for key in exact_keys:
                bucket = self._exact.get(key)
                if bucket is None or sp.ts > bucket[0].sp.ts:
                    self._exact[key] = [stored]
                elif sp.ts == bucket[0].sp.ts:
                    bucket.append(stored)
            return
        same_ddp = [index for index, existing in enumerate(self._patterns)
                    if existing.sp.ddp == sp.ddp]
        if same_ddp:
            # All same-DDP entries share one timestamp (older batches
            # are wiped on override), so the first one is the batch ts.
            current_ts = self._patterns[same_ddp[0]].sp.ts
            if sp.ts > current_ts:
                for index in reversed(same_ddp):
                    del self._patterns[index]
                self._patterns.append(stored)
            elif sp.ts == current_ts:
                self._patterns.append(stored)
            return
        self._patterns.append(stored)

    @staticmethod
    def _exact_keys(
        sp: SecurityPunctuation,
    ) -> list[tuple[str, object]] | None:
        """Hashable (stream, tid) keys when the DDP is fully literal."""
        if not sp.ddp.attribute.is_wildcard():
            return None
        stream = sp.ddp.stream
        tid = sp.ddp.tuple_id
        if not isinstance(stream, LiteralPattern):
            return None
        if isinstance(tid, LiteralPattern):
            return [(stream.spec(), str(tid.value))]
        if isinstance(tid, SetPattern):
            return [(stream.spec(), str(v)) for v in tid.values]
        return None

    # -- probes ------------------------------------------------------------
    def probe(self, item: DataTuple) -> TuplePolicy:
        """Effective policy of one tuple (denial-by-default).

        The governing policy is the newest-timestamp set of applicable
        sps (one sp-batch): its positive sps grant the union of their
        roles, its negative sps subtract the roles they authorize.
        """
        self.probes += 1
        governing: list[_StoredPolicy] = []
        best_ts = float("-inf")
        bucket = self._exact.get((item.sid, str(item.tid)))
        if bucket:
            governing = list(bucket)
            best_ts = bucket[0].sp.ts
        for stored in self._patterns:
            self.scan_steps += 1
            if not stored.sp.describes(item.sid, item.tid):
                continue
            if stored.sp.ts > best_ts:
                governing, best_ts = [stored], stored.sp.ts
            elif stored.sp.ts == best_ts:
                governing.append(stored)
        granted: set[str] = set()
        for stored in governing:
            if stored.roles is not None:
                granted |= stored.roles
        if granted:
            for stored in governing:
                if stored.roles is None:
                    granted = {r for r in granted
                               if not stored.sp.srp.authorizes(r)}
        self.roles_materialised += len(granted)
        return TuplePolicy(frozenset(granted), ts=best_ts)

    # -- accounting --------------------------------------------------------
    def policy_count(self) -> int:
        return (sum(len(bucket) for bucket in self._exact.values())
                + len(self._patterns))

    def stored_policies(self) -> Iterator[SecurityPunctuation]:
        for bucket in self._exact.values():
            for stored in bucket:
                yield stored.sp
        for stored in self._patterns:
            yield stored.sp


class StoreAndProbeEnforcer:
    """Access-control enforcement via the central policy table.

    ``ingest`` consumes a punctuated element stream the way this
    architecture would receive it: sps are diverted into the policy
    table (they never flow through the query path); data tuples are
    authorized by probing the table.
    """

    def __init__(self, roles: Iterable[str] | str,
                 table: PolicyTable | None = None):
        self.roles = role_set(roles)
        self.table = table if table is not None else PolicyTable()
        self.tuples_in = 0
        self.tuples_out = 0

    def ingest(self, elements: Iterable[StreamElement]) -> Iterator[DataTuple]:
        for element in elements:
            if isinstance(element, SecurityPunctuation):
                self.table.store(element)
                continue
            self.tuples_in += 1
            policy = self.table.probe(element)
            if policy.permits_any(self.roles):
                self.tuples_out += 1
                yield element


#: Page size of the persistent store backing the policy table.
PAGE_SIZE = 8192
#: Fixed page overhead of a persistent table: system-catalog entries,
#: heap file header, index root/internal pages, free-space map.  A
#: stream-resident mechanism pays none of this, which is why the sp
#: model wins at small policy sizes in Figure 7c despite keeping
#: several concurrent sp copies.
BASE_PAGES = 12
#: Per-row storage overhead (slot directory entry + row header).
ROW_OVERHEAD = 32


def persistent_table_bytes(table: PolicyTable) -> int:
    """Page-granular memory footprint of the persistent policy table."""
    from repro.metrics.measurement import deep_sizeof

    row_bytes = sum(
        deep_sizeof(sp) + ROW_OVERHEAD for sp in table.stored_policies()
    )
    data_pages = -(-row_bytes // PAGE_SIZE) if row_bytes else 0
    return (BASE_PAGES + data_pages) * PAGE_SIZE
