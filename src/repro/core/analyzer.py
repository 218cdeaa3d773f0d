"""The SP Analyzer (Figure 1 of the paper).

The DSMS server runs a *security punctuation analyzer* at the stream
ingestion edge: each stream's entry gate
(:class:`~repro.engine.plan.EntryGate`) calls :meth:`SPAnalyzer.process_batch`
on every sp-batch it closes.  It serves two purposes:

1. **Combining** security punctuations with similar policies, to reduce
   memory and processing overhead downstream (e.g. several sps of one
   batch granting roles on the same objects become a single sp).
2. **Server-side policy specification**: organizations may register
   their own policies; these are translated into sp format and
   *intersected* with arriving data-provider sps, so the server can
   refine — but never widen — provider policies.  Provider sps marked
   ``Immutable`` are exempt: server policies are ignored for them.

The analyzer also *normalizes* sps whose SRP uses open-ended role
patterns (wildcards, regexes, ranges) by resolving them against the
system's role universe, so that everything downstream of the analyzer
deals in concrete role sets only — the operator hot paths never touch
regular expressions.

Server refinement semantics
---------------------------

When a server sp overlaps a provider sp, the analyzer computes the DDP
*conjunction* per field (wildcard ∧ X = X, equal patterns collapse,
enumerable sets intersect, ranges intersect).  If the conjunction
covers the provider sp's whole scope, roles are intersected in place.
If the server sp only partially overlaps and the provider scope is
enumerable, the provider sp is split into refined and unrefined parts.
If the overlap cannot be decided statically (two open-ended patterns),
the analyzer applies the intersection to the whole provider scope —
a *conservative* choice that can only reduce access, never widen it;
the ``conservative_refinements`` counter records how often this
happened.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterable, Iterator, Sequence

from repro.core.bitmap import RoleUniverse
from repro.core.patterns import (CompositePattern, LiteralPattern, Pattern,
                                 RangePattern, SetPattern, one_of)
from repro.core.punctuation import (DataDescription, SecurityPunctuation,
                                    SecurityRestriction, deny_all_sp)
from repro.errors import PolicyError

__all__ = ["SPAnalyzer", "conjoin_patterns", "conjoin_ddp", "combine_batch"]


def _enumerable_values(pattern: Pattern) -> frozenset | None:
    """Concrete values of an enumerable pattern, else ``None``."""
    if isinstance(pattern, LiteralPattern):
        return frozenset({pattern.value})
    if isinstance(pattern, SetPattern):
        return frozenset(pattern.values)
    if isinstance(pattern, CompositePattern):
        out: set = set()
        for part in pattern.parts:
            sub = _enumerable_values(part)
            if sub is None:
                return None
            out |= sub
        return frozenset(out)
    return None


def conjoin_patterns(a: Pattern, b: Pattern) -> Pattern | None:
    """Pattern matching exactly the values both match, if computable.

    Returns ``None`` when the conjunction cannot be determined
    statically (e.g. two distinct regexes).  An empty conjunction is
    represented by an empty :class:`SetPattern` substitute — callers
    should test with :func:`conjunction_is_empty`.
    """
    if a.is_wildcard():
        return b
    if b.is_wildcard():
        return a
    if a == b:
        return a
    values_a = _enumerable_values(a)
    values_b = _enumerable_values(b)
    if values_a is not None and values_b is not None:
        common = {v for v in values_a
                  if b.matches(v)} | {v for v in values_b if a.matches(v)}
        return one_of(common) if common else _EMPTY
    if values_a is not None:
        common = {v for v in values_a if b.matches(v)}
        return one_of(common) if common else _EMPTY
    if values_b is not None:
        common = {v for v in values_b if a.matches(v)}
        return one_of(common) if common else _EMPTY
    if isinstance(a, RangePattern) and isinstance(b, RangePattern):
        low, high = max(a.low, b.low), min(a.high, b.high)
        if low > high:
            return _EMPTY
        return RangePattern(low, high)
    return None


class _EmptyPattern(Pattern):
    """Matches nothing; marks an empty statically-computed conjunction."""

    __slots__ = ()

    def matches(self, value: object) -> bool:
        return False

    def spec(self) -> str:
        return "{}"


_EMPTY = _EmptyPattern()


def conjunction_is_empty(pattern: Pattern | None) -> bool:
    return isinstance(pattern, _EmptyPattern)


def conjoin_ddp(a: DataDescription, b: DataDescription) -> DataDescription | None:
    """Field-wise DDP conjunction; ``None`` if undecidable or empty."""
    stream = conjoin_patterns(a.stream, b.stream)
    tuple_id = conjoin_patterns(a.tuple_id, b.tuple_id)
    attribute = conjoin_patterns(a.attribute, b.attribute)
    if stream is None or tuple_id is None or attribute is None:
        return None
    if any(conjunction_is_empty(p) for p in (stream, tuple_id, attribute)):
        return None
    return DataDescription(stream=stream, tuple_id=tuple_id,
                           attribute=attribute)


def combine_batch(
    sps: Sequence[SecurityPunctuation],
) -> list[SecurityPunctuation]:
    """Merge sps of one batch that share DDP, sign and timestamp.

    This is the analyzer's "combine similar policies" duty: the merged
    sp authorizes the union of the merged roles.  Sps whose SRP is not
    enumerable are passed through unchanged, and so are incremental
    ones: an incremental batch edits the policy in order, and merging
    same-sign sps would reorder its edits.  Input order of distinct
    (ddp, sign) groups is preserved.
    """
    merged: dict[tuple, list[SecurityPunctuation]] = {}
    order: list[tuple] = []
    passthrough: list[SecurityPunctuation] = []
    for sp in sps:
        if sp.incremental or sp.srp.concrete_roles() is None:
            passthrough.append(sp)
            continue
        key = (sp.ddp, sp.sign, sp.ts, sp.immutable, sp.provider,
               sp.srp.model_type)
        if key not in merged:
            merged[key] = []
            order.append(key)
        merged[key].append(sp)
    out: list[SecurityPunctuation] = []
    for key in order:
        group = merged[key]
        if len(group) == 1:
            out.append(group[0])
            continue
        roles: set[str] = set()
        for sp in group:
            roles |= sp.roles()
        first = group[0]
        out.append(SecurityPunctuation(
            ddp=first.ddp,
            srp=SecurityRestriction.for_roles(sorted(roles),
                                              first.srp.model_type),
            sign=first.sign,
            immutable=first.immutable,
            ts=first.ts,
            provider=first.provider,
            incremental=first.incremental,
        ))
    return out + passthrough


class SPAnalyzer:
    """Server-edge sp normalization, combination and refinement."""

    def __init__(self, universe: RoleUniverse | None = None):
        self.universe = universe if universe is not None else RoleUniverse()
        self._server_sps: list[SecurityPunctuation] = []
        #: How often an undecidable overlap forced a conservative
        #: whole-scope refinement.
        self.conservative_refinements = 0
        #: Counters for observability.
        self.sps_in = 0
        self.sps_out = 0
        #: Audit log for server-policy refinements (None = silent).
        self.audit = None
        #: Tracer for per-batch span events (None = tracing off).
        self.tracer = None
        #: sp-batch-size histogram (None = metrics off).
        self._m_batch_size = None

    def bind_observability(self, observability) -> None:
        """Attach a DSMS's :class:`~repro.observability.Observability`."""
        self.audit = observability.audit
        self.tracer = observability.tracer
        instruments = observability.instruments
        if instruments is not None:
            self._m_batch_size = instruments.sp_batch_size.labels()

    # -- server policies ---------------------------------------------------
    def add_server_policy(self, sp: SecurityPunctuation) -> None:
        """Register a server-specified policy (translated to sp form)."""
        if sp.provider is not None:
            raise PolicyError("server policies must have provider=None")
        # A server pattern that matches no known role yet stays open.
        self._server_sps.append(self._normalize(sp) or sp)

    # -- normalization ------------------------------------------------------
    def _normalize(self, sp: SecurityPunctuation
                   ) -> SecurityPunctuation | None:
        """Register the sp's roles, or resolve its open-ended role
        pattern against the role universe: ``None`` for a grant whose
        pattern matches no known role, since it grants nobody (a denial
        keeps its pattern, which readers match role by role, as they do
        ``deny_all_sp``'s)."""
        roles = sp.srp.concrete_roles()
        if roles is not None:
            universe = self.universe
            if not roles <= universe.known:
                for role in roles:  # the known ones keep their ids
                    universe.register(role)
            return sp
        resolved = sp.srp.resolve(self.universe.roles())
        if resolved:
            return sp.with_roles(sorted(resolved))
        return None if sp.is_positive else sp

    # -- refinement ----------------------------------------------------------
    def _refine(self, sp: SecurityPunctuation) -> list[SecurityPunctuation]:
        """Intersect one provider sp with applicable server policies."""
        if sp.immutable or not sp.is_positive:
            # Negative provider sps only remove access; server
            # intersection semantics concern positive grants.
            return [sp]
        conservative_before = self.conservative_refinements
        current = [sp]
        for server_sp in self._server_sps:
            if not server_sp.is_positive:
                # A negative server sp refines by subtraction on the
                # overlap; handled by emitting it alongside (same ts as
                # the provider batch) so batch semantics subtract it.
                continue
            next_round: list[SecurityPunctuation] = []
            for item in current:
                next_round.extend(self._refine_one(item, server_sp))
            current = next_round
        if self.audit is not None and current != [sp]:
            self._audit_refined(sp, current, self.conservative_refinements
                                - conservative_before)
        return current

    def _audit_refined(self, sp: SecurityPunctuation,
                       current: list[SecurityPunctuation],
                       conservative: int) -> None:
        """One ``analyzer.refine`` record: ``sp`` became ``current``."""
        result_roles: set[str] = set()
        for item in current:
            result_roles |= item.roles()
        self.audit.record(
            "analyzer.refine", ts=sp.ts, operator="SPAnalyzer",
            # An open SRP here matched no known role: it grants none.
            policy=tuple(sorted(sp.srp.concrete_roles() or ())),
            sp=sp.to_text(), result_roles=sorted(result_roles),
            result_sps=len(current), conservative=conservative,
        )

    def _refine_one(self, sp: SecurityPunctuation,
                    server_sp: SecurityPunctuation) -> list[SecurityPunctuation]:
        # The server roles ``sp`` grants: those its SRP matches, which
        # for an open pattern that matched no known role may be none.
        server_roles = server_sp.roles()
        restricted = sp.srp.resolve(server_roles) & server_roles
        conj = conjoin_ddp(sp.ddp, server_sp.ddp)
        if conj is None:
            # Undecidable or empty overlap.  Distinguish: if any field
            # pair is *provably* empty we know there is no overlap.
            if self._provably_disjoint(sp.ddp, server_sp.ddp):
                return [sp]
            self.conservative_refinements += 1
            return [sp.with_roles(sorted(restricted))] if restricted else []
        if conj == sp.ddp:
            # Server scope covers the provider sp entirely.
            return [sp.with_roles(sorted(restricted))] if restricted else []
        # Partial overlap: split into refined overlap + untouched rest
        # where the provider scope is enumerable; otherwise refine the
        # whole scope conservatively.
        remainder = self._ddp_difference(sp.ddp, conj)
        if remainder is None:
            self.conservative_refinements += 1
            return [sp.with_roles(sorted(restricted))] if restricted else []
        out: list[SecurityPunctuation] = []
        if restricted:
            out.append(SecurityPunctuation(
                ddp=conj, srp=SecurityRestriction.for_roles(sorted(restricted)),
                sign=sp.sign, immutable=sp.immutable, ts=sp.ts,
                provider=sp.provider,
            ))
        for ddp in remainder:
            out.append(SecurityPunctuation(
                ddp=ddp, srp=sp.srp, sign=sp.sign, immutable=sp.immutable,
                ts=sp.ts, provider=sp.provider,
            ))
        return out

    @staticmethod
    def _provably_disjoint(a: DataDescription, b: DataDescription) -> bool:
        for pa, pb in ((a.stream, b.stream), (a.tuple_id, b.tuple_id),
                       (a.attribute, b.attribute)):
            conj = conjoin_patterns(pa, pb)
            if conjunction_is_empty(conj):
                return True
        return False

    @staticmethod
    def _ddp_difference(whole: DataDescription,
                        part: DataDescription) -> list[DataDescription] | None:
        """``whole − part`` as DDPs, when exactly one field shrank
        and both are enumerable; else ``None``."""
        diffs: list[DataDescription] = []
        changed = 0
        for name in ("stream", "tuple_id", "attribute"):
            wp: Pattern = getattr(whole, name)
            pp: Pattern = getattr(part, name)
            if wp == pp:
                continue
            changed += 1
            if changed > 1:
                return None
            values_w = _enumerable_values(wp)
            values_p = _enumerable_values(pp)
            if values_w is None or values_p is None:
                return None
            rest = values_w - values_p
            if rest:
                kwargs = {"stream": whole.stream,
                          "tuple_id": whole.tuple_id,
                          "attribute": whole.attribute}
                kwargs[name] = one_of(sorted(rest, key=str))
                diffs.append(DataDescription(**kwargs))
        return diffs

    # -- batch processing -----------------------------------------------------
    def process_batch(
        self, sps: Sequence[SecurityPunctuation],
    ) -> list[SecurityPunctuation]:
        """Normalize, refine and combine one arriving sp-batch.

        Normalization (role registration, open-pattern resolution) is
        per sp; refinement runs only while a server policy is
        registered, and combination only for two or more sps, so a
        stage with nothing to do is never entered.
        """
        self.sps_in += len(sps)
        known = self.universe.known
        refine = self._refine if self._server_sps else None
        out: list[SecurityPunctuation] = []
        for sp in sps:
            roles = sp.srp.concrete_roles()
            if roles is None or not roles <= known:
                resolved = self._normalize(sp)
                if resolved is None:
                    # A grant to nobody: no reader after the entry sees
                    # it, and under a server policy it is refined to
                    # nothing.
                    if refine is not None and self.audit is not None:
                        self._audit_refined(sp, [], 0)
                    continue
                sp = resolved
            if refine is None:
                out.append(sp)
            else:
                out.extend(refine(sp))
        if refine is not None:
            out = self._server_negatives(sps, out)
        if not out and sps and not all(sp.incremental for sp in sps):
            # The whole batch grants nobody.  The boundary must still be
            # announced — silently dropping it would leave the
            # *previous* policy governing the new segment's tuples — so
            # a wildcard negative sp, the explicit "grant nobody"
            # policy, takes its place.  (An *incremental* batch that
            # comes to nothing is a no-op delta: the current policy
            # legitimately stays in force.)
            out = [deny_all_sp(sps[0].ts)]
        if len(out) > 1:
            out = combine_batch(out)
        self.sps_out += len(out)
        if self._m_batch_size is not None and sps:
            self._m_batch_size.observe(len(sps))
        tracer = self.tracer
        if tracer is not None and tracer.active:
            # Per sp-batch, so head-sampled with the current trace.
            tracer.span("analyzer.batch", ts=sps[0].ts if sps else 0.0,
                        sps_in=len(sps), sps_out=len(out))
        return out

    def _server_negatives(
        self, sps: Sequence[SecurityPunctuation],
        refined: list[SecurityPunctuation],
    ) -> list[SecurityPunctuation]:
        """``refined``, the refined sps of ``sps``, with the negative
        server policies appended."""
        if not sps:
            return refined
        ts = sps[0].ts
        # Negative server sps join the batch (re-stamped to the batch
        # timestamp so they belong to the same policy); an incremental
        # batch takes them as retractions, since a batch never mixes
        # deltas with absolute sps.
        for server_sp in self._server_sps:
            if not server_sp.is_positive:
                if any(not sp.immutable for sp in sps):
                    restamped = server_sp.with_ts(ts)
                    refined.append(
                        replace(restamped, incremental=True)
                        if all(sp.incremental for sp in sps) else restamped)
        return refined

    # -- streaming interface ---------------------------------------------------
    def analyze(self, elements: Iterable) -> Iterator:
        """Transform a raw element stream, rewriting sp-batches in place.

        Data tuples pass through untouched; maximal runs of consecutive
        sps are processed as batches (grouped further by timestamp, per
        the sp-batch definition).
        """
        from repro.stream.element import is_punctuation

        pending: list[SecurityPunctuation] = []
        for element in elements:
            if is_punctuation(element):
                if pending and element.ts != pending[-1].ts:
                    yield from self.process_batch(pending)
                    pending = []
                pending.append(element)
            else:
                if pending:
                    yield from self.process_batch(pending)
                    pending = []
                yield element
        if pending:
            yield from self.process_batch(pending)

    def analyze_batched(self, elements: Iterable, *,
                        max_batch: int | None = None) -> Iterator:
        """:meth:`analyze` cut into runs: rewritten sps *and*
        :class:`~repro.stream.batch.TupleBatch` runs, the same feed as
        :func:`~repro.stream.batch.coalesce_feed` over :meth:`analyze`.
        """
        from repro.stream.batch import DEFAULT_MAX_BATCH, coalesce_stream

        return coalesce_stream(
            self.analyze(elements),
            max_batch=DEFAULT_MAX_BATCH if max_batch is None else max_batch)
