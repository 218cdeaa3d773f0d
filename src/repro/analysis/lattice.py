"""The security dataflow lattice and static stream facts.

The analyzer propagates one :class:`PathState` along every
source→sink path of a plan.  A state records what is *guaranteed* on
every route that reaches the current node:

* ``shields`` — the set of in-plan Security Shield conjuncts every
  route has crossed (empty ⇒ unshielded so far);
* ``pruned`` — attributes some projection/aggregation on the path has
  dropped;
* ``streams`` — stream ids feeding the node;
* ``attrs`` — the attribute set the node outputs, when derivable.

At DAG merge points (binary operators, shared subplans) two states
meet via :func:`join_states`: a guarantee survives only if *both*
incoming paths provide it, while pruning accumulates — the classic
must/may split of a dataflow analysis.

:class:`StreamFacts` is the abstraction of the *streams* rather than
the plan: which streams carry attribute-scoped sps (and for which
attributes), which interleave differing policies across sp-batches,
and which carry negative signs.  Facts are three-valued — when
``known`` is false every query returns ``None`` ("can't tell") and
fact-dependent checks stay silent instead of guessing.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping, Sequence

from repro.core.punctuation import (Granularity, SecurityPunctuation)
from repro.stream.element import StreamElement

__all__ = [
    "PathState",
    "StreamFacts",
    "dominates",
    "join_states",
]

Conjunct = frozenset  # frozenset[str]: one shield conjunct (a role set)


@dataclass(frozen=True)
class PathState:
    """What is guaranteed on every route into one plan node."""

    shields: frozenset = frozenset()  # frozenset[Conjunct]
    pruned: frozenset = frozenset()  # frozenset[str]
    streams: frozenset = frozenset()  # frozenset[str]
    attrs: "frozenset | None" = None  # frozenset[str] | None

    @classmethod
    def source(cls, stream_id: str,
               attrs: "Iterable[str] | None" = None) -> "PathState":
        return cls(streams=frozenset({stream_id}),
                   attrs=frozenset(attrs) if attrs is not None else None)

    @property
    def shielded(self) -> bool:
        """An in-plan shield guards every route into this node."""
        return bool(self.shields)

    def with_shield(self, conjuncts: Iterable[Conjunct]) -> "PathState":
        return replace(self, shields=self.shields | frozenset(
            frozenset(c) for c in conjuncts))

    def project(self, kept: Iterable[str]) -> "PathState":
        """State after a projection keeping exactly ``kept``."""
        kept_set = frozenset(kept)
        dropped = (self.attrs - kept_set if self.attrs is not None
                   else frozenset())
        return replace(self, attrs=kept_set, pruned=self.pruned | dropped)


def join_states(a: PathState, b: PathState) -> PathState:
    """Meet of two incoming path states at a DAG merge point."""
    if a.attrs is not None and b.attrs is not None:
        attrs: "frozenset | None" = a.attrs | b.attrs
    else:
        attrs = None
    return PathState(
        shields=a.shields & b.shields,
        pruned=a.pruned | b.pruned,
        streams=a.streams | b.streams,
        attrs=attrs,
    )


def dominates(upstream: Iterable[Conjunct],
              predicates: Iterable[Conjunct]) -> bool:
    """Whether upstream shield conjuncts make ``predicates`` redundant.

    A Security Shield passes a tuple iff its policy intersects *every*
    conjunct.  An upstream conjunct ``u ⊆ c`` therefore implies the
    downstream check ``c``: whatever intersects ``u`` intersects the
    superset ``c`` too.  The downstream shield is dead iff each of its
    conjuncts is implied by some upstream conjunct.
    """
    upstream = tuple(upstream)
    if not upstream:
        return False
    return all(any(u <= c for u in upstream) for c in predicates)


# -- stream facts -------------------------------------------------------------

def _batch_signatures(
        sps: Sequence[SecurityPunctuation]) -> set[frozenset]:
    """One signature per sp-batch (consecutive sps sharing a ts)."""
    signatures: set[frozenset] = set()
    batch: list[SecurityPunctuation] = []
    for sp in sps:
        if batch and sp.ts != batch[-1].ts:
            signatures.add(frozenset(
                (s.is_positive, s.roles(), s.ddp.spec()) for s in batch))
            batch = []
        batch.append(sp)
    if batch:
        signatures.add(frozenset(
            (s.is_positive, s.roles(), s.ddp.spec()) for s in batch))
    return signatures


def _governed_attributes(sp: SecurityPunctuation,
                         schema: "Sequence[str] | None") -> frozenset:
    """Concrete attributes an attribute-scoped sp governs."""
    pattern = sp.ddp.attribute
    values = getattr(pattern, "value", None)
    if values is not None:
        return frozenset({values})
    values = getattr(pattern, "values", None)
    if values is not None:
        return frozenset(values)
    if schema is not None:
        return frozenset(pattern.eval(schema))
    return frozenset()


@dataclass(frozen=True)
class StreamFacts:
    """Statically known properties of the input streams."""

    #: Whether the facts were derived from concrete stream contents.
    #: When false, every query below answers ``None`` ("unknown").
    known: bool = False
    #: stream id → attributes governed by attribute-scoped sp-batches.
    attr_scoped: Mapping[str, frozenset] = field(default_factory=dict)
    #: Streams whose sp-batches interleave differing policies.
    hetero_streams: frozenset = frozenset()
    #: Streams carrying negative-sign sps.
    negative_streams: frozenset = frozenset()
    #: stream id → declared attribute names.
    schemas: Mapping[str, tuple] = field(default_factory=dict)

    @classmethod
    def unknown(cls) -> "StreamFacts":
        return cls()

    @classmethod
    def from_elements(
            cls, streams: "Mapping[str, Sequence[StreamElement]]",
            schemas: "Mapping[str, Sequence[str]] | None" = None,
    ) -> "StreamFacts":
        """Derive facts from decoded stream elements."""
        schemas = dict(schemas or {})
        attr_scoped: dict[str, frozenset] = {}
        hetero: set[str] = set()
        negative: set[str] = set()
        for sid, elements in streams.items():
            sps = [e for e in elements
                   if isinstance(e, SecurityPunctuation)]
            if len(_batch_signatures(sps)) > 1:
                hetero.add(sid)
            governed: frozenset = frozenset()
            for sp in sps:
                if not sp.is_positive:
                    negative.add(sid)
                if sp.granularity() is Granularity.ATTRIBUTE:
                    governed |= _governed_attributes(
                        sp, schemas.get(sid))
            if governed:
                attr_scoped[sid] = governed
        return cls(known=True, attr_scoped=attr_scoped,
                   hetero_streams=frozenset(hetero),
                   negative_streams=frozenset(negative),
                   schemas={sid: tuple(attrs)
                            for sid, attrs in schemas.items()})

    # -- three-valued queries -------------------------------------------
    def governed_attributes(self,
                            streams: Iterable[str]) -> "frozenset | None":
        """Attrs governed by attribute-scoped sps on these streams."""
        if not self.known:
            return None
        governed: frozenset = frozenset()
        for sid in streams:
            governed |= self.attr_scoped.get(sid, frozenset())
        return governed

    def heterogeneous(self, streams: Iterable[str]) -> "bool | None":
        """Whether any of these streams interleaves differing policies."""
        if not self.known:
            return None
        return any(sid in self.hetero_streams for sid in streams)

    def has_negative(self, streams: Iterable[str]) -> "bool | None":
        if not self.known:
            return None
        return any(sid in self.negative_streams for sid in streams)

    def schema_of(self, stream_id: str) -> "tuple | None":
        attrs = self.schemas.get(stream_id)
        return tuple(attrs) if attrs is not None else None
