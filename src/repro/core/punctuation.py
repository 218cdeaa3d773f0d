"""Security punctuations (sps).

A security punctuation (paper Definition 3.1) is meta-data embedded in a
data stream defining an access-control policy on a set of objects:

    < DDP | SRP | Sign | Immutable | ts >

* **DDP** (Data Description Part): which objects the policy applies to,
  expressed as patterns over stream ids, tuple ids and attribute names
  (``es``, ``et``, ``ea``).
* **SRP** (Security Restriction Part): the access-control model type
  (RBAC by default) and the pattern over subjects (roles) authorized.
* **Sign**: ``+`` grants, ``-`` denies (Bertino-style negative
  authorizations).
* **Immutable**: if true, server-side policies may not refine this sp.
* **ts**: when the policy goes into effect.  All sps of one policy
  (an *sp-batch*) share a timestamp; a later policy on the same objects
  overrides an earlier one.

Sps always *precede* the tuples they protect; the tuples between two
consecutive sp-batches form an *s-punctuated segment* sharing the
preceding policy.  If no sp authorizes access to an object,
denial-by-default applies.
"""

from __future__ import annotations

import enum
import functools
import itertools
from dataclasses import dataclass, field, fields
from typing import Iterable, Sequence

from repro.core.patterns import (ANY, CompositePattern, LiteralPattern,
                                 Pattern, SetPattern, is_name, one_of,
                                 parse_names, parse_pattern)
from repro.core.policy import TuplePolicy
from repro.errors import PolicyError, PunctuationError

__all__ = [
    "Sign",
    "Granularity",
    "DataDescription",
    "SecurityRestriction",
    "SecurityPunctuation",
    "SPBatch",
    "RBAC_MODEL",
    "apply_incremental_batch",
    "deny_all_sp",
]

#: The access-control model used throughout the paper's examples.
RBAC_MODEL = "RBAC"

_sp_counter = itertools.count(1)

#: Entries in the DDP field-parse memo.  Sp *lines* never repeat (the
#: timestamp is inside the text) but the DDP does — ``*, *, *`` on
#: nearly every sp — so the memo sits on the field parser.  Role *sets*
#: do not repeat (hit rate 0–5 % on five of six ledger workloads), so
#: ``SecurityRestriction.parse`` has no memo; its role tokens are names,
#: read without the token memo.  Bounded in entries, not bytes (the keys
#: are provider-chosen text of any length), and not a setting: an
#: unbounded table keyed by provider text is an sp-flood hole.
_FIELD_MEMO_SIZE = 1024


class Sign(enum.Enum):
    """Whether an sp grants (``+``) or denies (``-``) access."""

    POSITIVE = "+"
    NEGATIVE = "-"

    @classmethod
    def parse(cls, text: str) -> "Sign":
        text = text.strip().lower()
        if text in ("+", "positive", "grant"):
            return cls.POSITIVE
        if text in ("-", "negative", "deny"):
            return cls.NEGATIVE
        raise PunctuationError(f"invalid sign: {text!r}")

    def __str__(self) -> str:
        return self.value


def _split_ddp_fields(text: str) -> list[str]:
    """Split DDP text on commas outside braces/brackets/regex bodies."""
    parts: list[str] = []
    current: list[str] = []
    depth = 0
    in_regex = False
    for ch in text:
        if in_regex:
            current.append(ch)
            if ch == "/":
                in_regex = False
            continue
        if ch == "/" and not "".join(current).strip():
            in_regex = True
            current.append(ch)
            continue
        if ch in "{[":
            depth += 1
        elif ch in "}]":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    parts.append("".join(current))
    return parts


class Granularity(enum.Enum):
    """Object granularity an sp's DDP addresses (Section III.A)."""

    STREAM = "stream"
    TUPLE = "tuple"
    ATTRIBUTE = "attribute"


@dataclass(frozen=True)
class DataDescription:
    """The DDP: patterns over streams (es), tuples (et), attributes (ea)."""

    stream: Pattern = ANY
    tuple_id: Pattern = ANY
    attribute: Pattern = ANY

    @classmethod
    @functools.lru_cache(maxsize=_FIELD_MEMO_SIZE)
    def parse(cls, text: str) -> "DataDescription":
        """Parse ``"es, et, ea"`` with trailing parts defaulting to ``*``.

        Commas inside ``{...}`` set patterns or ``/.../`` regex bodies
        do not separate DDP fields.  Memoised: equal text yields the
        same (frozen) instance, shared between sps.
        """
        parts = [p.strip() for p in _split_ddp_fields(text)]
        if not 1 <= len(parts) <= 3:
            raise PunctuationError(f"DDP must have 1-3 parts: {text!r}")
        while len(parts) < 3:
            parts.append("*")
        return cls(
            stream=parse_pattern(parts[0]),
            tuple_id=parse_pattern(parts[1]),
            attribute=parse_pattern(parts[2]),
        )

    def granularity(self) -> Granularity:
        """Finest granularity this DDP constrains."""
        if not self.attribute.is_wildcard():
            return Granularity.ATTRIBUTE
        if not self.tuple_id.is_wildcard():
            return Granularity.TUPLE
        return Granularity.STREAM

    def describes(self, stream_id: object, tuple_id: object = None,
                  attribute: object = None) -> bool:
        """Whether the object identified by the arguments is covered.

        ``tuple_id``/``attribute`` of ``None`` mean "the whole stream" /
        "the whole tuple" and only match wildcard patterns at that level
        when asking about a coarser object than the DDP constrains.
        """
        if not self.stream.matches(stream_id):
            return False
        if tuple_id is None:
            return self.tuple_id.is_wildcard() and self.attribute.is_wildcard()
        if not self.tuple_id.matches(tuple_id):
            return False
        if attribute is None:
            return True
        return self.attribute.matches(attribute)

    def spec(self) -> str:
        return ", ".join(
            (self.stream.spec(), self.tuple_id.spec(), self.attribute.spec())
        )


@dataclass(frozen=True, slots=True)
class SecurityRestriction:
    """The SRP: access-control model type plus authorized-subject pattern."""

    roles: Pattern
    model_type: str = RBAC_MODEL
    #: The :meth:`concrete_roles` memo, unset until written.
    _concrete_cache: frozenset[str] | None = field(
        init=False, repr=False, compare=False)

    def __init__(self, roles: Pattern, model_type: str = RBAC_MODEL):
        set_roles, set_model_type = _SRP_FIELDS  # bound below the class
        set_roles(self, roles)
        set_model_type(self, model_type)

    @classmethod
    def for_roles(cls, roles: Iterable[str] | str,
                  model_type: str = RBAC_MODEL) -> "SecurityRestriction":
        """SRP authorizing an explicit set of roles, each a name the SRP
        text reads back as itself (``patterns.is_name``)."""
        if isinstance(roles, str):
            roles = (roles,)
        names = frozenset(map(str, roles))
        if not names:
            raise PunctuationError("SRP requires at least one role")
        for name in names:
            if not is_name(name):
                raise PunctuationError(f"not a role name: {name!r}")
        srp = cls(roles=one_of(names), model_type=model_type)
        # Known here: seed the memo ``concrete_roles`` would fill.
        object.__setattr__(srp, "_concrete_cache", names)
        return srp

    @classmethod
    def parse(cls, text: str, model_type: str = RBAC_MODEL) -> "SecurityRestriction":
        """One pass: role tokens are names; their set seeds the memo."""
        roles = parse_names(text)
        srp = cls(roles, model_type)
        object.__setattr__(srp, "_concrete_cache", _enumerate_pattern(roles))
        return srp

    def concrete_roles(self) -> frozenset[str] | None:
        """Explicit role names, or ``None`` if the pattern is open-ended.

        Literal / set / union-of-those patterns enumerate their roles;
        wildcards, ranges and regexes require resolution against a role
        universe (see :meth:`resolve`).  Memoized per instance.
        """
        try:
            return self._concrete_cache
        except AttributeError:
            concrete = _enumerate_pattern(self.roles)
            object.__setattr__(self, "_concrete_cache", concrete)
            return concrete

    def resolve(self, all_roles: Iterable[str]) -> frozenset[str]:
        """``eval(R, er)``: the authorized subset of ``all_roles``."""
        concrete = self.concrete_roles()
        if concrete is not None:
            return concrete
        return frozenset(self.roles.eval(all_roles))

    def authorizes(self, role: str) -> bool:
        return self.roles.matches(role)

    def spec(self) -> str:
        return self.roles.spec()

    def __reduce__(self):
        # Fields only: the memo is rebuilt on first use, not shipped.
        return (SecurityRestriction, (self.roles, self.model_type))


def _slot_setters(cls: type) -> tuple:
    """The slot setters of ``cls``'s init fields, in declaration order.

    A frozen value's one ``__init__`` writes its fields through them:
    they bypass the frozen ``__setattr__`` as ``object.__setattr__``
    would, minus its per-call attribute lookup.
    """
    return tuple(getattr(cls, f.name).__set__
                 for f in fields(cls) if f.init)


_SRP_FIELDS = _slot_setters(SecurityRestriction)


def _enumerate_pattern(pattern: Pattern) -> frozenset[str] | None:
    if isinstance(pattern, SetPattern):
        return pattern.texts
    if isinstance(pattern, LiteralPattern):
        return frozenset({pattern.spec()})
    if isinstance(pattern, CompositePattern):
        out: set[str] = set()
        for part in pattern.parts:
            sub = _enumerate_pattern(part)
            if sub is None:
                return None
            out |= sub
        return frozenset(out)
    return None


@dataclass(frozen=True, slots=True)
class SecurityPunctuation:
    """One security punctuation: ``<DDP | SRP | Sign | Immutable | ts>``.

    The ``incremental`` flag implements the paper's future-work item
    *incremental access control policies*: an incremental sp-batch does
    not override the current policy but *edits* it — positive sps add
    their roles to the grants in force, negative sps retract theirs —
    so a device can say "additionally admit the ER" or "drop the
    nurse" without restating the whole policy.
    """

    ddp: DataDescription
    srp: SecurityRestriction
    ts: float
    sign: Sign = Sign.POSITIVE
    immutable: bool = False
    #: Originating data provider, used by the SP Analyzer's combination
    #: semantics (union within one provider, intersect across
    #: provider/server).  ``None`` means server-specified.
    provider: str | None = None
    #: Delta semantics: edit the current policy instead of replacing it.
    incremental: bool = False
    #: Drawn from a process-wide counter when not given.
    sp_id: int | None = field(default=None, compare=False)
    # The four memos, each written by its one method and unset until
    # then: :meth:`roles`, :meth:`to_text`, the wire line
    # (``stream.wire.encode_element``) and :meth:`segment_policy`.
    _roles_cache: frozenset = field(init=False, repr=False, compare=False)
    _text_cache: str = field(init=False, repr=False, compare=False)
    _line_cache: str = field(init=False, repr=False, compare=False)
    _policy_cache: TuplePolicy | None = field(init=False, repr=False,
                                              compare=False)

    def __init__(self, ddp: DataDescription, srp: SecurityRestriction,
                 ts: float, sign: Sign = Sign.POSITIVE,
                 immutable: bool = False, provider: str | None = None,
                 incremental: bool = False, sp_id: int | None = None):
        # NaN compares false with every timestamp, so it would slip
        # past every ordering test (a stale batch would govern again);
        # +-inf still order and stay legal.
        if ts is None or ts != ts:
            raise PunctuationError(
                "sp requires a timestamp" if ts is None
                else "sp timestamp must not be NaN")
        # Bound below the class (``_slot_setters``): every sp on the
        # wire runs this.
        set_ddp, set_srp, set_ts, set_sign, set_immutable, set_provider, \
            set_incremental, set_sp_id = _SP_FIELDS
        set_ddp(self, ddp)
        set_srp(self, srp)
        set_ts(self, ts)
        set_sign(self, sign)
        set_immutable(self, immutable)
        set_provider(self, provider)
        set_incremental(self, incremental)
        set_sp_id(self, next(_sp_counter) if sp_id is None else sp_id)

    # -- convenience constructors -------------------------------------
    @classmethod
    def grant(cls, roles: Iterable[str] | str, ts: float, *,
              stream: Pattern = ANY, tuple_id: Pattern = ANY,
              attribute: Pattern = ANY, immutable: bool = False,
              provider: str | None = None,
              incremental: bool = False) -> "SecurityPunctuation":
        """Positive sp authorizing ``roles`` for the described objects."""
        return cls(
            ddp=DataDescription(stream=stream, tuple_id=tuple_id,
                                attribute=attribute),
            srp=SecurityRestriction.for_roles(roles),
            sign=Sign.POSITIVE,
            immutable=immutable,
            ts=ts,
            provider=provider,
            incremental=incremental,
        )

    @classmethod
    def deny(cls, roles: Iterable[str] | str, ts: float, *,
             stream: Pattern = ANY, tuple_id: Pattern = ANY,
             attribute: Pattern = ANY, immutable: bool = False,
             provider: str | None = None,
             incremental: bool = False) -> "SecurityPunctuation":
        """Negative sp denying ``roles`` access to the described objects."""
        sp = cls.grant(roles, ts, stream=stream, tuple_id=tuple_id,
                       attribute=attribute, immutable=immutable,
                       provider=provider, incremental=incremental)
        return sp.with_sign(Sign.NEGATIVE)

    @classmethod
    def add_roles(cls, roles: Iterable[str] | str, ts: float,
                  **kwargs) -> "SecurityPunctuation":
        """Incremental grant: *additionally* admit ``roles``."""
        return cls.grant(roles, ts, incremental=True, **kwargs)

    @classmethod
    def retract_roles(cls, roles: Iterable[str] | str, ts: float,
                      **kwargs) -> "SecurityPunctuation":
        """Incremental denial: remove ``roles`` from the current policy."""
        return cls.deny(roles, ts, incremental=True, **kwargs)

    def with_sign(self, sign: Sign) -> "SecurityPunctuation":
        return SecurityPunctuation(
            ddp=self.ddp, srp=self.srp, ts=self.ts, sign=sign,
            immutable=self.immutable, provider=self.provider,
            incremental=self.incremental,
        )

    def with_ts(self, ts: float) -> "SecurityPunctuation":
        return SecurityPunctuation(
            ddp=self.ddp, srp=self.srp, ts=ts, sign=self.sign,
            immutable=self.immutable, provider=self.provider,
            incremental=self.incremental,
        )

    def with_roles(self, roles: Iterable[str] | str) -> "SecurityPunctuation":
        return SecurityPunctuation(
            ddp=self.ddp, srp=SecurityRestriction.for_roles(roles),
            ts=self.ts, sign=self.sign, immutable=self.immutable,
            provider=self.provider, incremental=self.incremental,
        )

    # -- predicates -----------------------------------------------------
    @property
    def is_positive(self) -> bool:
        return self.sign is Sign.POSITIVE

    def granularity(self) -> Granularity:
        return self.ddp.granularity()

    def describes(self, stream_id: object, tuple_id: object = None,
                  attribute: object = None) -> bool:
        """Whether this sp's DDP covers the given object."""
        return self.ddp.describes(stream_id, tuple_id, attribute)

    def roles(self) -> frozenset[str]:
        """Explicit role names of the SRP (memoized per instance).

        Raises :class:`PunctuationError` for open-ended role patterns;
        those must be resolved against a role universe first (the SP
        Analyzer normalizes arriving sps accordingly).
        """
        cached = getattr(self, "_roles_cache", None)
        if cached is not None:
            return cached
        concrete = self.srp.concrete_roles()
        if concrete is None:
            raise PunctuationError(
                f"sp {self.sp_id} has a non-enumerable role pattern "
                f"{self.srp.spec()!r}; resolve it against a role universe"
            )
        object.__setattr__(self, "_roles_cache", concrete)
        return concrete

    def segment_policy(self) -> TuplePolicy | None:
        """Resolved policy of a segment this sp *alone* governs, else ``None``.

        Not ``None`` only for a positive, non-incremental sp with a fully
        wildcard DDP and enumerable roles: it resolves identically for
        every tuple, tracker and role universe, so one immutable policy
        over the frozenset :meth:`roles` caches serves every reader.
        Memoized like :meth:`roles` (only this method writes the memo);
        it says nothing about a batch of several sps.
        """
        try:
            return self._policy_cache
        except AttributeError:
            pass
        policy = None
        ddp = self.ddp
        if (self.sign is Sign.POSITIVE and not self.incremental
                and ddp.stream.is_wildcard() and ddp.tuple_id.is_wildcard()
                and ddp.attribute.is_wildcard()
                and self.srp.concrete_roles() is not None):
            policy = TuplePolicy(self.roles(), ts=self.ts)
        object.__setattr__(self, "_policy_cache", policy)
        return policy

    def __reduce__(self):
        # Fields only, ``sp_id`` included: the four memos (roles, text,
        # wire line, segment policy) are rebuilt on use, not shipped.
        return (SecurityPunctuation, (
            self.ddp, self.srp, self.ts, self.sign, self.immutable,
            self.provider, self.incremental, self.sp_id))

    # -- text round trip --------------------------------------------------
    def to_text(self) -> str:
        """Alphanumeric sp format used in the paper's presentation.

        Incremental sps (the future-work extension) carry a sixth
        ``INC`` field; plain sps keep the paper's five-field format.
        Memoized per instance (like :meth:`roles`): every shield that
        sees this sp renders the same governing-sp text into its
        audit records.
        """
        cached = getattr(self, "_text_cache", None)
        if cached is not None:
            return cached
        base = (
            f"<{self.ddp.spec()} | {self.srp.spec()} | {self.sign.value} | "
            f"{'T' if self.immutable else 'F'} | {self.ts}"
        )
        text = base + (" | INC>" if self.incremental else ">")
        object.__setattr__(self, "_text_cache", text)
        return text

    @classmethod
    def parse(cls, text: str, provider: str | None = None) -> "SecurityPunctuation":
        """Parse the output of :meth:`to_text`.

        One split, each field stripped once; the sign is looked up as
        :meth:`to_text` writes it before :meth:`Sign.parse` reads the
        other spellings.
        """
        body = text.strip()
        if not (body.startswith("<") and body.endswith(">")):
            raise PunctuationError(f"sp text must be <...>: {text!r}")
        parts = body[1:-1].split("|")
        incremental = len(parts) == 6
        if incremental:
            sixth = parts.pop().strip()
            if sixth.upper() != "INC":
                raise PunctuationError(f"unknown sixth sp field: {sixth!r}")
        if len(parts) != 5:
            raise PunctuationError(
                f"sp text must have 5 '|'-separated fields: {text!r}"
            )
        ddp_text, srp_text, sign_text, immutable_text, ts_text = parts
        immutable_text = immutable_text.strip().upper()
        immutable = _IMMUTABLE.get(immutable_text)
        if immutable is None:
            raise PunctuationError(
                f"invalid Immutable field: {immutable_text!r}")
        try:
            ts = float(ts_text)  # float() skips the padding itself
        except ValueError:
            raise PunctuationError(
                f"invalid timestamp: {ts_text.strip()!r}") from None
        ddp = DataDescription.parse(ddp_text.strip())
        srp = SecurityRestriction.parse(srp_text.strip())
        sign_text = sign_text.strip()
        sign = _SIGNS.get(sign_text) or Sign.parse(sign_text)
        # Fields in declaration order: a positional call is the cheaper
        # one, and this runs once per sp on the wire.
        return cls(ddp, srp, ts, sign, immutable, provider, incremental)

    def __str__(self) -> str:
        return self.to_text()


_SP_FIELDS = _slot_setters(SecurityPunctuation)
#: The sign as :meth:`SecurityPunctuation.to_text` writes it, and the
#: Immutable field's spellings (upper-cased).
_SIGNS = {sign.value: sign for sign in Sign}
_IMMUTABLE = {"T": True, "TRUE": True, "F": False, "FALSE": False}


class SPBatch:
    """A maximal run of consecutive sps with one timestamp (Section III.A).

    A set of consecutive sps sharing a timestamp is interpreted as a
    *single* access-control policy.
    """

    __slots__ = ("_sps",)

    def __init__(self, sps: Sequence[SecurityPunctuation]):
        sps = tuple(sps)
        if not sps:
            raise PunctuationError("sp-batch must contain at least one sp")
        ts = sps[0].ts
        if any(sp.ts != ts for sp in sps):
            raise PunctuationError(
                "all sps in a batch must share one timestamp "
                f"(got {sorted({sp.ts for sp in sps})})"
            )
        self._sps = sps

    @property
    def sps(self) -> tuple[SecurityPunctuation, ...]:
        return self._sps

    @property
    def ts(self) -> float:
        return self._sps[0].ts

    def __iter__(self):
        return iter(self._sps)

    def __len__(self) -> int:
        return len(self._sps)

    def __repr__(self) -> str:
        return f"SPBatch(ts={self.ts}, sps={len(self._sps)})"


def deny_all_sp(ts: float) -> SecurityPunctuation:
    """The explicit "grant nobody" policy marker (wildcard denial)."""
    return SecurityPunctuation(
        ddp=DataDescription(),
        srp=SecurityRestriction(roles=ANY),
        sign=Sign.NEGATIVE,
        ts=ts,
    )


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
    finer-scoped deltas raise :class:`~repro.errors.PolicyError`.
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
