"""Pattern language for security punctuations.

The paper (Section III.B) describes objects and roles inside security
punctuations with *regular expressions*: ``eval(N, e)`` takes a set of
values ``N`` and an expression ``e`` and returns the subset of ``N``
matching ``e``.  This module implements that mechanism.

Patterns come in a handful of concrete shapes that cover everything the
paper's examples need, while staying cheap to evaluate per element:

* :class:`WildcardPattern` — matches everything (``*``).
* :class:`LiteralPattern` — matches one exact value.
* :class:`SetPattern` — matches a finite set of values.
* :class:`RangePattern` — matches numeric values in ``[low, high]``
  (the paper's "patients with ids between 120 and 133").
* :class:`RegexPattern` — a general regular expression over the string
  form of the value.
* :class:`CompositePattern` — union of sub-patterns.

All patterns are immutable, hashable and comparable, which the policy
layer relies on for cheap policy-equality checks, and all expose:

``matches(value)``
    membership test for a single value, and

``eval(values)``
    the paper's ``eval(N, e)`` — the matching subset, preserving input
    order.

A compact text syntax is read by :func:`parse_pattern` (and, over role
names, where a token is never a number, by :func:`parse_names`)::

    *                 wildcard
    120               literal
    {120, 121, 122}   set
    [120-133]         inclusive numeric range
    /^12[0-9]$/       regular expression
    a|b               union of sub-patterns
"""

from __future__ import annotations

import functools
import re
from typing import Hashable, Iterable, Sequence

from repro.errors import PatternError

__all__ = [
    "Pattern",
    "WildcardPattern",
    "LiteralPattern",
    "SetPattern",
    "RangePattern",
    "RegexPattern",
    "CompositePattern",
    "ANY",
    "literal",
    "one_of",
    "numeric_range",
    "regex",
    "parse_pattern",
    "parse_names",
]


class Pattern:
    """Abstract base for punctuation patterns.

    Subclasses must implement :meth:`matches` and :meth:`spec` (the
    canonical text form used for hashing, equality and serialization).
    """

    __slots__ = ()

    def matches(self, value: object) -> bool:
        """Return ``True`` if ``value`` matches this pattern."""
        raise NotImplementedError

    def spec(self) -> str:
        """Canonical text form of this pattern."""
        raise NotImplementedError

    def eval(self, values: Iterable[object]) -> list:
        """The paper's ``eval(N, e)``: subset of ``values`` matching."""
        return [v for v in values if self.matches(v)]

    def is_wildcard(self) -> bool:
        """Whether this pattern matches every possible value."""
        return False

    # Patterns are value objects: equality and hashing go through the
    # canonical spec so that e.g. SetPattern({1, 2}) == SetPattern({2, 1}).
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Pattern):
            return NotImplemented
        return self.spec() == other.spec()

    def __hash__(self) -> int:
        return hash(self.spec())

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.spec()!r})"

    def __or__(self, other: "Pattern") -> "Pattern":
        """Union of two patterns."""
        if not isinstance(other, Pattern):
            return NotImplemented
        if self.is_wildcard() or other.is_wildcard():
            return ANY
        return CompositePattern((self, other))


class WildcardPattern(Pattern):
    """Matches every value; the ``*`` of the compact syntax."""

    __slots__ = ()

    def matches(self, value: object) -> bool:
        return True

    def spec(self) -> str:
        return "*"

    def is_wildcard(self) -> bool:
        return True

    def eval(self, values: Iterable[object]) -> list:
        return list(values)


#: Shared wildcard instance.
ANY = WildcardPattern()


class LiteralPattern(Pattern):
    """Matches exactly one value.

    Comparison is string-insensitive for convenience: the literal
    ``120`` matches both the integer ``120`` and the string ``"120"``,
    since tuple identifiers may surface either way depending on the
    stream schema.
    """

    __slots__ = ("_value", "_text")

    def __init__(self, value: Hashable):
        self._value = value
        self._text = str(value)

    @property
    def value(self) -> Hashable:
        return self._value

    def matches(self, value: object) -> bool:
        return value == self._value or str(value) == self._text

    def spec(self) -> str:
        return self._text


class SetPattern(Pattern):
    """Matches any value in a finite set."""

    __slots__ = ("_values", "_texts")

    def __init__(self, values: Iterable[Hashable]):
        values = frozenset(values)
        if not values:
            raise PatternError("SetPattern requires at least one value")
        self._values = values
        try:
            # A str value is its own text, so a set of names (every
            # value a str: join takes nothing else) is its own text set.
            "".join(values)
            self._texts = values
        except TypeError:
            self._texts = frozenset(map(str, values))

    @property
    def values(self) -> frozenset:
        return self._values

    @property
    def texts(self) -> frozenset[str]:  # ``values`` itself for names
        return self._texts

    def matches(self, value: object) -> bool:
        return value in self._values or str(value) in self._texts

    def spec(self) -> str:
        return "{" + ", ".join(sorted(self._texts)) + "}"


class RangePattern(Pattern):
    """Matches numeric values in the inclusive range ``[low, high]``.

    Non-numeric values never match.
    """

    __slots__ = ("_low", "_high")

    def __init__(self, low: float, high: float):
        if low > high:
            raise PatternError(f"empty range [{low}-{high}]")
        self._low = low
        self._high = high

    @property
    def low(self) -> float:
        return self._low

    @property
    def high(self) -> float:
        return self._high

    def matches(self, value: object) -> bool:
        num = _as_number(value)
        if num is None:
            return False
        return self._low <= num <= self._high

    def spec(self) -> str:
        return f"[{_format_number(self._low)}-{_format_number(self._high)}]"


class RegexPattern(Pattern):
    """Matches values whose string form fully matches a regex."""

    __slots__ = ("_source", "_compiled")

    def __init__(self, source: str):
        try:
            self._compiled = re.compile(source)
        except re.error as exc:
            raise PatternError(f"invalid regular expression {source!r}: {exc}") from exc
        self._source = source

    @property
    def source(self) -> str:
        return self._source

    def matches(self, value: object) -> bool:
        return self._compiled.fullmatch(str(value)) is not None

    def spec(self) -> str:
        return f"/{self._source}/"


class CompositePattern(Pattern):
    """Union of sub-patterns: matches if any sub-pattern matches."""

    __slots__ = ("_parts",)

    def __init__(self, parts: Sequence[Pattern]):
        flat: list[Pattern] = []
        for part in parts:
            if isinstance(part, CompositePattern):
                flat.extend(part.parts)
            else:
                flat.append(part)
        if not flat:
            raise PatternError("CompositePattern requires at least one part")
        self._parts = tuple(flat)

    @property
    def parts(self) -> tuple[Pattern, ...]:
        return self._parts

    def matches(self, value: object) -> bool:
        return any(part.matches(value) for part in self._parts)

    def spec(self) -> str:
        return "|".join(sorted(part.spec() for part in self._parts))

    def is_wildcard(self) -> bool:
        return any(part.is_wildcard() for part in self._parts)


def literal(value: Hashable) -> LiteralPattern:
    """Pattern matching exactly ``value``."""
    return LiteralPattern(value)


def one_of(values: Iterable[Hashable]) -> Pattern:
    """Pattern matching any of ``values``; collapses singletons.  A
    frozenset is kept as is, as the set pattern's values."""
    if not isinstance(values, frozenset):
        values = list(values)
    if len(values) == 1:
        return LiteralPattern(next(iter(values)))
    return SetPattern(values)


def numeric_range(low: float, high: float) -> RangePattern:
    """Pattern matching numbers in the inclusive range ``[low, high]``."""
    return RangePattern(low, high)


def regex(source: str) -> RegexPattern:
    """Pattern matching values whose string form matches ``source``."""
    return RegexPattern(source)


def parse_pattern(text: str) -> Pattern:
    """Parse the compact pattern syntax described in the module docstring.

    >>> parse_pattern("*").is_wildcard()
    True
    >>> parse_pattern("[120-133]").matches(125)
    True
    >>> parse_pattern("{a, b}").matches("b")
    True
    """
    return _parse(text, False)


def parse_names(text: str) -> Pattern:
    """:func:`parse_pattern` over *names* (an SRP's roles): a literal or
    set token, also in a union, is the name as written (``007`` stays
    ``"007"``) and must be one (:func:`is_name`, else PatternError); a
    set's names are one frozenset, its values and texts alike."""
    return _parse(text, True)


#: Pattern and sp-text syntax other than ``,``: no name contains one.
_SYNTAX = re.compile(r"[|{}\[\]/<>]")


def is_name(text: str) -> bool:
    """Whether :func:`parse_names` reads ``text`` back as itself: not
    empty, not ``*``, unpadded, none of ``, | { } [ ] / < >``."""
    return (text not in ("", "*") and text == text.strip()
            and "," not in text and _SYNTAX.search(text) is None)


def _parse(text: str, names: bool) -> Pattern:
    text = text.strip()
    if not text:
        raise PatternError("empty pattern")
    # Top-level union: split on '|' outside brackets/braces/regex bodies.
    if "|" in text:
        parts = _split_union(text)
        if len(parts) > 1:
            return CompositePattern(
                tuple(_parse(part, names) for part in parts))
    return _parse_atom(text, names)


def _split_union(text: str) -> list[str]:
    parts: list[str] = []
    depth = 0
    in_regex = False
    current: list[str] = []
    for ch in text:
        if in_regex:
            current.append(ch)
            if ch == "/":
                in_regex = False
            continue
        if ch == "/" and not current:
            in_regex = True
            current.append(ch)
            continue
        if ch in "[{(":
            depth += 1
        elif ch in "]})":
            depth -= 1
        if ch == "|" and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    parts.append("".join(current))
    return [p.strip() for p in parts if p.strip()]


_RANGE_RE = re.compile(
    r"^\[\s*(-?\d+(?:\.\d+)?)\s*-\s*(-?\d+(?:\.\d+)?)\s*\]$"
)


def _parse_atom(text: str, names: bool) -> Pattern:
    if text == "*":
        return ANY
    if text.startswith("/") and text.endswith("/") and len(text) >= 2:
        return RegexPattern(text[1:-1])
    if text.startswith("{") and text.endswith("}"):
        inner = text[1:-1].strip()
        if not inner:
            raise PatternError(f"empty set pattern: {text!r}")
        tokens = map(str.strip, inner.split(","))
        if not names:
            return one_of([_coerce(token) for token in tokens])
        found = frozenset(tokens)
        # is_name for every token, as one scan of the set body.
        if _SYNTAX.search(inner) or "" in found or "*" in found:
            raise PatternError(f"not a set of names: {text!r}")
        return one_of(found)
    match = _RANGE_RE.match(text)
    if match:
        low = _coerce(match.group(1))
        high = _coerce(match.group(2))
        return RangePattern(float(low), float(high))
    if any(ch in text for ch in "[]{}"):
        raise PatternError(f"malformed pattern: {text!r}")
    if names and not is_name(text):
        raise PatternError(f"not a name: {text!r}")
    return LiteralPattern(text if names else _coerce(text))


#: Bound of the token memo, in entries (not bytes): tokens come from
#: provider-sent sp text, but never a role token (see parse_names).
_TOKEN_MEMO_SIZE = 4096


@functools.lru_cache(maxsize=_TOKEN_MEMO_SIZE)
def _coerce(text: str) -> Hashable:
    """Interpret a token as int, float, or plain string (memoised)."""
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def _as_number(value: object) -> float | None:
    if isinstance(value, bool):
        return None
    if isinstance(value, (int, float)):
        return float(value)
    try:
        return float(str(value))
    except (TypeError, ValueError):
        return None


def _format_number(value: float) -> str:
    if value == int(value):
        return str(int(value))
    return str(value)
