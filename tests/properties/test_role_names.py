"""Property: an sp's role names survive their own text and wire line.

A role name is any text that is not empty, has no surrounding
whitespace, contains none of ``, | { } [ ] / < >`` and is not ``*``.
Such a name reads back from ``to_text()`` as itself — never as a
number, a wildcard, a range, a regex or two names — every constructor
that takes role names refuses anything else, and so does the reader.
A pattern union or regex alternation has no wire spelling, so the
wire refuses to write it.  The round trip is drawn over DDPs of every
other pattern shape, providers and finite timestamps as well.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.patterns import (ANY, literal, numeric_range, one_of,
                                 regex)
from repro.core.policy import TuplePolicy
from repro.core.punctuation import (DataDescription, SecurityPunctuation,
                                    SecurityRestriction, Sign)
from repro.errors import PatternError, PunctuationError, StreamError
from repro.operators.base import SPEmitter
from repro.stream.wire import decode_element, encode_element

#: Digits, ``_``, ``.``, ``e``, ``+`` and ``-`` spell numbers (``1_0``,
#: ``007``, ``1e3``, ``-2.5``); a space and ``*`` may sit inside a name.
ALPHABET = "0123456789_.e+-ab *"

names = st.text(ALPHABET, min_size=1, max_size=6).filter(
    lambda name: name == name.strip() and name != "*")
role_lists = st.lists(names, min_size=1, max_size=5)

NOT_NAMES = ["", "*", " a", "a ", "a\n", "a,b", "a|b", "{x}", "{x",
             "x}", "[1-3]", "a[", "/r.*/", "a/b", "<a", "a>"]


#: DDP values read back as themselves through ``parse_pattern``'s
#: number coercion: small ints and identifiers that spell no number.
ddp_values = st.integers(0, 500) | st.sampled_from(
    ["s1", "HeartRate", "x", "temp_2", "bpm"])
ddp_patterns = st.one_of(
    st.just(ANY),
    ddp_values.map(literal),
    st.lists(ddp_values, min_size=2, max_size=4, unique_by=str).map(one_of),
    st.tuples(st.integers(-50, 50), st.integers(0, 50)).map(
        lambda pair: numeric_range(pair[0], pair[0] + pair[1])),
    st.sampled_from(["r[0-9]+", "s.*", "[a-c]x?"]).map(regex),
)
ddps = st.builds(DataDescription, ddp_patterns, ddp_patterns, ddp_patterns)


@given(role_lists, ddps, st.sampled_from(list(Sign)), st.booleans(),
       st.booleans(), st.none() | names,
       st.floats(allow_nan=False, allow_infinity=False))
@settings(max_examples=200, deadline=None)
def test_names_survive_their_text_and_wire_line(roles, ddp, sign, immutable,
                                                incremental, provider, ts):
    sp = SecurityPunctuation.grant(
        roles, ts, stream=ddp.stream, tuple_id=ddp.tuple_id,
        attribute=ddp.attribute, immutable=immutable, provider=provider,
        incremental=incremental).with_sign(sign)
    back = SecurityPunctuation.parse(sp.to_text(), provider=provider)
    assert back == sp
    assert back.to_text() == sp.to_text()
    assert back.roles() == sp.roles() == set(roles)
    assert back.segment_policy() == sp.segment_policy()
    line = encode_element(sp)
    decoded = decode_element(line)
    assert decoded == sp
    assert decoded.roles() == sp.roles()
    assert decoded.segment_policy() == sp.segment_policy()
    assert encode_element(decoded) == line


@pytest.mark.parametrize("bad", NOT_NAMES)
def test_every_constructor_refuses_a_name_that_would_not_read_back(bad):
    sp = SecurityPunctuation.grant(["ok"], 1.0)
    for build in (
            lambda: SecurityRestriction.for_roles([bad, "ok"]),
            lambda: SecurityRestriction.for_roles(bad),
            lambda: SecurityPunctuation.grant([bad], 1.0),
            lambda: SecurityPunctuation.deny(["ok", bad], 1.0),
            lambda: sp.with_roles([bad]),
            lambda: SPEmitter().emit(
                TuplePolicy(frozenset({bad, "ok"})), 1.0, [])):
        with pytest.raises(PunctuationError):
            build()


@pytest.mark.parametrize("srp", [
    "{ok, *}", "{ok, , b}", "{ok, a/b}", "{ok, <a}", "{ok, a>}",
    "{ok, a|b}", "{ok, {x}}", "{ok, [1-3]}", "{ok, a[}",
    "a/b", "<a", "a>", "a,b", "a|", "{ok, a/b}|/r.*/"])
def test_the_reader_refuses_a_token_no_constructor_would_write(srp):
    # Whatever SRP text reads as a role could be re-emitted by a join's
    # or group-by's ``SPEmitter``; a name that cannot be written back is
    # refused at the wire, not mid-run.
    with pytest.raises(PatternError):
        SecurityRestriction.parse(srp)
    if "|" not in srp:  # on the wire '|' separates the sp's fields
        with pytest.raises(PatternError):
            decode_element(
                '{"k":"sp","sp":"<*, *, * | %s | + | F | 1.0>"}' % srp)


def _sp(srp, stream=ANY, incremental=False):
    return SecurityPunctuation(DataDescription(stream=stream),
                               SecurityRestriction(srp), 1.0,
                               incremental=incremental)


@pytest.mark.parametrize("sp", [
    _sp(regex("r.*") | literal("a")),
    _sp(literal("a"), literal("s1") | literal("s2")),
    _sp(regex("r1|r2")),
    _sp(regex("r1|r2"), incremental=True),
], ids=["srp union", "ddp union", "regex alternation", "incremental"])
def test_the_wire_refuses_an_sp_it_cannot_spell(sp):
    # '|' separates an sp's fields, so a union or an alternation inside
    # the DDP or SRP would write a line the reader cannot take apart.
    text = sp.to_text()  # still total: audit records render it
    with pytest.raises(StreamError, match="no wire spelling"):
        encode_element(sp)
    assert getattr(sp, "_line_cache", None) is None
    with pytest.raises(PunctuationError):
        SecurityPunctuation.parse(text)


@pytest.mark.parametrize("sp", [
    _sp(regex("r[0-9]")),
    _sp(literal("a"), literal("s1"), incremental=True),
], ids=["regex", "incremental"])
def test_a_spellable_sp_still_round_trips(sp):
    line = encode_element(sp)
    back = decode_element(line)
    assert back.srp.spec() == sp.srp.spec()
    assert back.ddp.spec() == sp.ddp.spec()
    assert back.incremental == sp.incremental
    assert encode_element(back) == line


@given(names, st.sampled_from([",", "|", "{", "}", "[", "]", "/", "<",
                                ">"]), st.integers(0, 6))
def test_a_name_with_pattern_syntax_inside_is_refused(name, char, at):
    at = min(at, len(name))
    with pytest.raises(PunctuationError):
        SecurityPunctuation.grant([name[:at] + char + name[at:]], 1.0)
