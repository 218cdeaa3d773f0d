"""Tests for the security punctuation structure (Definition 3.1)."""

import dataclasses
import pickle

import pytest

from repro.core.patterns import literal, numeric_range, one_of, parse_pattern
from repro.core.punctuation import (DataDescription, Granularity,
                                    SecurityPunctuation, SecurityRestriction,
                                    Sign, SPBatch)
from repro.errors import PatternError, PunctuationError
from repro.stream.wire import decode_element
from repro.verify.faults import malformed_sp_texts


class TestSign:
    def test_parse_forms(self):
        assert Sign.parse("+") is Sign.POSITIVE
        assert Sign.parse("positive") is Sign.POSITIVE
        assert Sign.parse("-") is Sign.NEGATIVE
        assert Sign.parse("NEGATIVE") is Sign.NEGATIVE

    def test_parse_invalid(self):
        with pytest.raises(PunctuationError):
            Sign.parse("maybe")


class TestDataDescription:
    def test_granularity_levels(self):
        assert DataDescription().granularity() is Granularity.STREAM
        assert DataDescription(
            tuple_id=literal(120)).granularity() is Granularity.TUPLE
        assert DataDescription(
            attribute=literal("temp")).granularity() is Granularity.ATTRIBUTE

    def test_describes_stream_object(self):
        ddp = DataDescription(stream=literal("s1"))
        assert ddp.describes("s1")
        assert not ddp.describes("s2")

    def test_tuple_scoped_ddp_does_not_describe_whole_stream(self):
        ddp = DataDescription(stream=literal("s1"), tuple_id=literal(1))
        assert not ddp.describes("s1")  # asks about the whole stream
        assert ddp.describes("s1", 1)
        assert not ddp.describes("s1", 2)

    def test_attribute_matching(self):
        ddp = DataDescription(attribute=one_of(["temp", "bpm"]))
        assert ddp.describes("s1", 5, "temp")
        assert not ddp.describes("s1", 5, "depth")

    def test_parse_defaults_trailing_wildcards(self):
        ddp = DataDescription.parse("s1")
        assert ddp.tuple_id.is_wildcard()
        assert ddp.attribute.is_wildcard()

    def test_parse_three_parts(self):
        ddp = DataDescription.parse("s1, [120-133], temp")
        assert ddp.describes("s1", 125, "temp")

    def test_parse_too_many_parts(self):
        with pytest.raises(PunctuationError):
            DataDescription.parse("a, b, c, d")


class TestSecurityRestriction:
    def test_for_roles_concrete(self):
        srp = SecurityRestriction.for_roles(["C", "D"])
        assert srp.concrete_roles() == frozenset({"C", "D"})

    def test_for_roles_requires_roles(self):
        with pytest.raises(PunctuationError):
            SecurityRestriction.for_roles([])

    def test_open_pattern_not_concrete(self):
        srp = SecurityRestriction.parse("/r[0-9]+/")
        assert srp.concrete_roles() is None

    def test_resolve_against_universe(self):
        srp = SecurityRestriction.parse("/r[0-9]+/")
        roles = srp.resolve(["r1", "r2", "nurse"])
        assert roles == frozenset({"r1", "r2"})

    def test_authorizes(self):
        srp = SecurityRestriction.for_roles(["D"])
        assert srp.authorizes("D")
        assert not srp.authorizes("C")


class TestSecurityPunctuation:
    def test_grant_constructor(self):
        sp = SecurityPunctuation.grant(["D", "ND"], ts=5.0)
        assert sp.is_positive
        assert sp.roles() == frozenset({"D", "ND"})
        assert sp.ts == 5.0
        assert not sp.immutable

    def test_deny_constructor(self):
        sp = SecurityPunctuation.deny(["E"], ts=1.0)
        assert not sp.is_positive
        assert sp.sign is Sign.NEGATIVE

    def test_describes_via_ddp(self):
        sp = SecurityPunctuation.grant(
            ["GP"], ts=0.0, tuple_id=numeric_range(120, 133))
        assert sp.describes("any_stream", 125)
        assert not sp.describes("any_stream", 140)

    def test_roles_raises_on_open_pattern(self):
        sp = SecurityPunctuation(
            ddp=DataDescription(),
            srp=SecurityRestriction.parse("/x.*/"),
            ts=0.0,
        )
        with pytest.raises(PunctuationError):
            sp.roles()

    def test_with_roles_and_ts(self):
        sp = SecurityPunctuation.grant(["A"], ts=1.0)
        sp2 = sp.with_roles(["B"]).with_ts(2.0)
        assert sp2.roles() == frozenset({"B"})
        assert sp2.ts == 2.0
        assert sp.roles() == frozenset({"A"})  # original untouched

    def test_text_round_trip(self):
        sp = SecurityPunctuation.grant(
            ["C", "D"], ts=9.0,
            stream=literal("HeartRate"),
            tuple_id=parse_pattern("[120-133]"),
            immutable=True)
        parsed = SecurityPunctuation.parse(sp.to_text())
        assert parsed.roles() == sp.roles()
        assert parsed.ts == sp.ts
        assert parsed.immutable
        assert parsed.describes("HeartRate", 125)
        assert not parsed.describes("BodyTemperature", 125)

    def test_parse_rejects_malformed(self):
        with pytest.raises(PunctuationError):
            SecurityPunctuation.parse("not an sp")
        with pytest.raises(PunctuationError):
            SecurityPunctuation.parse("<a | b | c>")
        with pytest.raises(PunctuationError):
            SecurityPunctuation.parse("<*, *, * | D | + | F | soon>")

    def test_sp_ids_unique(self):
        a = SecurityPunctuation.grant(["D"], ts=0.0)
        b = SecurityPunctuation.grant(["D"], ts=0.0)
        assert a.sp_id != b.sp_id


class TestNanTimestamp:
    """A NaN ts compares false with every timestamp, so it would pass
    every ordering test.  Under ``run()``, ``A@5, t1@6, B@nan, t2@7,
    C@3, t3@8`` delivered t3 to a C reader: the stale ``C@3`` was not
    discarded, because ``3 < nan`` is false.  The constructor refuses
    it, so every way of building an sp does."""

    NAN = float("nan")

    def test_every_door_refuses_it(self):
        sp = SecurityPunctuation.grant(["B"], 1.0)
        for build in (
                lambda: SecurityPunctuation.grant(["B"], self.NAN),
                lambda: SecurityPunctuation.parse(
                    "<*, *, * | B | + | F | nan>"),
                lambda: SecurityPunctuation.parse(
                    "<*, *, * | B | - | F | NaN | INC>"),
                lambda: decode_element(
                    '{"k":"sp","sp":"<*, *, * | B | + | F | nan>"}'),
                lambda: sp.with_ts(self.NAN),
                lambda: dataclasses.replace(sp, ts=self.NAN)):
            with pytest.raises(PunctuationError,
                               match="sp timestamp must not be NaN"):
                build()

    @pytest.mark.parametrize("ts", [float("inf"), float("-inf")])
    def test_infinities_stay_legal(self, ts):
        sp = SecurityPunctuation.parse(
            SecurityPunctuation.grant(["B"], ts).to_text())
        assert sp.ts == ts


#: The sp whose ``malformed_sp_texts`` corruptions the table pins.
CORRUPTED = SecurityPunctuation.grant(["R1", "R2"], 3.5, provider="s")


class TestParseErrors:
    """Every malformed text raises one error class with one message."""

    #: ``malformed_sp_texts(CORRUPTED)``, in its order.
    CORRUPTIONS = [
        (PunctuationError, "sp text must be <...>: {text!r}"),
        (PunctuationError, "sp text must be <...>: {text!r}"),
        (PunctuationError,
         "sp text must have 5 '|'-separated fields: {text!r}"),
        (PunctuationError, "invalid sign: '?'"),
        (PunctuationError,
         "sp text must have 5 '|'-separated fields: {text!r}"),
        (PunctuationError, "sp text must be <...>: ''"),
        (PunctuationError, "sp timestamp must not be NaN"),
    ]

    @pytest.mark.parametrize(
        "index", range(len(CORRUPTIONS)),
        ids=["opening", "closing", "separator", "sign", "field-count",
             "empty", "nan-ts"])
    def test_each_fault_corruption(self, index):
        texts = malformed_sp_texts(CORRUPTED)
        assert len(texts) == len(self.CORRUPTIONS)
        error, message = self.CORRUPTIONS[index]
        text = texts[index]
        with pytest.raises(error) as info:
            SecurityPunctuation.parse(text)
        assert type(info.value) is error
        assert str(info.value) == message.format(text=text)

    @pytest.mark.parametrize("text, error, message", [
        ("<*, *, * | {a,, b} | + | F | 1.0>", PatternError,
         "not a set of names: '{a,, b}'"),
        ("<*, *, * | {ok, *} | + | F | 1.0>", PatternError,
         "not a set of names: '{ok, *}'"),
        ("<*, *, * | D | ? | F | 1.0>", PunctuationError,
         "invalid sign: '?'"),
        ("<*, *, * | D | + | maybe | 1.0>", PunctuationError,
         "invalid Immutable field: 'MAYBE'"),
        ("<*, *, * | D | + | F | soon>", PunctuationError,
         "invalid timestamp: 'soon'"),
        ("<*, *, * | D | + | F | 1.0 | NEW>", PunctuationError,
         "unknown sixth sp field: 'NEW'"),
        ("<*, *, * | D | + | F>", PunctuationError,
         "sp text must have 5 '|'-separated fields: "
         "'<*, *, * | D | + | F>'"),
        ("<*, *, * | D | + | F | 1.0 | INC | x>", PunctuationError,
         "sp text must have 5 '|'-separated fields: "
         "'<*, *, * | D | + | F | 1.0 | INC | x>'"),
    ], ids=["empty-name", "wildcard-name", "sign", "immutable", "ts",
            "sixth-field", "4-fields", "7-fields"])
    def test_each_malformed_field(self, text, error, message):
        with pytest.raises(error) as info:
            SecurityPunctuation.parse(text)
        assert type(info.value) is error
        assert str(info.value) == message


class TestParseMemo:
    """``DataDescription.parse`` and the role tokens are memoised per
    text (bounded in entries); role sets and sps stay fresh instances."""

    def test_sp_flood_cannot_grow_the_memos(self):
        for i in range(10_000):
            sp = SecurityPunctuation.parse(
                f"<s{i}, {i}, * | {{flood{i}, r{i}}} | + | F | {i}.0>")
            assert sp.roles() == {f"flood{i}", f"r{i}"}
        from repro.core.patterns import _coerce

        for memo in (DataDescription.parse, _coerce):
            info = memo.cache_info()
            assert info.maxsize is not None
            assert info.currsize <= info.maxsize

    @pytest.mark.parametrize("text, error", [
        ("<a, b, c, d | D | + | F | 1.0>", PunctuationError),
        ("<{unclosed | D | + | F | 1.0>", PatternError),
        ("<*, *, * | {} | + | F | 1.0>", PatternError),
        ("<*, *, * | [9-1] | + | F | 1.0>", PatternError),
    ])
    def test_malformed_field_raises_the_same_error_every_time(
            self, text, error):
        messages = []
        for _ in range(3):
            with pytest.raises(error) as info:
                SecurityPunctuation.parse(text)
            messages.append(str(info.value))
        assert len(set(messages)) == 1

    def test_equal_field_text_gives_equal_but_distinct_sps(self):
        text = "<HeartRate, [120-133], * | {C, D} | - | T | 9.0>"
        first = SecurityPunctuation.parse(text, provider="p")
        again = SecurityPunctuation.parse(text, provider="p")
        assert first == again and first is not again
        assert first.sp_id != again.sp_id
        assert first.ddp is again.ddp
        later = SecurityPunctuation.parse(text.replace("9.0", "10.0"))
        assert later.ts == 10.0 and later.provider is None
        assert later.ddp is first.ddp and later != first

    def test_round_trip_with_warm_memos(self):
        sps = [
            SecurityPunctuation.grant(["C", "D"], ts=1.0,
                                      stream=literal("HeartRate"),
                                      tuple_id=numeric_range(120, 133)),
            SecurityPunctuation.deny(["E"], ts=2.0, immutable=True),
            SecurityPunctuation.add_roles(["N"], ts=3.0,
                                          attribute=one_of(["a", "b"])),
        ]
        for _ in range(2):  # second pass is served from the memos
            for sp in sps:
                back = SecurityPunctuation.parse(sp.to_text())
                assert back == sp
                assert back.to_text() == sp.to_text()
                assert back.roles() == sp.roles()


class TestMemosStayHome:
    """An sp carries four memos (roles, text, wire line, segment
    policy).  They are derived, so they are neither shipped nor copied."""

    SPS = [
        SecurityPunctuation.grant(["C", "D", "N"], ts=1.0, provider="p"),
        SecurityPunctuation.parse("<*, *, * | {C, D, N} | + | F | 1.0>"),
        SecurityPunctuation.deny(["E"], ts=2.0, immutable=True),
        SecurityPunctuation.add_roles(["N"], ts=3.0),
        SecurityPunctuation.grant("D", ts=4.0, stream=literal("s")),
    ]

    @pytest.mark.parametrize("sp", SPS, ids=[
        "grant", "parsed", "deny", "incremental", "scoped"])
    def test_pickle_ships_the_fields_only(self, sp):
        from repro.stream.wire import encode_element

        cold = SecurityPunctuation(
            ddp=sp.ddp, srp=SecurityRestriction(sp.srp.roles), ts=sp.ts,
            sign=sp.sign, immutable=sp.immutable, provider=sp.provider,
            incremental=sp.incremental, sp_id=sp.sp_id)
        size = len(pickle.dumps(cold))
        for warm in (sp.roles, sp.to_text, sp.segment_policy,
                     lambda: encode_element(sp)):
            warm()
            assert len(pickle.dumps(sp)) == size
        back = pickle.loads(pickle.dumps(sp))
        assert back == sp and back.sp_id == sp.sp_id
        assert not hasattr(back, "__dict__")  # the slots are all it has
        for memo in ("_roles_cache", "_text_cache", "_line_cache",
                     "_policy_cache"):
            assert hasattr(sp, memo) and not hasattr(back, memo), memo
        assert not hasattr(back.srp, "__dict__")
        assert hasattr(sp.srp, "_concrete_cache")
        assert not hasattr(back.srp, "_concrete_cache")
        assert back.roles() == sp.roles()
        assert back.segment_policy() == sp.segment_policy()

    def test_segment_policy_is_built_over_the_cached_role_set(self):
        sp = SecurityPunctuation.grant(
            [f"role{i}" for i in range(10_000)], ts=1.0)
        policy = sp.segment_policy()
        assert policy.roles is sp.roles()  # no second copy
        assert policy.ts == 1.0
        assert sp.segment_policy() is policy

    def test_parsed_roles_enumerate_once(self, monkeypatch):
        from repro.core import punctuation

        calls = []
        enumerate_pattern = punctuation._enumerate_pattern

        def counting(pattern):
            calls.append(pattern)
            return enumerate_pattern(pattern)

        monkeypatch.setattr(punctuation, "_enumerate_pattern", counting)
        sp = SecurityPunctuation.parse("<*, *, * | C | + | F | 1.0>")
        assert sp.srp.concrete_roles() == sp.roles() == {"C"}
        assert sp.segment_policy().roles is sp.roles()
        assert len(calls) == 1
        open_ended = SecurityPunctuation.parse("<*, *, * | * | + | F | 1.0>")
        assert open_ended.srp.concrete_roles() is None
        assert open_ended.srp.concrete_roles() is None
        assert len(calls) == 2


class TestSPBatch:
    def test_batch_shares_timestamp(self):
        sps = [SecurityPunctuation.grant(["A"], ts=1.0),
               SecurityPunctuation.grant(["B"], ts=1.0)]
        batch = SPBatch(sps)
        assert batch.ts == 1.0
        assert len(batch) == 2

    def test_mixed_timestamps_rejected(self):
        sps = [SecurityPunctuation.grant(["A"], ts=1.0),
               SecurityPunctuation.grant(["B"], ts=2.0)]
        with pytest.raises(PunctuationError):
            SPBatch(sps)

    def test_empty_batch_rejected(self):
        with pytest.raises(PunctuationError):
            SPBatch([])
