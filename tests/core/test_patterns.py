"""Tests for the eval(N, e) pattern language."""

import pytest

from repro.core.patterns import (ANY, CompositePattern, LiteralPattern,
                                 RangePattern, RegexPattern, SetPattern,
                                 literal, numeric_range, one_of,
                                 parse_pattern, regex)
from repro.errors import PatternError


class TestWildcard:
    def test_matches_everything(self):
        assert ANY.matches("anything")
        assert ANY.matches(42)
        assert ANY.matches(None)

    def test_is_wildcard(self):
        assert ANY.is_wildcard()
        assert not literal("x").is_wildcard()

    def test_eval_returns_all(self):
        assert ANY.eval([1, 2, 3]) == [1, 2, 3]


class TestLiteral:
    def test_exact_match(self):
        assert literal(120).matches(120)
        assert not literal(120).matches(121)

    def test_string_insensitive(self):
        # Tuple ids may surface as int or str depending on the schema.
        assert literal(120).matches("120")
        assert literal("120").matches(120)

    def test_eval_subset(self):
        assert literal("b").eval(["a", "b", "c"]) == ["b"]


class TestSet:
    def test_membership(self):
        pattern = one_of(["C", "D", "ND"])
        assert pattern.matches("D")
        assert not pattern.matches("GP")

    def test_singleton_collapses_to_literal(self):
        assert isinstance(one_of(["C"]), LiteralPattern)

    def test_empty_set_rejected(self):
        with pytest.raises(PatternError):
            SetPattern([])

    def test_order_insensitive_equality(self):
        assert SetPattern([1, 2]) == SetPattern([2, 1])
        assert hash(SetPattern([1, 2])) == hash(SetPattern([2, 1]))


class TestRange:
    def test_inclusive_bounds(self):
        pattern = numeric_range(120, 133)
        assert pattern.matches(120)
        assert pattern.matches(133)
        assert pattern.matches(125)
        assert not pattern.matches(119)
        assert not pattern.matches(134)

    def test_numeric_strings_match(self):
        assert numeric_range(120, 133).matches("125")

    def test_non_numeric_never_matches(self):
        assert not numeric_range(0, 10).matches("abc")
        assert not numeric_range(0, 10).matches(None)

    def test_bool_is_not_numeric(self):
        assert not numeric_range(0, 10).matches(True)

    def test_empty_range_rejected(self):
        with pytest.raises(PatternError):
            numeric_range(10, 5)


class TestRegex:
    def test_fullmatch_semantics(self):
        pattern = regex("12[0-9]")
        assert pattern.matches(125)
        assert not pattern.matches(1250)  # no partial match

    def test_invalid_regex_rejected(self):
        with pytest.raises(PatternError):
            regex("([")


class TestComposite:
    def test_union_matching(self):
        pattern = literal("a") | literal("b")
        assert pattern.matches("a")
        assert pattern.matches("b")
        assert not pattern.matches("c")

    def test_union_with_wildcard_is_wildcard(self):
        assert (literal("a") | ANY).is_wildcard()

    def test_nested_composites_flatten(self):
        pattern = CompositePattern(
            (CompositePattern((literal(1), literal(2))), literal(3)))
        assert all(not isinstance(p, CompositePattern)
                   for p in pattern.parts)

    def test_empty_composite_rejected(self):
        with pytest.raises(PatternError):
            CompositePattern(())


class TestParse:
    def test_wildcard(self):
        assert parse_pattern("*") is ANY

    def test_literal_number(self):
        pattern = parse_pattern("120")
        assert isinstance(pattern, LiteralPattern)
        assert pattern.matches(120)

    def test_set(self):
        pattern = parse_pattern("{a, b, c}")
        assert pattern.matches("b")
        assert not pattern.matches("d")

    def test_range(self):
        pattern = parse_pattern("[120-133]")
        assert isinstance(pattern, RangePattern)
        assert pattern.matches(130)

    def test_negative_range(self):
        pattern = parse_pattern("[-10-10]")
        assert pattern.matches(-5)

    def test_regex(self):
        pattern = parse_pattern("/s[0-9]+/")
        assert isinstance(pattern, RegexPattern)
        assert pattern.matches("s12")

    def test_union(self):
        pattern = parse_pattern("120|[200-210]")
        assert pattern.matches(120)
        assert pattern.matches(205)
        assert not pattern.matches(150)

    def test_union_inside_braces_not_split(self):
        # The '|' inside a regex body must not split the union.
        pattern = parse_pattern("/a|b/")
        assert isinstance(pattern, RegexPattern)

    def test_empty_rejected(self):
        with pytest.raises(PatternError):
            parse_pattern("   ")

    def test_malformed_rejected(self):
        with pytest.raises(PatternError):
            parse_pattern("{unclosed")

    def test_bar_that_splits_nothing_is_still_an_atom(self):
        # parse_pattern only looks for a union when the text has a
        # '|'; a '|' that yields a single part must parse as before.
        assert isinstance(parse_pattern("/a|b/|/c/"), CompositePattern)
        assert parse_pattern("a|").spec() == "a|"

    def test_token_memo_is_bounded_and_type_preserving(self):
        from repro.core import patterns

        for i in range(10_000):
            assert parse_pattern(f"tok{i}").matches(f"tok{i}")
        info = patterns._coerce.cache_info()
        assert info.maxsize is not None
        assert info.currsize <= info.maxsize
        for _ in range(2):
            assert parse_pattern("{1, 2.5, x}").values == {1, 2.5, "x"}
            assert type(parse_pattern("7").value) is int
            assert type(parse_pattern("7.0").value) is float

    def test_round_trip_spec(self):
        for text in ("*", "120", "{a, b}", "[120-133]", "/x+/"):
            pattern = parse_pattern(text)
            again = parse_pattern(pattern.spec())
            assert again == pattern
