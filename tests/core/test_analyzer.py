"""Tests for the SP Analyzer: combination, refinement, normalization."""

from repro.core.analyzer import (SPAnalyzer, combine_batch, conjoin_ddp,
                                 conjoin_patterns, conjunction_is_empty)
from repro.core.bitmap import RoleUniverse
from repro.core.patterns import ANY, literal, numeric_range, one_of, regex
from repro.core.punctuation import (DataDescription, SecurityPunctuation,
                                    SecurityRestriction, Sign)
from repro.stream.tuples import DataTuple


def grant(roles, ts=1.0, provider="p", **kwargs):
    return SecurityPunctuation.grant(roles, ts, provider=provider, **kwargs)


class TestConjoinPatterns:
    def test_wildcard_absorbs(self):
        assert conjoin_patterns(ANY, literal("x")) == literal("x")
        assert conjoin_patterns(literal("x"), ANY) == literal("x")

    def test_equal_patterns(self):
        assert conjoin_patterns(literal(5), literal(5)) == literal(5)

    def test_enumerable_intersection(self):
        result = conjoin_patterns(one_of([1, 2, 3]), one_of([2, 3, 4]))
        assert result is not None
        assert result.matches(2) and result.matches(3)
        assert not result.matches(1) and not result.matches(4)

    def test_disjoint_enumerables_empty(self):
        result = conjoin_patterns(literal(1), literal(2))
        assert conjunction_is_empty(result)

    def test_range_intersection(self):
        result = conjoin_patterns(numeric_range(0, 10), numeric_range(5, 20))
        assert result is not None
        assert result.matches(7)
        assert not result.matches(3)
        assert not result.matches(15)

    def test_disjoint_ranges_empty(self):
        assert conjunction_is_empty(
            conjoin_patterns(numeric_range(0, 5), numeric_range(10, 20)))

    def test_enumerable_filtered_by_range(self):
        result = conjoin_patterns(one_of([3, 8, 15]), numeric_range(0, 10))
        assert result is not None
        assert result.matches(3) and result.matches(8)
        assert not result.matches(15)

    def test_two_regexes_undecidable(self):
        assert conjoin_patterns(regex("a+"), regex("b+")) is None


class TestConjoinDDP:
    def test_wildcard_ddp_absorbs(self):
        specific = DataDescription(stream=literal("s1"),
                                   tuple_id=numeric_range(1, 9))
        assert conjoin_ddp(DataDescription(), specific) == specific

    def test_disjoint_streams_is_none(self):
        a = DataDescription(stream=literal("s1"))
        b = DataDescription(stream=literal("s2"))
        assert conjoin_ddp(a, b) is None


class TestCombineBatch:
    def test_merges_same_ddp_sign_ts(self):
        batch = [grant(["C"]), grant(["D"])]
        combined = combine_batch(batch)
        assert len(combined) == 1
        assert combined[0].roles() == frozenset({"C", "D"})

    def test_distinct_ddps_not_merged(self):
        batch = [grant(["C"], stream=literal("s1")),
                 grant(["D"], stream=literal("s2"))]
        assert len(combine_batch(batch)) == 2

    def test_signs_not_merged(self):
        batch = [grant(["C"]),
                 SecurityPunctuation.deny(["D"], 1.0, provider="p")]
        assert len(combine_batch(batch)) == 2

    def test_preserves_order(self):
        batch = [grant(["C"], stream=literal("s1")),
                 grant(["D"], stream=literal("s2")),
                 grant(["E"], stream=literal("s1"))]
        combined = combine_batch(batch)
        assert combined[0].roles() == frozenset({"C", "E"})
        assert combined[1].roles() == frozenset({"D"})


class TestServerRefinement:
    def test_server_intersects_roles(self):
        analyzer = SPAnalyzer()
        analyzer.add_server_policy(
            SecurityPunctuation.grant(["C", "D"], ts=0.0))
        out = analyzer.process_batch([grant(["C", "D", "ND"])])
        assert len(out) == 1
        assert out[0].roles() == frozenset({"C", "D"})

    def test_immutable_sp_bypasses_server(self):
        analyzer = SPAnalyzer()
        analyzer.add_server_policy(SecurityPunctuation.grant(["C"], ts=0.0))
        out = analyzer.process_batch([grant(["D", "ND"], immutable=True)])
        assert out[0].roles() == frozenset({"D", "ND"})

    def test_empty_refinement_yields_deny_all_boundary(self):
        """A batch refined away must still mark the segment boundary —
        as an explicit grant-nobody policy, not by disappearing (which
        would leave the previous policy in force)."""
        analyzer = SPAnalyzer()
        analyzer.add_server_policy(SecurityPunctuation.grant(["X"], ts=0.0))
        out = analyzer.process_batch([grant(["Y"])])
        assert len(out) == 1
        boundary = out[0]
        assert not boundary.is_positive
        assert boundary.srp.roles.is_wildcard()
        assert boundary.ts == 1.0

    def test_unmatched_open_pattern_grants_no_server_role(self):
        """An open role pattern that matched no known role grants the
        server roles it matches: none, so the batch is refined away."""
        analyzer = SPAnalyzer(RoleUniverse())
        analyzer.add_server_policy(SecurityPunctuation.grant(["A"], ts=0.0))
        sp = SecurityPunctuation(ddp=DataDescription(),
                                 srp=SecurityRestriction.parse("/C|E/"),
                                 ts=1.0, provider="p")
        out = analyzer.process_batch([sp])
        assert [(o.is_positive, o.srp.roles.is_wildcard()) for o in out] \
            == [(False, True)]

    def test_open_pattern_keeps_the_server_roles_it_matches(self):
        analyzer = SPAnalyzer(RoleUniverse())
        analyzer.add_server_policy(
            SecurityPunctuation.grant(["A", "B"], ts=0.0))
        sp = SecurityPunctuation(ddp=DataDescription(),
                                 srp=SecurityRestriction.parse("/[AC]/"),
                                 ts=1.0, provider="p")
        out = analyzer.process_batch([sp])
        assert [o.roles() for o in out] == [frozenset({"A"})]

    def test_disjoint_server_scope_leaves_sp_untouched(self):
        analyzer = SPAnalyzer()
        analyzer.add_server_policy(SecurityPunctuation.grant(
            ["C"], ts=0.0, stream=literal("other")))
        provider_sp = grant(["D"], stream=literal("s1"))
        out = analyzer.process_batch([provider_sp])
        assert out[0].roles() == frozenset({"D"})

    def test_partial_overlap_splits_scope(self):
        analyzer = SPAnalyzer()
        analyzer.add_server_policy(SecurityPunctuation.grant(
            ["C"], ts=0.0, tuple_id=one_of([1, 2])))
        out = analyzer.process_batch(
            [grant(["C", "D"], tuple_id=one_of([1, 2, 3]))])
        # Refined part: tids {1,2} roles {C}; remainder: tid {3} roles {C,D}.
        by_roles = {sp.roles(): sp for sp in out}
        assert frozenset({"C"}) in by_roles
        assert frozenset({"C", "D"}) in by_roles
        assert by_roles[frozenset({"C"})].describes("s", 1)
        assert not by_roles[frozenset({"C"})].describes("s", 3)
        assert by_roles[frozenset({"C", "D"})].describes("s", 3)

    def test_negative_server_sp_joins_batch(self):
        analyzer = SPAnalyzer()
        analyzer.add_server_policy(SecurityPunctuation.deny(["ND"], ts=0.0))
        out = analyzer.process_batch([grant(["C", "ND"])])
        signs = {sp.sign.value for sp in out}
        assert signs == {"+", "-"}
        # All batch members share the provider batch timestamp.
        assert {sp.ts for sp in out} == {1.0}


class TestNormalization:
    def test_open_pattern_resolved_against_universe(self):
        universe = RoleUniverse(["r1", "r2", "nurse"])
        analyzer = SPAnalyzer(universe)
        sp = SecurityPunctuation(
            ddp=DataDescription(),
            srp=SecurityRestriction.parse("/r[0-9]+/"),
            ts=1.0, provider="p")
        out = analyzer.process_batch([sp])
        assert out[0].roles() == frozenset({"r1", "r2"})

    def test_concrete_roles_registered(self):
        analyzer = SPAnalyzer()
        analyzer.process_batch([grant(["brand_new_role"])])
        assert "brand_new_role" in analyzer.universe

    @staticmethod
    def unmatched(**kwargs):
        return SecurityPunctuation(
            ddp=DataDescription(stream=literal("s")),
            srp=SecurityRestriction.parse("/Z.*/"), ts=1.0, provider="p",
            **kwargs)

    def test_a_pattern_matching_no_role_grants_nobody(self):
        """Resolved at the entry, no reader after it sees the open
        grant: the sp contributes nothing to its batch, and a batch of
        nothing else is the explicit grant-nobody boundary."""
        analyzer = SPAnalyzer(RoleUniverse(["A"]))
        assert analyzer.process_batch([grant(["A"]), self.unmatched()]) == [
            grant(["A"])]
        (boundary,) = analyzer.process_batch([self.unmatched()])
        assert not boundary.is_positive and boundary.srp.roles.is_wildcard()
        # A denial keeps its pattern: it denies nobody known yet.
        denial = self.unmatched(sign=Sign.NEGATIVE)
        assert analyzer.process_batch([denial]) == [denial]

    def test_an_incremental_delta_to_nobody_is_a_no_op(self):
        analyzer = SPAnalyzer(RoleUniverse(["A"]))
        assert analyzer.process_batch([SecurityPunctuation(
            ddp=DataDescription(), srp=SecurityRestriction.parse("/Z.*/"),
            ts=1.0, provider="p", incremental=True)]) == []


class TestAnalyzeStream:
    def test_tuples_pass_through_and_batches_rewritten(self):
        analyzer = SPAnalyzer()
        elements = [
            grant(["C"], ts=1.0),
            grant(["D"], ts=1.0),
            DataTuple("s1", 1, {"v": 1}, 2.0),
            grant(["E"], ts=3.0),
            DataTuple("s1", 2, {"v": 2}, 4.0),
        ]
        out = list(analyzer.analyze(elements))
        sps = [e for e in out if isinstance(e, SecurityPunctuation)]
        tuples = [e for e in out if isinstance(e, DataTuple)]
        assert len(tuples) == 2
        assert len(sps) == 2  # first batch combined into one sp
        assert sps[0].roles() == frozenset({"C", "D"})
        assert analyzer.sps_in == 3
        assert analyzer.sps_out == 2

    def test_trailing_batch_flushed(self):
        analyzer = SPAnalyzer()
        out = list(analyzer.analyze([grant(["C"], ts=1.0)]))
        assert len(out) == 1

    def test_different_ts_batches_kept_separate(self):
        analyzer = SPAnalyzer()
        out = list(analyzer.analyze([grant(["C"], ts=1.0),
                                     grant(["D"], ts=2.0)]))
        assert len(out) == 2
