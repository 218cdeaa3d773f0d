"""The dataflow lattice: path states, meets, dominance, stream facts."""

from repro.analysis.lattice import (PathState, StreamFacts, dominates,
                                    join_states)
from repro.core.patterns import literal
from repro.core.punctuation import SecurityPunctuation
from repro.stream.tuples import DataTuple


class TestPathState:
    def test_source_state(self):
        state = PathState.source("s", ("a", "b"))
        assert state.streams == {"s"}
        assert state.attrs == {"a", "b"}
        assert not state.shielded

    def test_shield_and_project(self):
        state = PathState.source("s", ("a", "b"))
        state = state.with_shield([frozenset({"R1"})])
        assert state.shielded
        state = state.project(["a"])
        assert state.attrs == {"a"}
        assert state.pruned == {"b"}

    def test_unknown_attrs_prune_nothing(self):
        state = PathState.source("s", None).project(["a"])
        assert state.attrs == {"a"}
        assert state.pruned == frozenset()


class TestJoinStates:
    def test_meet_is_must_analysis(self):
        left = PathState.source("l", ("a",)).with_shield(
            [frozenset({"R1"})])
        right = PathState.source("r", ("b",))
        met = join_states(left, right)
        # A guarantee survives only if both routes provide it.
        assert not met.shielded
        assert met.streams == {"l", "r"}
        assert met.attrs == {"a", "b"}

    def test_shared_shield_survives(self):
        conjunct = frozenset({"R1"})
        left = PathState.source("l", None).with_shield([conjunct])
        right = PathState.source("r", None).with_shield([conjunct])
        assert join_states(left, right).shields == {conjunct}

    def test_pruned_unions(self):
        left = PathState.source("l", ("a", "b")).project(["a"])
        right = PathState.source("r", ("c", "d")).project(["c"])
        assert join_states(left, right).pruned == {"b", "d"}

    def test_unknown_attrs_poison(self):
        left = PathState.source("l", ("a",))
        right = PathState.source("r", None)
        assert join_states(left, right).attrs is None


class TestDominates:
    def test_subset_conjunct_implies(self):
        up = [frozenset({"R1"})]
        assert dominates(up, [frozenset({"R1", "R2"})])
        assert dominates(up, [frozenset({"R1"})])

    def test_wider_upstream_does_not_imply(self):
        up = [frozenset({"R1", "R2"})]
        assert not dominates(up, [frozenset({"R1"})])

    def test_every_conjunct_must_be_implied(self):
        up = [frozenset({"R1"})]
        assert not dominates(
            up, [frozenset({"R1", "R2"}), frozenset({"R3"})])

    def test_no_upstream_never_dominates(self):
        assert not dominates([], [frozenset({"R1"})])


def _sp(roles, ts, **kw):
    return SecurityPunctuation.grant(roles, ts, provider="s", **kw)


class TestStreamFacts:
    def test_unknown_answers_none(self):
        facts = StreamFacts.unknown()
        assert facts.governed_attributes({"s"}) is None
        assert facts.heterogeneous({"s"}) is None
        assert facts.has_negative({"s"}) is None

    def test_uniform_stream(self):
        elements = [_sp(["R1"], 0.0),
                    DataTuple("s", 0, {"a": 1}, 1.0)]
        facts = StreamFacts.from_elements({"s": elements},
                                          {"s": ("a",)})
        assert facts.known
        assert facts.heterogeneous({"s"}) is False
        assert facts.governed_attributes({"s"}) == frozenset()
        assert facts.schema_of("s") == ("a",)

    def test_heterogeneous_batches_detected(self):
        elements = [_sp(["R1"], 0.0),
                    DataTuple("s", 0, {"a": 1}, 1.0),
                    _sp(["R2"], 2.0),
                    DataTuple("s", 1, {"a": 2}, 3.0)]
        facts = StreamFacts.from_elements({"s": elements}, {"s": ("a",)})
        assert facts.heterogeneous({"s"}) is True

    def test_attribute_scoped_sps_tracked(self):
        elements = [_sp(["R1"], 0.0, attribute=literal("a")),
                    DataTuple("s", 0, {"a": 1, "b": 2}, 1.0)]
        facts = StreamFacts.from_elements({"s": elements},
                                          {"s": ("a", "b")})
        assert facts.governed_attributes({"s"}) == {"a"}
        assert facts.governed_attributes({"other"}) == frozenset()

    def test_negative_sps_tracked(self):
        elements = [SecurityPunctuation.deny(["R1"], 0.0, provider="s"),
                    DataTuple("s", 0, {"a": 1}, 1.0)]
        facts = StreamFacts.from_elements({"s": elements}, {"s": ("a",)})
        assert facts.has_negative({"s"}) is True
