"""Property tests for stateful-operator invariants.

* Duplicate elimination: for every role, the *visible* output values
  equal the visible distinct input values (no missed values, no
  duplicate deliveries) — within an unbounded window.
* Group-by: incremental windowed aggregates equal batch recomputation
  over the live window at every step, per subgroup.
* SP Analyzer: processing a batch is deterministic, and re-processing
  its own output changes nothing further (idempotence).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.analyzer import SPAnalyzer
from repro.core.punctuation import SecurityPunctuation
from repro.operators.dupelim import DuplicateElimination
from repro.operators.groupby import GroupBy
from repro.stream.tuples import DataTuple

from tests.properties.strategies import ROLE_POOL, punctuated_streams


def drive(op, elements):
    out = []
    for element in elements:
        out.extend(op.process(element))
    return out


def visible_output_values(out_elements, role):
    """Values of output tuples whose governing output policy holds role."""
    current: frozenset = frozenset()
    values = []
    batch_ts = None
    in_batch = False
    for element in out_elements:
        if isinstance(element, SecurityPunctuation):
            if in_batch and element.ts == batch_ts:
                current = current | element.roles()
            else:
                current = element.roles()
                batch_ts = element.ts
            in_batch = True
        else:
            in_batch = False
            if role in current:
                values.append(element.values["v"])
    return values


class TestDupElimVisibility:
    @given(punctuated_streams(value_range=3), st.sampled_from(ROLE_POOL))
    @settings(max_examples=50, deadline=None)
    def test_role_visibility_complete(self, elements, role):
        """Every distinct value visible to a role in the input is
        delivered to that role — and nothing it may not see is.

        (Exactly-once is *not* the paper's invariant: case 1 stores
        ``Pnew``, forgetting who saw the value before a disjoint-policy
        switch, so a role can legitimately be re-delivered a value
        after such a reset.)
        """
        de = DuplicateElimination(window=1e9, attributes=("v",))
        out = drive(de, elements)
        seen_out = visible_output_values(out, role)
        from tests.properties.strategies import visible_tids
        visible = set(visible_tids(elements, role))
        distinct_in = {element.values["v"] for element in elements
                       if isinstance(element, DataTuple)
                       and element.tid in visible}
        assert set(seen_out) == distinct_in

    @given(punctuated_streams(value_range=3), st.sampled_from(ROLE_POOL))
    @settings(max_examples=30, deadline=None)
    def test_exactly_once_under_stable_policies(self, elements, role):
        """With no disjoint-policy switches (every consecutive pair of
        policies shares a role), each value is delivered exactly once
        per role."""
        # Make policies overlap: add a common role to every sp.
        stabilized = []
        for element in elements:
            if isinstance(element, SecurityPunctuation):
                stabilized.append(element.with_roles(
                    sorted(element.roles() | {"omni"})))
            else:
                stabilized.append(element)
        de = DuplicateElimination(window=1e9, attributes=("v",))
        out = drive(de, stabilized)
        seen_out = visible_output_values(out, role)
        assert len(seen_out) == len(set(seen_out))


class _ReferenceASG:
    """Mirror of the operator's ASG lifecycle, but *batch* aggregated.

    Merging follows the same policy-overlap rules as the operator
    (merges are permanent for the subgroup's lifetime; a subgroup dies
    when all its values expire).  Aggregates, however, are recomputed
    from the stored values on every query — so comparing against the
    operator checks that its *incremental* add/remove arithmetic never
    drifts from batch recomputation.
    """

    def __init__(self):
        self.subgroups: dict[object, list[dict]] = {}

    def expire(self, horizon: float) -> None:
        for group, subgroups in list(self.subgroups.items()):
            for subgroup in subgroups:
                subgroup["values"] = [
                    (ts, v) for ts, v in subgroup["values"] if ts > horizon]
            self.subgroups[group] = [s for s in subgroups if s["values"]]

    def add(self, group: object, roles: frozenset, ts: float,
            value: object) -> list:
        subgroups = self.subgroups.setdefault(group, [])
        matching = [s for s in subgroups if s["roles"] & roles]
        if not matching:
            target = {"roles": set(roles), "values": []}
            subgroups.append(target)
        else:
            target = matching[0]
            for other in matching[1:]:
                target["roles"] |= other["roles"]
                target["values"] = sorted(
                    target["values"] + other["values"])
                subgroups.remove(other)
            target["roles"] |= roles
        target["values"].append((ts, value))
        return [v for _, v in target["values"]]


class TestGroupByIncrementalCorrectness:
    @given(punctuated_streams(value_range=4),
           st.sampled_from(["sum", "count", "min", "max", "avg"]))
    @settings(max_examples=40, deadline=None)
    def test_matches_batch_recomputation(self, elements, agg):
        window = 15.0
        gb = GroupBy("key", agg, "v", window=window)
        reference = _ReferenceASG()
        from repro.operators.base import PolicyTracker
        tracker = PolicyTracker("s")

        for element in elements:
            out = gb.process(element)
            if isinstance(element, SecurityPunctuation):
                tracker.observe_sp(element)
                continue
            policy = tracker.policy_for(element)
            reference.expire(element.ts - window)
            if policy.is_empty():
                assert not [e for e in out if isinstance(e, DataTuple)]
                continue
            members = reference.add(
                element.values.get("key"), policy.roles,
                element.ts, element.values["v"])
            result_tuples = [e for e in out if isinstance(e, DataTuple)]
            assert result_tuples, "visible tuple must refresh its ASG"
            final = result_tuples[-1]
            expected = _batch_agg(agg, members)
            assert final.values[f"{agg}(v)"] == expected


def _batch_agg(agg, values):
    if agg == "count":
        return len(values)
    if not values:
        return None if agg in ("min", "max", "avg") else 0
    if agg == "sum":
        return sum(values)
    if agg == "min":
        return min(values)
    if agg == "max":
        return max(values)
    return sum(values) / len(values)


class TestAnalyzerIdempotence:
    @given(punctuated_streams())
    @settings(max_examples=40, deadline=None)
    def test_reprocessing_output_is_stable(self, elements):
        first = list(SPAnalyzer().analyze(elements))
        second = list(SPAnalyzer().analyze(first))

        def signature(stream):
            out = []
            for element in stream:
                if isinstance(element, SecurityPunctuation):
                    out.append(("sp", element.ts,
                                tuple(sorted(element.roles()))))
                else:
                    out.append(("t", element.tid))
            return out

        assert signature(second) == signature(first)

    @given(punctuated_streams())
    @settings(max_examples=40, deadline=None)
    def test_analyze_is_deterministic(self, elements):
        a = list(SPAnalyzer().analyze(elements))
        b = list(SPAnalyzer().analyze(elements))
        assert len(a) == len(b)
        for x, y in zip(a, b):
            if isinstance(x, SecurityPunctuation):
                assert x.roles() == y.roles()
                assert x.ts == y.ts
            else:
                assert x is y
