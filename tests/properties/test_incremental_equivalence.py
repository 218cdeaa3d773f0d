"""Property test: delta-encoded policy streams ≡ absolute streams.

For any sequence of (absolute) segment policies, the same sequence can
be transmitted as incremental sps — grant the added roles, retract the
removed ones.  Enforcement must be indistinguishable: the Security
Shield delivers exactly the same tuples either way, for every role —
directly, and downstream of every other sp-aware operator (they all
read sps through the one ``PolicyTracker``).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.punctuation import SecurityPunctuation
from repro.operators.dupelim import DuplicateElimination
from repro.operators.groupby import GroupBy
from repro.operators.index_join import IndexSAJoin
from repro.operators.join import NestedLoopSAJoin
from repro.operators.setops import Union
from repro.operators.shield import SecurityShield
from repro.stream.tuples import DataTuple

from tests.properties.strategies import ROLE_POOL, role_sets


@st.composite
def policy_sequences(draw):
    """[(roles, n_tuples), ...] — one entry per segment."""
    n_segments = draw(st.integers(1, 8))
    return [(draw(role_sets), draw(st.integers(0, 3)))
            for _ in range(n_segments)]


def absolute_stream(sequence):
    elements = []
    ts = 0.0
    tid = 0
    for roles, n_tuples in sequence:
        ts += 1.0
        elements.append(SecurityPunctuation.grant(sorted(roles), ts))
        for _ in range(n_tuples):
            ts += 1.0
            elements.append(DataTuple("s", tid, {"v": tid, "k": 0}, ts))
            tid += 1
    return elements


def delta_stream(sequence):
    """The same policies, transmitted as deltas where possible."""
    elements = []
    ts = 0.0
    tid = 0
    current: frozenset = frozenset()
    for roles, n_tuples in sequence:
        ts += 1.0
        roles = frozenset(roles)
        added = roles - current
        removed = current - roles
        if current == roles:
            # Policy unchanged: a no-op delta (retracting a role that
            # was never granted) still marks the batch boundary.
            elements.append(
                SecurityPunctuation.retract_roles(["__nobody__"], ts))
        else:
            for role in sorted(added):
                elements.append(SecurityPunctuation.add_roles([role], ts))
            for role in sorted(removed):
                elements.append(
                    SecurityPunctuation.retract_roles([role], ts))
        current = roles
        for _ in range(n_tuples):
            ts += 1.0
            elements.append(DataTuple("s", tid, {"v": tid, "k": 0}, ts))
            tid += 1
    return elements


def shield_tids(elements, role):
    shield = SecurityShield([role])
    out = []
    for element in elements:
        for item in shield.process(element):
            if isinstance(item, DataTuple):
                out.append(item.tid)
    return out


#: Every other sp-aware operator; the binary ones match on ``k``.
SP_AWARE = {
    "union": Union,
    "sajoin-nl-pf": lambda: NestedLoopSAJoin("k", "k", 1000.0, method="PF"),
    "sajoin-nl-fp": lambda: NestedLoopSAJoin("k", "k", 1000.0, method="FP"),
    "sajoin-index": lambda: IndexSAJoin("k", "k", 1000.0),
    "dupelim": lambda: DuplicateElimination(1000.0),
    "groupby": lambda: GroupBy("k", "sum", "v", window=1000.0),
}


def delivered_through(operator, elements, role):
    """What ``role`` receives from ``operator`` fed ``elements`` on port
    0; a binary operator's port 1 holds one tuple everybody may read."""
    produced = []
    if operator.arity == 2:
        produced += operator.process(
            SecurityPunctuation.grant(sorted(ROLE_POOL), 0.0), 1)
        produced += operator.process(DataTuple("r", 0, {"k": 0}, 0.5), 1)
    for element in elements:
        produced += operator.process(element, 0)
    shield = SecurityShield([role])
    return [item for element in produced
            for item in shield.process(element)
            if isinstance(item, DataTuple)]


class TestDeltaEquivalence:
    @given(policy_sequences(), st.sampled_from(ROLE_POOL))
    @settings(max_examples=60, deadline=None)
    def test_delta_and_absolute_enforce_identically(self, sequence, role):
        absolute = absolute_stream(sequence)
        delta = delta_stream(sequence)
        assert shield_tids(delta, role) == shield_tids(absolute, role)

    @given(policy_sequences())
    @settings(max_examples=30, deadline=None)
    def test_holds_for_every_role_simultaneously(self, sequence):
        absolute = absolute_stream(sequence)
        delta = delta_stream(sequence)
        for role in ROLE_POOL:
            assert shield_tids(delta, role) == \
                shield_tids(absolute, role), role

    @pytest.mark.parametrize("name", SP_AWARE)
    @given(policy_sequences())
    @settings(max_examples=30, deadline=None)
    def test_holds_downstream_of_every_sp_aware_operator(self, name,
                                                         sequence):
        absolute = absolute_stream(sequence)
        delta = delta_stream(sequence)
        for role in ROLE_POOL:
            assert delivered_through(SP_AWARE[name](), delta, role) == \
                delivered_through(SP_AWARE[name](), absolute, role), role
