"""Incremental access-control changes at runtime (paper future work).

The sp model's core claim: because policies stream with the data, a
policy change takes effect immediately at the point it appears in the
stream, with no server-side bookkeeping.  These tests drive long
streams with rapidly churning policies and verify enforcement tracks
every change exactly.
"""

import random

import pytest

from repro.algebra.expressions import ScanExpr
from repro.core.punctuation import SecurityPunctuation
from repro.engine.dsms import DSMS
from repro.operators.shield import SecurityShield
from repro.stream.schema import StreamSchema
from repro.stream.tuples import DataTuple

SCHEMA = StreamSchema("s", ("v",))


def churning_stream(n_segments, tuples_per_segment, roles_pool, seed):
    """Stream with a random policy flip before every segment.

    Returns (elements, ground_truth) where ground_truth maps each role
    to the tids it may access.
    """
    rng = random.Random(seed)
    elements = []
    truth = {role: [] for role in roles_pool}
    ts = 0.0
    tid = 0
    for _ in range(n_segments):
        ts += 1.0
        roles = rng.sample(roles_pool, rng.randint(1, len(roles_pool)))
        elements.append(SecurityPunctuation.grant(sorted(roles), ts))
        for _ in range(tuples_per_segment):
            ts += 1.0
            elements.append(DataTuple("s", tid, {"v": tid}, ts))
            for role in roles:
                truth[role].append(tid)
            tid += 1
    return elements, truth


class TestChurn:
    def test_every_policy_flip_enforced(self):
        roles_pool = ["a", "b", "c"]
        elements, truth = churning_stream(40, 3, roles_pool, seed=17)
        for role in roles_pool:
            shield = SecurityShield([role])
            got = []
            for element in elements:
                for out in shield.process(element):
                    if isinstance(out, DataTuple):
                        got.append(out.tid)
            assert got == truth[role], role

    def test_dsms_under_churn(self):
        roles_pool = ["a", "b"]
        elements, truth = churning_stream(25, 2, roles_pool, seed=23)
        dsms = DSMS()
        dsms.register_stream(SCHEMA, elements)
        for role in roles_pool:
            dsms.register_query(f"q_{role}", ScanExpr("s"), roles={role})
        results = dsms.run()
        for role in roles_pool:
            assert [t.tid for t in results[f"q_{role}"].tuples] \
                == truth[role]

    def test_mid_segment_override(self):
        """A newer sp mid-stream retargets immediately — even with the
        same timestamp semantics preserved for batches."""
        shield = SecurityShield(["a"])
        out = []
        for element in [
            SecurityPunctuation.grant(["a"], 1.0),
            DataTuple("s", 1, {"v": 1}, 2.0),
            SecurityPunctuation.grant(["b"], 3.0),  # a loses access NOW
            DataTuple("s", 2, {"v": 2}, 4.0),
            SecurityPunctuation.grant(["a", "b"], 5.0),
            DataTuple("s", 3, {"v": 3}, 6.0),
        ]:
            out.extend(shield.process(element))
        tids = [e.tid for e in out if isinstance(e, DataTuple)]
        assert tids == [1, 3]

    def test_revocation_is_immediate_for_stateful_operator(self):
        """Join windows honor revocation: results pair each tuple with
        the policy in force when it ARRIVED (paper's window semantics),
        so newly arriving tuples under a revoked policy join nothing."""
        from repro.operators.index_join import IndexSAJoin

        join = IndexSAJoin("v", "v", 100.0)
        out = []
        feed = [
            (0, SecurityPunctuation.grant(["a"], 1.0)),
            (0, DataTuple("left", 1, {"v": 7}, 2.0)),
            (1, SecurityPunctuation.grant(["b"], 3.0)),  # incompatible
            (1, DataTuple("right", 2, {"v": 7}, 4.0)),
            (1, SecurityPunctuation.grant(["a"], 5.0)),  # compatible again
            (1, DataTuple("right", 3, {"v": 7}, 6.0)),
        ]
        for port, element in feed:
            out.extend(join.process(element, port))
        tids = [e.tid for e in out if isinstance(e, DataTuple)]
        assert tids == [(1, 3)]


class TestStaleBatch:
    """A batch older than the policy in force never takes over — at a
    join as at a shield (``override()``, Section III.E)."""

    @pytest.mark.parametrize("variant", ["nl", "index"])
    def test_stale_batch_widens_nothing_at_a_join(self, variant):
        def delivered(role):
            dsms = DSMS()
            dsms.register_stream(StreamSchema("l", ("k",)), [
                SecurityPunctuation.grant(["D"], 5.0),
                DataTuple("l", 1, {"k": 0}, 6.0),
                SecurityPunctuation.grant(["X"], 2.0),  # stale: discarded
                DataTuple("l", 2, {"k": 0}, 7.0)])
            dsms.register_stream(StreamSchema("r", ("k",)), [
                SecurityPunctuation.grant(["D", "X"], 1.0),
                DataTuple("r", 1, {"k": 0}, 6.5),
                DataTuple("r", 2, {"k": 0}, 7.5)])
            dsms.register_query("select", ScanExpr("l"), roles={role})
            dsms.register_query(
                "join", ScanExpr("l").join(ScanExpr("r"), "k", "k",
                                           window=100.0, variant=variant),
                roles={role})
            return {name: sorted(t.tid for t in result.tuples)
                    for name, result in dsms.run().items()}

        assert delivered("X") == {"select": [], "join": []}
        assert delivered("D") == {
            "select": [1, 2], "join": [(1, 1), (1, 2), (2, 1), (2, 2)]}
