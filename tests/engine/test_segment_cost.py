"""What a segment costs a query: one policy resolution per sp, shared by
every shield that reads it, and one condition kernel per run — with the
answers of the per-tuple, per-reader engine."""

import gc
import tracemalloc
from collections import Counter
from unittest import mock

from repro.algebra.expressions import ScanExpr
from repro.core.policy import Policy, TuplePolicy
from repro.core.punctuation import SecurityPunctuation
from repro.engine.dsms import DSMS
from repro.operators.conditions import Comparison
from repro.operators.dupelim import DuplicateElimination
from repro.operators.index_join import IndexSAJoin
from repro.operators.shield import SecurityShield
from repro.stream.schema import StreamSchema
from repro.stream.tuples import DataTuple

from tests.drive import push_all

SCHEMA = StreamSchema("s", ("v",))
QUERIES = 32


def tup(tid, ts=None):
    return DataTuple("s", tid, {"v": tid}, float(tid if ts is None else ts))


def fan_out(elements=None, *, queries=QUERIES, roles=("D", "N", "C")):
    """One stream, ``queries`` unshared ``select + shield`` plans."""
    dsms = DSMS()
    dsms.register_stream(SCHEMA, elements)
    for i in range(queries):
        dsms.register_query(
            # Distinct thresholds: equal selects would be shared.
            f"q{i}", ScanExpr("s").select(Comparison("v", ">", i / 8)),
            roles={roles[i % len(roles)]})
    return dsms


def segments(count=6, size=5):
    """``count`` segments of ``size`` tuples, each under its own sp."""
    out = []
    for seg in range(count):
        base = seg * (size + 1)
        out.append(SecurityPunctuation.grant(
            [("D", "N", "C")[seg % 3], "X"], float(base)))
        out.extend(tup(base + i, base + i) for i in range(1, size + 1))
    return out


def tids(results):
    return {name: [e.tid for e in result.elements
                   if isinstance(e, DataTuple)]
            for name, result in results.items()}


class TestSharedSpObject:
    def test_one_sp_object_two_role_universes(self):
        """A memo on the sp must not carry one server's resolution to
        another: the same objects fed to two DSMSs answer as two
        separately parsed copies do."""
        texts = ["<*, *, * | * | + | F | 0.0>",
                 "<*, *, * | {D, N} | + | F | 10.0>",
                 "<*, *, * | /^[CN]$/ | + | F | 20.0>"]

        def stream(sps):
            out = []
            for i, sp in enumerate(sps):
                out.append(sp)
                out.extend(tup(10 * i + j) for j in range(1, 4))
            return out

        shared = [SecurityPunctuation.parse(text) for text in texts]
        universes = (("D", "N"), ("C", "Z"))
        for drive in (lambda dsms: dsms.run(), push_all):
            for roles in universes:
                together = fan_out(stream(shared), queries=4, roles=roles)
                apart = fan_out(
                    stream([SecurityPunctuation.parse(t) for t in texts]),
                    queries=4, roles=roles)
                assert tids(drive(together)) == tids(drive(apart))
        # ... and the answers do differ between the universes.
        first, second = (tids(fan_out(stream(shared), queries=4,
                                      roles=roles).run())
                         for roles in universes)
        assert first != second


class TestGuards:
    """Deterministic stand-ins for the benchmark: a regression of either
    mechanism fails here, not just in a timing."""

    def test_every_shield_of_a_fan_out_shares_the_sps_policy(self):
        dsms = fan_out()
        sp = SecurityPunctuation.grant(["D", "N"], 0.0)
        with dsms.open_session() as session:
            session.push("s", sp)
            session.push("s", tup(9, 1.0))
            shields = [node.operator for node in session._plan.nodes
                       if isinstance(node.operator, SecurityShield)]
            assert len(shields) >= QUERIES
            probe = tup(10, 2.0)
            seen = [s for s in shields if s.tracker.current_sps()]
            assert len(seen) >= QUERIES  # v = 9 passes every select
            for shield in seen:
                assert shield.tracker.policy_for(probe) is sp.segment_policy()

    def test_windows_share_the_sps_policy_too(self):
        """One plain grant read by a shield, a dup-elim and both ports
        of an index SAJoin: one policy object."""
        sp = SecurityPunctuation.grant(["D", "N"], 0.0)
        item = tup(1)
        shield, dupelim = SecurityShield(["D"]), DuplicateElimination(9.0)
        join = IndexSAJoin("v", "v", 9.0)
        for operator in (shield, dupelim, join):
            for port in range(operator.arity):
                operator.process(sp, port)
                operator.process(item, port)
        held = [shield.tracker.policy_for(item),
                dupelim.tracker.policy_for(item)]
        held += [policy for window in join.windows
                 for _, policy in window.iter_entries()]
        assert len(held) == 4
        assert all(policy is sp.segment_policy() for policy in held)

    def test_a_run_calls_no_comparison_per_tuple(self):
        """Neither the run kernel nor the selection group calls the
        condition per tuple; a lone select pushed element-wise does."""
        elements = segments()
        tuples = sum(isinstance(e, DataTuple) for e in elements)
        call = Comparison.__call__
        with mock.patch.object(Comparison, "__call__", autospec=True,
                               side_effect=call) as spy:
            batch = tids(fan_out(elements).run())
            assert tids(fan_out(elements, queries=1).run()) == {
                "q0": batch["q0"]}
            pushed = tids(push_all(fan_out(elements)))
            assert spy.call_count == 0
            push_all(fan_out(elements, queries=1))
            # The 20 tuples of the segments no role of q0 may see are
            # dropped at the entry, before the select (was ``tuples``).
            assert spy.call_count == tuples - 20 == 10
        assert batch == pushed and any(batch.values())


class TestBoundedState:
    def test_sp_flood_leaves_flat_memory(self):
        """The segment-policy memo lives and dies with its sp: 10^5
        distinct sps through a select + shield session, nothing
        delivered (the subscriber's role is never granted), so whatever
        the last 10^4 of them leave allocated is state some layer keeps
        per sp.  (Tracing all 10^5 takes 20 s; a leak per sp shows in
        any window.)"""
        session = fan_out(queries=1, roles=("Z",)).open_session()

        def push(first, last):
            for i in range(first, last):
                session.push("s", SecurityPunctuation.grant(
                    ["D", "N", "C"][i % 3], float(2 * i)))
                assert session.push("s", tup(i, 2 * i + 1)) == {}

        push(0, 90_000)
        tracemalloc.start()
        try:
            push(90_000, 100_000)
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        session.close()
        assert kept < 16 * 1024  # 10^4 sps at >= 400 B each would be 4 MB

    def test_live_segments_hold_no_policy_of_their_own(self):
        """What 10^4 *live* sps in a join window weigh beyond the sps
        themselves: a plain grant's segment stores the sp's own policy,
        so no ``Policy``, no ``TuplePolicy`` and nothing else the policy
        layer allocates is retained per segment."""
        count = 10_000
        sps = [SecurityPunctuation.grant(["D", "N", "C"][i % 3], 2.0 * i)
               for i in range(count)]
        memos = [sp.segment_policy() for sp in sps]  # paid per sp, before
        join = IndexSAJoin("v", "v", 1e9)

        def census():
            # Collect first: unreachable garbage left by earlier tests
            # is not live and must not be counted.
            gc.collect()
            return Counter(type(o) for o in gc.get_objects()
                           if type(o) in (Policy, TuplePolicy))

        before = census()
        tracemalloc.start()
        try:
            for i, sp in enumerate(sps):
                join.process(sp, 0)
                join.process(tup(i, 2 * i + 1), 0)
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        segments = list(join.windows[0].iter_segments())
        assert len(segments) == count == join.indexes[0].entry_count()
        policy_layer = snapshot.filter_traces([
            tracemalloc.Filter(True, "*/repro/core/policy.py"),
            tracemalloc.Filter(True, "*/repro/core/bitmap.py")])
        kept = sum(stat.size for stat in policy_layer.statistics("filename"))
        assert kept < 16 * 1024  # 10^4 role sets at >= 100 B would be 1 MB
        assert census() == before
        assert all(segment.policy_for(segment.tuples[0]) is memo
                   for segment, memo in zip(segments, memos))
