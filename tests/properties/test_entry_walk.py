"""An entry gate closes an sp-batch in one walk: the same outcome as the
composition it replaced.

The reference below is that composition, kept here verbatim:
``SPAnalyzer.process_batch`` as it was (normalize and refine each sp,
append the server negatives, announce a batch refined away, combine),
then ``PolicyTracker._finalize_batch`` (delta test, stale test,
install), then the plain-grant rule read off the installed sps.  For
generated sp-batch sequences the gate must hand on the same sps, drop
the same tuples, leave the analyzer with the same counters and the
role universe with the same roles, and refuse the same batches (a
mixed or unresolvable batch) with the same error.
"""

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.analyzer import SPAnalyzer, combine_batch
from repro.core.bitmap import RoleUniverse
from repro.core.patterns import ANY, literal, one_of, parse_names
from repro.core.punctuation import (DataDescription, SecurityPunctuation,
                                    SecurityRestriction, Sign, deny_all_sp)
from repro.engine.plan import EntryGate
from repro.errors import ReproError
from repro.operators.base import PolicyTracker
from repro.operators.shield import SecurityShield
from repro.stream.tuples import DataTuple

ROLES = ("A", "B", "C", "D")


# -- the reference: the composition the one walk replaced -------------------

def reference_process_batch(analyzer, sps):
    """``SPAnalyzer.process_batch`` before the one walk (observability
    off): every stage entered for every batch."""
    analyzer.sps_in += len(sps)
    refined = []
    ts = sps[0].ts if sps else 0.0
    for sp in sps:
        sp = analyzer._normalize(sp)
        if sp is None:  # a grant whose open pattern matches no role
            continue
        refined.extend(analyzer._refine(sp) if analyzer._server_sps
                       else [sp])
    for server_sp in analyzer._server_sps:
        if not server_sp.is_positive:
            if any(not sp.immutable for sp in sps):
                restamped = server_sp.with_ts(ts)
                refined.append(
                    replace(restamped, incremental=True)
                    if all(sp.incremental for sp in sps) else restamped)
    if not refined and sps and not all(sp.incremental for sp in sps):
        refined = [deny_all_sp(ts)]
    combined = combine_batch(refined)
    analyzer.sps_out += len(combined)
    return combined


def reference_plain_grant_roles(batch):
    """The plain-grant rule: the roles of a batch of positive, absolute,
    fully wildcard-scoped sps with concrete roles, else ``None``."""
    for sp in batch:
        roles = sp.srp.concrete_roles()
        ddp = sp.ddp
        if not (roles is not None and sp.sign is Sign.POSITIVE
                and not sp.incremental and ddp.stream.is_wildcard()
                and ddp.tuple_id.is_wildcard()
                and ddp.attribute.is_wildcard()):
            return None
    return frozenset().union(*(sp.srp.concrete_roles() for sp in batch))


class ReferenceGate(PolicyTracker):
    """The entry gate before the one walk: analyzer, then the tracker's
    install, then the plain-grant test at the segment's first tuple."""

    def __init__(self, analyzer, union):
        super().__init__("s")
        self.analyzer = analyzer
        self.union = union
        self.dropped = 0
        self._sps = ()
        self._drop = False
        self.delta = False

    def _finalize_batch(self):
        if self._batch:
            self._batch = batch = reference_process_batch(self.analyzer,
                                                          self._batch)
            before = self._current_raw
            super()._finalize_batch()
            if self._current_raw is not before:  # it took over
                self.delta = any(sp.incremental for sp in batch)

    def close(self):
        self._finalize_batch()

    def admit(self, item):
        if self._batch:
            self._finalize_batch()
            pending = self._pending
            if pending:
                self._pending = ()
                self._sps = pending
                roles = (None if self.delta
                         else reference_plain_grant_roles(pending))
                self._drop = (roles is not None
                              and roles.isdisjoint(self.union))
        if self._drop:
            self.dropped += 1
            return None
        sps, self._sps = self._sps, ()
        return sps


# -- generated batches ------------------------------------------------------

role_sets = st.sets(st.sampled_from(ROLES), min_size=1, max_size=3)

#: An SRP: concrete roles, or an open pattern resolved against the
#: universe (a wildcard or a regex).
srps = st.one_of(
    role_sets.map(lambda roles: SecurityRestriction.for_roles(sorted(roles))),
    st.sampled_from(["*", "/[AB]/", "/C|E/"]).map(
        lambda text: SecurityRestriction(parse_names(text))),
)

ddps = st.builds(
    DataDescription,
    stream=st.sampled_from([ANY, ANY, literal("s"), literal("t")]),
    tuple_id=st.sampled_from([ANY, ANY, ANY, one_of([1, 2]), literal(1)]),
    attribute=st.sampled_from([ANY, ANY, ANY, literal("v")]),
)


@st.composite
def batches(draw):
    """``(sps, tuple follows)``: one sp-batch, absolute, incremental
    (wildcard-scoped, concrete roles) or, rarely, mixed."""
    ts = float(draw(st.integers(1, 5)))
    mode = draw(st.sampled_from(
        ["absolute", "absolute", "absolute", "incremental", "mixed"]))
    sps = []
    for position in range(draw(st.integers(1, 3))):
        incremental = mode == "incremental" or (
            mode == "mixed" and position % 2 == 1)
        negative = draw(st.integers(0, 3)) == 0
        if incremental:
            ddp = DataDescription()
            srp = SecurityRestriction.for_roles(sorted(draw(role_sets)))
        else:
            ddp, srp = draw(ddps), draw(srps)
        sps.append(SecurityPunctuation(
            ddp=ddp, srp=srp, ts=ts,
            sign=Sign.NEGATIVE if negative else Sign.POSITIVE,
            immutable=draw(st.booleans()), provider="p",
            incremental=incremental))
    return sps, draw(st.integers(0, 4)) > 0


server_policies = st.one_of(
    st.none(),
    st.builds(lambda roles: SecurityPunctuation.grant(sorted(roles), 0.0),
              role_sets),
    st.builds(lambda roles: SecurityPunctuation.deny(sorted(roles), 0.0),
              role_sets),
    st.builds(lambda roles, ddp: SecurityPunctuation(
        ddp=ddp, srp=SecurityRestriction.for_roles(sorted(roles)), ts=0.0),
        role_sets, ddps),
)


def analyzer_with(server):
    analyzer = SPAnalyzer(RoleUniverse())
    if server is not None:
        analyzer.add_server_policy(server)
    return analyzer


def texts(sps):
    return None if sps is None else [sp.to_text() for sp in sps]


def step(gate, sps, follows, tid):
    """Feed one batch (and its segment's first tuple); what the gate
    handed on, or the refusal."""
    try:
        for sp in sps:
            gate.observe_sp(sp)
        if not follows:
            return "held"
        return texts(gate.admit(DataTuple("s", tid, {"v": 0}, 9.0)))
    except ReproError as exc:
        return f"refused: {type(exc).__name__}"


def closed(gate):
    """Close the stream: the policy left in force, or the refusal."""
    try:
        gate.close()
        return texts(gate.current_sps())
    except ReproError as exc:
        return f"refused: {type(exc).__name__}"


def state(gate):
    analyzer = gate.analyzer
    return (gate.dropped, analyzer.sps_in, analyzer.sps_out,
            analyzer.conservative_refinements, analyzer.universe.roles())


class TestOneWalkMatchesTheComposition:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(batches(), min_size=1, max_size=6), server_policies,
           role_sets)
    def test_handed_on_sps_drops_counters_and_roles(self, sequence, server,
                                                     query_roles):
        gate = EntryGate("s", [("q", SecurityShield(query_roles))],
                         analyzer=analyzer_with(server))
        reference = ReferenceGate(analyzer_with(server),
                                  frozenset(query_roles))
        for tid, (sps, follows) in enumerate(sequence):
            got = step(gate, sps, follows, tid)
            assert got == step(reference, sps, follows, tid)
            assert state(gate) == state(reference)
            if isinstance(got, str) and got.startswith("refused"):
                return  # neither is defined past a refused batch
        assert closed(gate) == closed(reference)
        assert state(gate) == state(reference)
