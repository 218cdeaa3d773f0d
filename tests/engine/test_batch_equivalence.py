"""``run()`` vs a session pushed element by element (segment batching).

Property-style suite backing the segment-batched execution engine:
for every plan shape and stream shape exercised here, ``DSMS.run()``
(sources cut into segment runs) and a ``StreamingSession`` pushed the
same elements one at a time in ``merge_sources`` order — the
element-wise reference — must produce

* identical ordered result elements per query,
* identical element counts and drop counts (whole-plan and per stage),
* per operator, identical audit decision sequences (with
  observability on; sampled pass verdicts included) and identical
  ``audit.counts`` — the interleaving *across* operators follows how
  the input was cut and is not compared — each decision recorded
  exactly once, in the log and nowhere else,
* identical security metric counters (shield verdicts,
  denial-by-default drops, segment/sp-batch size distributions) —
  latency histograms may legitimately differ in observation counts
  (one observation per run vs per element), but decision counting
  must not depend on the cut.

Stream shapes cover uniform segments, non-uniform (tuple-scoped)
segments, held-sp release, empty segments, denial-by-default prefixes
and segment lengths from 1 tuple per sp upward.
"""

from collections import Counter, defaultdict
from dataclasses import asdict

import pytest

from repro.algebra.expressions import ScanExpr
from repro.core.patterns import one_of
from repro.core.punctuation import SecurityPunctuation
from repro.engine.dsms import DSMS
from repro.observability import Observability
from repro.operators.conditions import And, Comparison, FuncCondition
from repro.operators.shield import SecurityShield
from repro.stream.schema import StreamSchema
from repro.stream.tuples import DataTuple
from repro.stream.wire import encode_element
from repro.workloads.synthetic import SYNTH_SCHEMA, punctuated_stream

from tests.drive import fresh_line, push_all

SCHEMA = StreamSchema("s1", ("v",))


def run_both(make_dsms, *, observability: bool = True):
    """Drive a freshly built DSMS through a session pushed element by
    element, and another through ``run()``; return both outcomes."""
    outcomes = []
    for drive in (push_all, DSMS.run):
        dsms = make_dsms(
            Observability.in_memory() if observability
            else Observability())
        outcomes.append((drive(dsms), dsms))
    return outcomes


def assert_equivalent(plain, batched):
    """The full equivalence contract between the session reference
    (``plain``) and ``run()`` (``batched``)."""
    plain_results, plain_dsms = plain
    batched_results, batched_dsms = batched
    assert plain_results.keys() == batched_results.keys()
    for name in plain_results:
        assert (plain_results[name].elements
                == batched_results[name].elements), name
        # The wire line memoised on a delivered element is never stale,
        # whichever operators built or shared the element on the way
        # (first call builds or reads the memo, second surely reads it).
        for results in (plain_results, batched_results):
            for element in results[name].elements:
                assert encode_element(element) == fresh_line(element)
                assert encode_element(element) == fresh_line(element)
    plain_report = plain_dsms.last_report
    batched_report = batched_dsms.last_report
    assert plain_report.elements_in == batched_report.elements_in
    assert plain_report.tuples_in == batched_report.tuples_in
    assert plain_report.sps_in == batched_report.sps_in
    assert plain_report.total_drops == batched_report.total_drops
    for p_stage, b_stage in zip(plain_report.stages,
                                batched_report.stages):
        assert p_stage.name == b_stage.name
        for counter in ("tuples_in", "tuples_out", "sps_in", "sps_out",
                        "drops", "comparisons"):
            assert getattr(p_stage, counter) == getattr(b_stage, counter), \
                f"{p_stage.name}.{counter}"
    if plain_dsms.audit is not None:
        assert (decisions_by_operator(plain_dsms)
                == decisions_by_operator(batched_dsms))
        assert plain_dsms.audit.counts == batched_dsms.audit.counts
        for dsms in (plain_dsms, batched_dsms):
            assert_recorded_once(dsms)
    if plain_dsms.observability.metrics is not None:
        assert_security_metrics_equivalent(plain_dsms, batched_dsms)


def decisions_by_operator(dsms):
    """Expanded audit events (sampled passes included) grouped per
    deciding operator, ``seq`` and ``trace_id`` dropped — a trace is
    one push in a session and one run under ``run()``.
    Shields of different queries share the default name, so
    an operator is identified by (name, query) — which must then be
    unique among a query's shields: two shields in one group would
    compare their interleaving, which the contract does not cover."""
    for query in dsms.queries:
        names = [shield.name for shield in dsms.shields(query)]
        assert len(names) == len(set(names)), (query, names)
    groups = defaultdict(list)
    for event in dsms.audit.events():
        record = asdict(event)
        del record["seq"], record["trace_id"]
        groups[event.operator, event.query].append(record)
    return dict(groups)


def assert_recorded_once(dsms):
    """A decision has one stored form: no span repeats it, and every
    denied (operator, query, tuple) is in exactly one held record.
    With every trace sampled the passes are there as well.  (Tuples
    are told apart on the input streams only — aggregate results may
    share a tuple id and timestamp; above those the counts decide.)"""
    log = dsms.audit
    spans = dsms.observability.tracer.events()
    assert spans and not any(e.name.startswith("provenance.")
                             for e in spans)
    held = list(log._records) + list(log._passes)
    seen = Counter(
        (record.operator, record.query, record.sid, tid, ts)
        for record in held
        if record.kind == "shield.drop" and record.sid in dsms.catalog
        for tid, ts in zip(record.tids, record.tss))
    assert set(seen.values()) <= {1}
    assert not log.evicted
    for kind in ("shield.drop", "shield.pass"):
        assert log.counts[kind] == sum(
            len(record.tids) for record in held if record.kind == kind)
    blocked = passed = 0
    for node in dsms._live_plan.nodes:
        if isinstance(node.operator, SecurityShield):
            blocked += node.operator.tuples_blocked
            passed += node.operator.stats.tuples_out
    assert log.counts["shield.drop"] == blocked
    assert log.counts["shield.pass"] == passed


#: Counter families whose per-series totals must match on both paths.
_SECURITY_COUNTERS = ("repro_shield_tuples_total",
                      "repro_denial_by_default_drops_total")
#: Histogram families whose full distribution must match on both paths
#: (sizes are data-dependent, not timing-dependent).
_SECURITY_HISTOGRAMS = ("repro_segment_size_tuples",
                        "repro_sp_batch_size_sps")


def _counter_series(registry, name):
    family = registry.get(name)
    if family is None:
        return {}
    return {values: child.current() for values, child in family.series()}


def _histogram_series(registry, name):
    family = registry.get(name)
    if family is None:
        return {}
    return {values: (child.count, child.sum, tuple(child.counts))
            for values, child in family.series()}


def assert_security_metrics_equivalent(plain_dsms, batched_dsms):
    """Security decision metrics must not depend on how input is cut."""
    plain_reg = plain_dsms.observability.metrics
    batched_reg = batched_dsms.observability.metrics
    for name in _SECURITY_COUNTERS:
        assert _counter_series(plain_reg, name) == \
            _counter_series(batched_reg, name), name
    for name in _SECURITY_HISTOGRAMS:
        assert _histogram_series(plain_reg, name) == \
            _histogram_series(batched_reg, name), name


# -- stream shapes ---------------------------------------------------------

def uniform_stream(seed: int, tuples_per_sp: int, n_tuples: int = 120):
    return list(punctuated_stream(
        n_tuples, tuples_per_sp=tuples_per_sp, policy_size=3,
        accessible_fraction=0.5, seed=seed))


def tuple_scoped_stream(n_segments: int = 12, seg_len: int = 5):
    """Non-uniform segments: per-tuple-id policies within a segment."""
    elements = []
    ts = 0.0
    tid = 0
    for _ in range(n_segments):
        ts += 1.0
        ids = list(range(tid, tid + seg_len))
        evens = [i for i in ids if i % 2 == 0]
        odds = [i for i in ids if i % 2 == 1]
        if evens:
            elements.append(SecurityPunctuation.grant(
                ["D"], ts, tuple_id=one_of(evens)))
        if odds:
            elements.append(SecurityPunctuation.grant(
                ["N"], ts, tuple_id=one_of(odds)))
        for i in ids:
            ts += 1.0
            elements.append(DataTuple("s1", i, {"v": float(i)}, ts))
            tid += 1
    return elements


def held_sp_stream():
    """Segments whose first tuple(s) are dropped: sps release late."""
    elements = []
    ts = 0.0
    tid = 0
    for segment in range(8):
        ts += 1.0
        # Odd tids only: the segment's first tuple never passes the
        # shield, so its sps are held until the first odd tid.
        elements.append(SecurityPunctuation.grant(
            ["D"], ts, tuple_id=one_of([tid + 1, tid + 3])))
        for _ in range(4):
            ts += 1.0
            elements.append(DataTuple("s1", tid, {"v": float(tid)}, ts))
            tid += 1
    return elements


def empty_segment_stream():
    """Consecutive sp-batches with no tuples, plus a no-sp prefix."""
    return [
        # Denial-by-default prefix: tuples before any sp.
        DataTuple("s1", 0, {"v": 0.0}, 1.0),
        DataTuple("s1", 1, {"v": 1.0}, 2.0),
        # Empty segment: immediately overridden policy.
        SecurityPunctuation.grant(["N"], 3.0),
        SecurityPunctuation.grant(["D"], 4.0),
        DataTuple("s1", 2, {"v": 2.0}, 5.0),
        DataTuple("s1", 3, {"v": 3.0}, 6.0),
        # Trailing sp-batch with no tuples at all.
        SecurityPunctuation.grant(["D"], 7.0),
    ]


# -- plan shapes ------------------------------------------------------------

@pytest.mark.parametrize("tuples_per_sp", [1, 3, 10])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_select_shield_uniform(seed, tuples_per_sp):
    elements = uniform_stream(seed, tuples_per_sp)

    def make(observability):
        dsms = DSMS(observability=observability)
        dsms.register_stream(SYNTH_SCHEMA, elements)
        dsms.register_query(
            "q", ScanExpr("synthetic").select(Comparison("x", ">", 400.0)),
            roles={"q_role"})
        return dsms

    assert_equivalent(*run_both(make))
    assert_equivalent(*run_both(make, observability=False))


@pytest.mark.parametrize("stream_builder",
                         [tuple_scoped_stream, held_sp_stream,
                          empty_segment_stream])
def test_shield_non_uniform_and_edges(stream_builder):
    elements = stream_builder()

    def make(observability):
        dsms = DSMS(observability=observability)
        dsms.register_stream(SCHEMA, elements)
        dsms.register_query("q", ScanExpr("s1"), roles={"D"})
        return dsms

    assert_equivalent(*run_both(make))
    assert_equivalent(*run_both(make, observability=False))


def test_select_project_shield_chain():
    """σ → π → query ψ → delivery ψ, the standard DSMS pipeline."""
    elements = uniform_stream(3, 8, n_tuples=160)

    def make(observability):
        dsms = DSMS(observability=observability)
        dsms.register_stream(SYNTH_SCHEMA, elements)
        expr = (ScanExpr("synthetic")
                .select(Comparison("x", ">", 200.0))
                .project(["object_id", "x"]))
        dsms.register_query("q", expr, roles={"q_role"})
        return dsms

    assert_equivalent(*run_both(make))
    assert_equivalent(*run_both(make, observability=False))


def test_opaque_condition_call_count_and_order():
    """An opaque UDF conjunct is called once per tuple that survived
    the conjuncts before it, in stream order, on both paths — and never
    on a tuple of a segment no role of the query may see: the stream's
    entry drops those first."""
    elements = uniform_stream(5, 10, n_tuples=120)
    calls = []

    def probe(item):
        calls.append(item.tid)
        return item.tid % 2 == 0

    def make(observability):
        dsms = DSMS(observability=observability)
        dsms.register_stream(SYNTH_SCHEMA, elements)
        cond = And([Comparison("x", ">", 300.0),
                    FuncCondition(probe, ["x"], label="probe")])
        dsms.register_query("q", ScanExpr("synthetic").select(cond),
                            roles={"q_role"})
        return dsms

    survivors, visible = [], False
    for e in elements:
        if isinstance(e, SecurityPunctuation):
            visible = "q_role" in e.roles()
        elif visible and e.values["x"] > 300.0:
            survivors.append(e.tid)
    # 94 tuples pass x > 300; 39 of them are in segments q_role may not
    # see (the UDF was called on all 94 before entries dropped).
    assert len(survivors) == 55
    for observability in (True, False):
        calls.clear()
        plain, batched = run_both(make, observability=observability)
        assert_equivalent(plain, batched)
        assert calls == survivors * 2  # session, then run()


@pytest.mark.parametrize("seed", [0, 7])
def test_project_dupelim_plan(seed):
    elements = uniform_stream(seed, 5, n_tuples=100)

    def make(observability):
        dsms = DSMS(observability=observability)
        dsms.register_stream(SYNTH_SCHEMA, elements)
        expr = (ScanExpr("synthetic")
                .project(["object_id", "x"])
                .distinct(50.0, ["object_id"]))
        dsms.register_query("q", expr, roles={"q_role"})
        return dsms

    assert_equivalent(*run_both(make))
    assert_equivalent(*run_both(make, observability=False))


def test_dupelim_suppression_equivalence():
    """Duplicate values across overlapping policies, both paths."""
    elements = []
    ts = 0.0
    for segment in range(10):
        ts += 1.0
        roles = ["D"] if segment % 3 else ["D", "N"]
        elements.append(SecurityPunctuation.grant(roles, ts))
        for k in range(4):
            ts += 1.0
            elements.append(DataTuple(
                "s1", segment * 4 + k, {"v": float(k % 2)}, ts))

    def make(observability):
        dsms = DSMS(observability=observability)
        dsms.register_stream(SCHEMA, elements)
        dsms.register_query(
            "q", ScanExpr("s1").distinct(100.0, ["v"]), roles={"D"})
        return dsms

    assert_equivalent(*run_both(make))
    assert_equivalent(*run_both(make, observability=False))


@pytest.mark.parametrize("seed", [0, 3])
def test_groupby_plan(seed):
    elements = uniform_stream(seed, 4, n_tuples=80)

    def make(observability):
        dsms = DSMS(observability=observability)
        dsms.register_stream(SYNTH_SCHEMA, elements)
        expr = ScanExpr("synthetic").group_by(
            None, "sum", "x", window=40.0)
        dsms.register_query("q", expr, roles={"q_role"})
        return dsms

    assert_equivalent(*run_both(make))
    assert_equivalent(*run_both(make, observability=False))


LEFT_SCHEMA = StreamSchema("left", ("k", "a"))
RIGHT_SCHEMA = StreamSchema("right", ("k", "b"))


def join_streams(run_len):
    """Two punctuated streams whose sides arrive in runs of ``run_len``
    tuples: 1 alternates left and right (no batch ever forms), 4 hands
    the join whole ``TupleBatch`` runs on both ports."""
    left, right = [], []
    ts = 0.0
    for segment in range(6):
        ts += 1.0
        left.append(SecurityPunctuation.grant(["D"], ts, provider="l"))
        right.append(SecurityPunctuation.grant(
            ["D"] if segment % 2 else ["N"], ts + 0.25, provider="r"))
        for block in range(0, 4, run_len):
            for side, attr, out in (("left", "a", left),
                                    ("right", "b", right)):
                for k in range(block, block + run_len):
                    ts += 1.0
                    tid = segment * 4 + k
                    out.append(DataTuple(
                        side, tid, {"k": k % 3, attr: tid}, ts))
    return left, right


@pytest.mark.parametrize("run_len", [1, 4])
@pytest.mark.parametrize("variant", ["nl", "index"])
def test_join_plan(variant, run_len):
    left, right = join_streams(run_len)

    def make(observability):
        dsms = DSMS(observability=observability)
        dsms.register_stream(LEFT_SCHEMA, left)
        dsms.register_stream(RIGHT_SCHEMA, right)
        expr = ScanExpr("left").join(ScanExpr("right"), "k", "k", 30.0,
                                     variant=variant)
        dsms.register_query("q", expr, roles={"D"})
        return dsms

    assert_equivalent(*run_both(make))
    assert_equivalent(*run_both(make, observability=False))


SELF_SCHEMA = StreamSchema("s", ("k",))


def self_join_stream():
    """One grant, then twelve tuples alternating between two keys."""
    return [SecurityPunctuation.grant(["D"], 0.0)] + [
        DataTuple("s", i, {"k": i % 2}, float(i + 1)) for i in range(12)]


@pytest.mark.parametrize("shape", ["scans", "selects", "shared select"])
@pytest.mark.parametrize("variant", ["nl", "index"])
def test_self_join(variant, shape):
    """One stream into both ports of a join.  A run reaches the two
    ports tuple by tuple, in the order a session pushes it: 12 pairs on
    every path (a whole run on port 0 before port 1 made it 42)."""
    def make(observability):
        dsms = DSMS(observability=observability)
        dsms.register_stream(SELF_SCHEMA, self_join_stream())
        left = right = ScanExpr("s")
        if shape == "selects":
            left = left.select(Comparison("k", ">=", 0))
            right = right.select(Comparison("k", "<", 2))
        elif shape == "shared select":
            left = right = left.select(Comparison("k", ">=", 0))
        dsms.register_query("q", left.join(right, "k", "k", 2.0,
                                           variant=variant), roles={"D"})
        return dsms

    outcomes = run_both(make)
    assert_equivalent(*outcomes)
    assert_equivalent(*run_both(make, observability=False))
    delivered = outcomes[1][0]["q"].tuples
    assert len(delivered) == 12


@pytest.mark.parametrize("seed", [5, 7])
def test_multi_query_shared_plan(seed):
    """Fan-out: one shared subplan feeding several query shields."""
    elements = uniform_stream(seed, 10, n_tuples=150)

    def make(observability):
        dsms = DSMS(observability=observability)
        dsms.register_stream(SYNTH_SCHEMA, elements)
        base = ScanExpr("synthetic").select(Comparison("x", ">", 200.0))
        for index in range(3):
            dsms.register_query(f"q{index}", base,
                                roles={f"r{index + 1}", "q_role"})
        return dsms

    assert_equivalent(*run_both(make))
    assert_equivalent(*run_both(make, observability=False))


@pytest.mark.parametrize("k", [0, 4])
def test_udf_raising_mid_run_fails_closed(k):
    """A UDF raising on row ``k`` of a run, upstream of audited shields.

    Both paths raise the UDF's error, so nothing is delivered for the
    failing row or after it.  The trail of every completed run is the
    same per operator; the aborted run is all-or-nothing under
    ``run()`` (the select never hands it on) and a row prefix in the
    session, and neither decides anything about the failing row or a
    later one.  The run is the first at or after tuple 50 that q_role
    may see: a run of a segment nobody may see is dropped at the
    stream's entry and never reaches the UDF.
    """
    elements = uniform_stream(2, 10, n_tuples=120)
    runs, visible = [], False
    for e in elements:
        if isinstance(e, SecurityPunctuation):
            visible = "q_role" in e.roles()
            runs.append([])
        elif visible and e.tid >= 50:
            runs[-1].append(e)
    run = next(run for run in runs if run)
    run_start, failing = run[0], run[k]

    def explode(item):
        if item is failing:
            raise RuntimeError("udf failed")
        return True

    def make(observability):
        dsms = DSMS(observability=observability)
        dsms.register_stream(SYNTH_SCHEMA, elements)
        dsms.register_query(
            "q", ScanExpr("synthetic").select(
                FuncCondition(explode, ["x"], label="explode")),
            roles={"q_role"})
        return dsms

    trails = {}
    for batched, drive in ((False, push_all), (True, DSMS.run)):
        dsms = make(Observability.in_memory())
        with pytest.raises(RuntimeError, match="udf failed"):
            drive(dsms)
        trails[batched] = decisions_by_operator(dsms)

    def before(trail, ts):
        kept = {op: [e for e in events if e["ts"] < ts]
                for op, events in trail.items()}
        return {op: events for op, events in kept.items() if events}

    assert any(before(trails[True], run_start.ts).values())
    assert trails[True] == before(trails[True], run_start.ts)
    assert trails[True] == before(trails[False], run_start.ts)
    assert trails[False] == before(trails[False], failing.ts)
