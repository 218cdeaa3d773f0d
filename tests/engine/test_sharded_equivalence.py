"""Sharded vs single-process execution equivalence.

``DSMS.run(shards=N)`` must be observably identical to ``run()`` for
every composition it claims: stateless (worker-local) queries, split
stateful queries (joins), multi-query workloads and audited runs —
same delivered elements, same drop totals,
plus the sharded extras (shard-labelled stages and audit events, one
``shard.run`` span per worker).
"""

import random
from dataclasses import fields

import pytest

from repro.algebra.expressions import ScanExpr
from repro.core.punctuation import SecurityPunctuation
from repro.engine.dsms import DSMS
from repro.engine.sharded import ShardResult, split_workload
from repro.errors import QueryError, ShardExecutionError
from repro.observability import Observability, Tracer
from repro.operators.conditions import Comparison
from repro.stream.schema import StreamSchema
from repro.stream.tuples import DataTuple

ROLES = [("analyst",), ("admin",), ("analyst", "admin"), ("other",)]


def punctuated(sid, seed, segments=18):
    rng = random.Random(f"sharded-eq:{sid}:{seed}")
    elements = []
    ts = 0.0
    tid = 0
    for _ in range(segments):
        ts += rng.uniform(0.5, 2.0)
        elements.append(SecurityPunctuation.grant(rng.choice(ROLES), ts))
        for _ in range(rng.randrange(0, 5)):
            ts += rng.uniform(0.1, 0.4)
            tid += 1
            elements.append(DataTuple(
                sid, f"{sid}-{tid}", {"k": tid % 4, "x": tid * 3}, ts))
    return elements


def build_dsms(seed, *, observability=None, join=True):
    dsms = DSMS(observability=observability)
    dsms.register_stream(StreamSchema("s1", ("k", "x")),
                         punctuated("s1", seed))
    dsms.register_stream(StreamSchema("s2", ("k", "x")),
                         punctuated("s2", seed + 1))
    dsms.register_query("q_sel",
                        ScanExpr("s1").select(Comparison("x", ">", 9)),
                        roles={"analyst"})
    if join:
        dsms.register_query(
            "q_join",
            ScanExpr("s1").join(ScanExpr("s2"), left_on="k",
                                right_on="k", window=4.0),
            roles={"admin"})
    return dsms


def delivered(results):
    return {name: [(t.sid, t.tid, dict(t.values), t.ts)
                   for t in res.tuples]
            for name, res in results.items()}


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("n_shards", [1, 2, 4])
def test_local_and_split_queries_match(seed, n_shards):
    base_dsms = build_dsms(seed)
    base = delivered(base_dsms.run())
    dsms = build_dsms(seed)
    got = delivered(dsms.run(shards=n_shards))
    assert got == base
    # Drop totals are preserved exactly: shard-local stage counters
    # plus the coordinator suffix sum to the single-process totals.
    assert (dsms.last_report.total_drops
            == base_dsms.last_report.total_drops)
    assert dsms.last_report.elements_in == base_dsms.last_report.elements_in


def test_stage_stats_carry_shard_labels():
    dsms = build_dsms(5)
    dsms.run(shards=2)
    names = [stage.name for stage in dsms.last_report.stages]
    assert any(name.startswith("shard0/") for name in names)
    assert any(name.startswith("shard1/") for name in names)
    # The stateful suffix runs unprefixed in the coordinator.
    assert any(name.startswith("delivery:q_join")
               or "join" in name
               for name in names if "/" not in name)


def test_audit_events_match_and_carry_shard_labels():
    base_dsms = build_dsms(7, observability=Observability.in_memory())
    base = delivered(base_dsms.run())
    dsms = build_dsms(7, observability=Observability.in_memory())
    got = delivered(dsms.run(shards=2))
    assert got == base

    def drop_counts(audit):
        counts = {}
        for event in audit.events(kind="shield.drop"):
            counts[event.operator] = counts.get(event.operator, 0) + 1
        return counts

    assert drop_counts(dsms.audit) == drop_counts(base_dsms.audit)
    shard_labels = {event.detail.get("shard")
                    for event in dsms.audit.events()
                    if "shard" in event.detail}
    assert shard_labels <= {0, 1}
    assert shard_labels  # worker events did flow through with labels


def test_tracing_tier_composes_with_shard_attrs():
    dsms = build_dsms(8, observability=Observability(
        tracer=Tracer(sample=1.0)))
    base = delivered(build_dsms(8).run())
    got = delivered(dsms.run(shards=2))
    assert got == base
    # Workers run no tracer and ship no spans: the coordinator records
    # one ``shard.run`` per worker.
    runs = dsms.observability.tracer.events("shard.run")
    assert [event.attrs["shard"] for event in runs] == [0, 1]
    report = dsms.last_report
    for key in ("elements_in", "tuples_in", "sps_in"):
        assert sum(event.attrs[key] for event in runs) \
            == getattr(report, key)
    assert "spans" not in {f.name for f in fields(ShardResult)}


def test_incremental_sp_stream_still_matches():
    # Incremental sps pin their stream to one shard; results must be
    # unchanged even though parallelism degrades.
    def build():
        dsms = DSMS()
        elements = punctuated("s1", 11)
        sps = [i for i, e in enumerate(elements)
               if isinstance(e, SecurityPunctuation)]
        patch_at = sps[len(sps) // 2]
        patched = elements[patch_at]
        elements[patch_at] = SecurityPunctuation.grant(
            ("extra",), patched.ts, incremental=True)
        dsms.register_stream(StreamSchema("s1", ("k", "x")), elements)
        dsms.register_query(
            "q", ScanExpr("s1").select(Comparison("x", ">", 0)),
            roles={"analyst", "extra"})
        return dsms

    base = delivered(build().run())
    for n_shards in (2, 4):
        assert delivered(build().run(shards=n_shards)) == base


def test_split_workload_classification():
    sel = ScanExpr("s1").select(Comparison("x", ">", 1))
    join = ScanExpr("s1").join(ScanExpr("s2"), left_on="k",
                               right_on="k", window=1.0)
    local, split, registry = split_workload(
        {"a": sel, "b": join},
        {"a": frozenset({"r"}), "b": frozenset({"r"})})
    assert [name for name, _, _ in local] == ["a"]
    assert set(split) == {"b"}
    # The join's two scan legs become two virtual prefix units.
    assert len(registry.ordered) == 2
    assert all(vsid.startswith("__part.") for vsid, _, _ in registry.ordered)


def test_shared_stateless_prefix_is_deduped():
    # Two split queries over the same stateless subtree share one unit.
    left = ScanExpr("s1").select(Comparison("x", ">", 1))
    j1 = left.join(ScanExpr("s2"), left_on="k", right_on="k", window=1.0)
    j2 = left.join(ScanExpr("s3"), left_on="k", right_on="k", window=2.0)
    _, split, registry = split_workload(
        {"a": j1, "b": j2},
        {"a": frozenset({"r"}), "b": frozenset({"r"})})
    assert set(split) == {"a", "b"}
    sources = [source for _, _, source in registry.ordered]
    assert sources.count("s1") == 1  # the shared prefix interned once


def test_invalid_shard_counts_rejected():
    dsms = build_dsms(9)
    with pytest.raises(ValueError):
        dsms.run(shards=0)
    empty = DSMS()
    with pytest.raises(QueryError):
        empty.run(shards=2)


def test_worker_crash_fails_closed():
    from repro.engine.sharded import run_sharded

    dsms = build_dsms(10, observability=Observability.in_memory())
    with pytest.raises(ShardExecutionError):
        run_sharded(dsms, n_shards=2, faults={1: "crash"})
    alerts = dsms.observability.tracer.events("health.alert")
    assert alerts and alerts[0].attrs["severity"] == "critical"
