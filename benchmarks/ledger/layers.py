"""Per-layer cost lines of one traced replay.

Layers are module names.  ``busy_s`` is the wall of the call; counts
are read where the work happens.  Numbers come from three places:

* the spans the replay recorded around the facade calls
  (``wire.decode``, ``engine.run`` / ``session.push``,
  ``delivery.encode``);
* ``ExecutionReport.stages`` grouped by ``StageStats.kind``;
* standalone probes of optional entry points (``PROBES``) run over the
  decoded elements.  A probe whose entry point no longer exists
  leaves its metrics out, with a note, and never crashes: only the
  facade path in ``replay.py`` is mandatory.

The metric names and units are listed once, in BENCHMARK.json;
``run.py`` reports a listed name this file did not produce as ``null``.

A metric whose layer does not run on a workload (``operators.sajoin.*``
without a join, ``session.push.*`` on a ``run`` workload, ...) is 0.
"""

from __future__ import annotations

import gc
import json
import os
import statistics
import time

from replay import (Replay, SecurityPunctuation, check, load_stream,
                    new_dsms, replay, replay_run, schema_of, set_up)
from spans import clock

#: ``StageStats.kind`` -> layer name.
STAGE_LAYERS = {
    "SecurityShield": "shield", "Select": "select",
    "IndexSAJoin": "sajoin", "NestedLoopSAJoin": "sajoin",
    "CollectingSink": "sink",
}
OPERATOR_LAYERS = sorted(set(STAGE_LAYERS.values()))


class Context:
    """What the probes of one traced replay share."""

    def __init__(self, spec: dict, run: Replay, decoded: dict):
        self.spec = spec
        self.run = run
        #: sid -> decoded elements (decoded once per child, untimed).
        self.decoded = decoded
        totals = run.spans.totals()
        zero = {"count": 0, "busy_s": 0.0, "self_s": 0.0}
        self.span = {name: totals.get(name, zero) for name in (
            "e2e", "wire.decode", "engine.run", "session.push",
            "session.close", "delivery.encode", "host.calibrate")}
        #: The replay's wall (calibrations are off the clock).
        self.wall_s = (self.span["e2e"]["busy_s"]
                       - self.span["host.calibrate"]["busy_s"])
        #: The engine's share of the replay: ``DSMS.run()`` wall, or
        #: the self time of the pushes (their nested result encoding
        #: belongs to delivery).
        self.engine_s = (self.span["engine.run"]["busy_s"]
                         + self.span["session.push"]["self_s"]
                         + self.span["session.close"]["self_s"])


def probe_sp_parse(ctx: Context) -> dict:
    """``SecurityPunctuation.parse`` over the sp bodies alone."""
    bodies = []
    for stream in ctx.spec["streams"]:
        with open(stream["path"]) as fp:
            for line in fp:
                if line.startswith('{"k":"sp"'):
                    record = json.loads(line)
                    bodies.append((record["sp"], record.get("p")))
    parse = SecurityPunctuation.parse
    start = clock()
    for body, provider in bodies:
        parse(body, provider=provider)
    return {"wire.decode.sp_parse_s": (clock() - start) / 1e9}


def probe_analyzer(ctx: Context) -> dict:
    """``SPAnalyzer.analyze_batched`` over the decoded elements."""
    from repro import RoleUniverse, SPAnalyzer

    busy = sps_in = sps_out = runs = tuples = 0
    for elements in ctx.decoded.values():
        analyzer = SPAnalyzer(RoleUniverse())
        start = clock()
        analyzed = list(analyzer.analyze_batched(iter(elements)))
        busy += clock() - start
        sps_in += sum(
            1 for el in elements if type(el) is SecurityPunctuation)
        for item in analyzed:
            if type(item) is SecurityPunctuation:
                sps_out += 1
            else:
                runs += 1
                tuples += len(getattr(item, "tuples", (item,)))
    return {"analyzer.busy_s": busy / 1e9, "analyzer.sps_in": sps_in,
            "analyzer.sps_out": sps_out, "analyzer.runs_out": runs,
            "analyzer.mean_run_len": tuples / runs if runs else 0.0}


def probe_merge(ctx: Context) -> dict:
    """``merge_sources`` + ``coalesce_feed`` over analyzed lists."""
    from repro import RoleUniverse, SPAnalyzer
    from repro.stream.batch import coalesce_feed
    from repro.stream.source import ListSource, merge_sources

    by_sid = {s["sid"]: s for s in ctx.spec["streams"]}
    sources = [
        ListSource(schema_of(by_sid[sid]),
                   list(SPAnalyzer(RoleUniverse()).analyze(iter(elements))))
        for sid, elements in ctx.decoded.items()]
    start = clock()
    for _ in coalesce_feed(merge_sources(sources)):
        pass
    return {"source.merge.busy_s": (clock() - start) / 1e9,
            "source.merge.elements": sum(len(s) for s in sources)}


def probe_plan(ctx: Context) -> dict:
    """``DSMS.build_plan`` for the workload's queries."""
    dsms = new_dsms(ctx.spec)
    for stream in ctx.spec["streams"]:
        dsms.register_stream(schema_of(stream))
    start = clock()
    plan, _ = dsms.build_plan()
    busy = clock() - start
    return {"engine.plan.busy_s": busy / 1e9,
            "engine.plan.operators": len(plan.nodes)}


def probe_stages(ctx: Context) -> dict:
    """Operator lines from ``ExecutionReport.stages`` by kind."""
    groups: dict[str, list] = {layer: [] for layer in OPERATOR_LAYERS}
    for stage in ctx.run.stages:
        layer = STAGE_LAYERS.get(stage.kind)
        if layer is not None:
            groups[layer].append(stage)
    expected = {"shield", "sink"}
    for query in ctx.spec["queries"]:
        expected.add("select" if "select" in query else "sajoin")
    missing = sorted(layer for layer in expected if not groups[layer])
    if missing:
        raise LookupError(f"no StageStats of kind {missing}")

    def total(layer: str, attr: str):
        return sum(getattr(stage, attr) for stage in groups[layer])

    out = {f"operators.{layer}.busy_s": total(layer, "processing_time")
           for layer in groups}
    for attr in ("tuples_in", "tuples_out", "drops", "comparisons"):
        out[f"operators.shield.{attr}"] = total("shield", attr)
    shield_in = out["operators.shield.tuples_in"]
    out["operators.shield.drop_rate"] = (
        out["operators.shield.drops"] / shield_in if shield_in else 0.0)
    for attr in ("tuples_in", "tuples_out"):
        out[f"operators.select.{attr}"] = total("select", attr)
    comparisons = total("sajoin", "comparisons")
    out["operators.sajoin.comparisons"] = comparisons
    out["operators.sajoin.state_ops"] = total("sajoin", "state_ops")
    out["operators.sajoin.state_size"] = total("sajoin", "queue_depth")
    # Lemma 5.1 waste: results per comparison made.
    out["operators.sajoin.useful_ratio"] = (
        total("sajoin", "tuples_out") / comparisons if comparisons else 0.0)
    out["operators.sink.elements"] = (total("sink", "tuples_in")
                                      + total("sink", "sps_in"))
    return out


def _engine_run_s(run: Replay) -> float:
    if run.error is not None:
        raise RuntimeError(run.error)
    return run.spans.totals()["engine.run"]["busy_s"]


def probe_observability(ctx: Context) -> dict:
    """Audited ÷ observability-off ``DSMS.run()`` wall (audited
    workloads are ``run`` workloads)."""
    if not ctx.spec["audited"]:
        return {"observability.overhead_ratio": 0.0}
    plain = _engine_run_s(replay_run(ctx.spec, audited=False))
    return {"observability.overhead_ratio": ctx.engine_s / plain}


def probe_sharded(ctx: Context) -> dict:
    """Measured wall of ``run(shards=2)`` ÷ the unsharded run."""
    if not ctx.spec["sharded_probe"]:
        return {"engine.sharded.wall_s": 0.0,
                "engine.sharded.wall_ratio": 0.0}
    sharded = replay_run(ctx.spec, run_kwargs={"shards": 2})
    if not check(sharded, ctx.spec["expected"]):
        raise RuntimeError(sharded.error)
    wall = _engine_run_s(sharded)
    return {"engine.sharded.wall_s": wall,
            "engine.sharded.wall_ratio": wall / ctx.engine_s}


#: Every probe is optional.
PROBES = [probe_sp_parse, probe_analyzer, probe_merge, probe_plan,
          probe_stages, probe_observability, probe_sharded]


def layer_metrics(spec: dict, run: Replay, decoded: dict,
                  untraced_wall_s: float, probes=PROBES
                  ) -> tuple[dict, dict]:
    """The per-layer metrics of one traced replay, plus a note for
    each probe that could not run (its metrics are left out)."""
    ctx = Context(spec, run, decoded)
    span = ctx.span
    e2e_s = ctx.wall_s
    out: dict = {
        "wire.decode.busy_s": span["wire.decode"]["busy_s"],
        "wire.decode.elements": run.elements,
        "wire.decode.bytes": sum(os.path.getsize(s["path"])
                                 for s in spec["streams"]),
        "wire.decode.failed": run.decode_failed,
        "delivery.encode.busy_s": span["delivery.encode"]["busy_s"],
        "delivery.encode.elements": sum(map(len, run.lines.values())),
        "delivery.encode.bytes": sum(
            len(line) + 1 for lines in run.lines.values()
            for line in lines),
        "engine.run.wall_s": ctx.engine_s,
        "engine.run.elements_per_s": run.elements / ctx.engine_s,
        "session.push.busy_s": span["session.push"]["busy_s"],
        "session.push.count": span["session.push"]["count"],
        "session.push.results": (
            span["delivery.encode"]["count"]
            if span["session.push"]["count"] else 0),
        "observability.audit.events": run.audit_events,
        # decode + engine + delivery + unattributed == e2e wall.
        "e2e.unattributed_s": span["e2e"]["self_s"],
        "e2e.unattributed_share": span["e2e"]["self_s"] / e2e_s,
        "trace.overhead_ratio": e2e_s / untraced_wall_s,
        # How fast the machine was (spans.CAL_REF_S is the reference);
        # per-layer numbers are as measured, not scaled.
        "host.calibration_s": statistics.median(
            cal for _, cal in run.stretches),
    }
    notes: dict = {}
    for probe in probes:
        try:
            out.update(probe(ctx))
        except (ImportError, AttributeError, LookupError, TypeError,
                RuntimeError) as exc:
            notes[probe.__name__] = repr(exc)
    parts = [out.get("analyzer.busy_s"), out.get("source.merge.busy_s")]
    parts += [out.get(f"operators.{layer}.busy_s")
              for layer in OPERATOR_LAYERS]
    if None not in parts:
        out["engine.executor.self_s"] = ctx.engine_s - sum(parts)
    return out, notes


def trace(spec: dict, seconds: float, spans_path: str) -> dict:
    """Per-layer metrics: traced replays + probes for ``seconds``."""
    warm = set_up(spec)
    iterations: list[dict] = []
    notes: dict = {}
    attempted, failed = warm["elements"], warm["failed"]
    if warm["error"]:
        # Nothing to attribute: the run reports the failed ops only.
        return {"iterations": iterations, "notes": {"warm-up": warm["error"]},
                "attempted": attempted, "failed": failed}
    untraced = statistics.median(replay(spec).wall_s for _ in range(3))
    decoded = {}
    for stream in spec["streams"]:
        with open(stream["path"]) as fp:
            decoded[stream["sid"]] = list(load_stream(fp))
    kwargs = {"detail": True} if spec["drive"] == "push" else {}
    begun = time.perf_counter()
    while not iterations or time.perf_counter() - begun < seconds:
        gc.collect()  # as in replay.measure
        run = replay(spec, **kwargs)
        check(run, spec["expected"])
        attempted += run.elements
        failed += run.failed
        if run.error is not None:
            notes["replay"] = run.error
            break
        metrics, probe_notes = layer_metrics(spec, run, decoded, untraced)
        iterations.append(metrics)
        notes.update(probe_notes)
    if iterations:
        run.spans.dump_jsonl(spans_path)
    return {"iterations": iterations, "notes": notes,
            "attempted": attempted, "failed": failed}
