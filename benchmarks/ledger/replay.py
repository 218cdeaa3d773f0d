"""Child process of the ledger: set-up and wire-to-wire replays.

Run as ``python replay.py <spec.json> <phase>``; prints one JSON object
as its last line.  The replay path touches only the stable facade —
``load_stream`` -> ``DSMS.register_stream/register_query`` ->
``DSMS.run()`` or ``DSMS.open_session().push()`` -> ``encode_element``
of every delivered element — so PRs that delete engine flags or
internal modules cannot break it.  Layer probes (optional entry
points) live in ``layers.py``.

Phases: ``setup`` (set-up only, for the ``setup_s`` samples),
``measure`` (end-to-end metrics), ``trace`` (per-layer metrics) and
``reference`` (the join's ``variant="nl"`` reference deliveries).
"""

from __future__ import annotations

import time

from spans import CAL_REF_S, SpanRecorder, calibrate, clock

#: Machine speed before anything heavy is imported; then the set-up
#: clock starts, before ``repro`` is imported.
CAL_START = calibrate()
T_START = time.perf_counter()

import gc  # noqa: E402
import heapq  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from contextlib import ExitStack  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from itertools import repeat  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "..", "..", "src"))

from repro import (DSMS, Observability, ScanExpr,  # noqa: E402
                   SecurityPunctuation)
from repro.operators import Comparison  # noqa: E402
from repro.stream import StreamSchema  # noqa: E402
from repro.stream.wire import encode_element, load_stream  # noqa: E402

from workloads import digest  # noqa: E402

#: A session replay is cut into this many position chunks, each
#: bracketed by machine-speed calibrations.  Latency quantiles are
#: taken per chunk and the median over chunks is reported, so one
#: disturbed stretch cannot move them.
LATENCY_CHUNKS = 4
#: Elements pushed through a throw-away session before latencies are
#: timed, so the element-wise code paths are warm.
LATENCY_WARMUP = 2_000


def _chunk_size(elements: int) -> int:
    return -(-elements // LATENCY_CHUNKS)


@dataclass
class Replay:
    """Outcome of one wire-to-wire replay."""

    spans: SpanRecorder
    lines: dict[str, list[str]]
    elements: int = 0
    failed: int = 0
    #: Of ``failed``, the elements lost to undecodable wire lines.
    decode_failed: int = 0
    error: str | None = None
    #: Per pushed element, nanoseconds from before its wire line was
    #: decoded to after push() returned and its results were encoded
    #: (push drive only).
    latencies: list[int] = field(default_factory=list)
    #: Indices into ``latencies`` of the first tuple after an sp-batch.
    switches: list[int] = field(default_factory=list)
    stages: list = field(default_factory=list)
    audit_events: int = 0
    #: ``(wall seconds, calibration seconds)`` per timed stretch: the
    #: whole replay for the run drive, one per position chunk for the
    #: push drive (calibrations between chunks are off the clock).
    stretches: list[tuple[float, float]] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        """Wall from opening the wire file(s) to the last result line
        encoded, as measured."""
        return sum(wall for wall, _ in self.stretches)

    @property
    def ref_wall_s(self) -> float:
        """The same wall in reference-speed seconds: every stretch
        scaled by what the calibration kernel took next to it."""
        return sum(wall * CAL_REF_S / cal for wall, cal in self.stretches)


def new_dsms(spec: dict, *, audited: bool | None = None,
             join_variant: str | None = None) -> DSMS:
    """A DSMS with the workload's queries registered (no streams)."""
    if audited is None:
        audited = spec["audited"]
    dsms = (DSMS(observability=Observability.in_memory()) if audited
            else DSMS())
    for query in spec["queries"]:
        if "select" in query:
            sel = query["select"]
            expr = ScanExpr(sel["stream"]).select(
                Comparison(sel["attr"], sel["op"], sel["value"]))
        else:
            join = query["join"]
            expr = ScanExpr(join["left"]).join(
                ScanExpr(join["right"]), join["on"], join["on"],
                join["window"], variant=join_variant or join["variant"])
        dsms.register_query(query["name"], expr, roles=set(query["roles"]))
    return dsms


def schema_of(stream: dict) -> StreamSchema:
    return StreamSchema(stream["sid"], tuple(stream["attributes"]),
                        key=stream["key"])


def _audit_events(dsms: DSMS) -> int:
    audit = dsms.audit
    return 0 if audit is None else len(audit) + audit.evicted


def replay_run(spec: dict, *, audited: bool | None = None,
               join_variant: str | None = None,
               run_kwargs: dict | None = None) -> Replay:
    """Wire file(s) -> ``DSMS.run()`` -> encoded result lines."""
    dsms = new_dsms(spec, audited=audited, join_variant=join_variant)
    out = Replay(SpanRecorder(spec["workload"]),
                 {q["name"]: [] for q in spec["queries"]},
                 elements=spec["elements"])
    rec = out.spans
    step = "wire.decode"
    before = calibrate()
    try:
        with rec.span("e2e"):
            for stream in spec["streams"]:
                with rec.span(step), open(stream["path"]) as fp:
                    elements = list(load_stream(fp))
                dsms.register_stream(schema_of(stream), elements)
            step = "engine.run"
            with rec.span(step):
                results = dsms.run(**(run_kwargs or {}))
            step = "delivery.encode"
            with rec.span(step):
                for name, result in results.items():
                    append = out.lines[name].append
                    for element in result.elements:
                        append(encode_element(element))
    except Exception as exc:  # the replay is the failure boundary
        out.failed = out.elements
        if step == "wire.decode":
            out.decode_failed = out.elements
        out.error = f"{step}: {exc!r}"
    _, start, end, _ = rec.rows[0]
    out.stretches.append(((end - start) / 1e9, (before + calibrate()) / 2))
    if out.error is not None:
        return out
    if dsms.last_report is not None:
        out.stages = dsms.last_report.stages
    out.audit_events = _audit_events(dsms)
    return out


def _feed(spec: dict, stack: ExitStack):
    """``(sid, element)`` pairs of all wire files in timestamp order
    (ties: stream registration order, as ``DSMS.run()`` merges)."""
    feeds = [
        zip(repeat(stream["sid"]),
            load_stream(stack.enter_context(open(stream["path"]))))
        for stream in spec["streams"]]
    if len(feeds) == 1:
        return feeds[0]
    return heapq.merge(*feeds, key=lambda pair: pair[1].ts)


def replay_push(spec: dict, *, detail: bool = False,
                limit: int | None = None) -> Replay:
    """Wire file(s) -> ``StreamingSession.push`` line by line, with
    subscriptions encoding every delivered element.

    ``detail`` records one ``wire.decode`` and one ``session.push``
    span per element (plus ``delivery.encode`` spans from the
    subscriptions); without it only the per-element latency is kept.
    ``limit`` stops after that many elements (warm-up).
    """
    dsms = new_dsms(spec)
    for stream in spec["streams"]:
        dsms.register_stream(schema_of(stream))
    out = Replay(SpanRecorder(spec["workload"]),
                 {q["name"]: [] for q in spec["queries"]})
    rec = out.spans
    session = dsms.open_session()
    for name, lines in out.lines.items():
        if detail:
            def deliver(element, append=lines.append):
                start = clock()
                append(encode_element(element))
                rec.add("delivery.encode", start, clock(), rec.current)
        else:
            def deliver(element, append=lines.append):
                append(encode_element(element))
        session.subscribe(name, deliver)
    latencies = out.latencies
    switches = out.switches
    after_sp = False
    remaining = spec["elements"] if limit is None else limit
    chunk = _chunk_size(remaining)
    cal = calibrate()
    with ExitStack() as stack, rec.span("e2e") as root:
        feed = _feed(spec, stack)
        stretch = clock()
        while remaining:
            start = clock()
            try:
                pair = next(feed, None)
            except Exception as exc:  # undecodable line: stream is lost
                out.failed += remaining
                out.decode_failed += remaining
                out.elements += remaining
                out.error = repr(exc)
                break
            if pair is None:
                break
            remaining -= 1
            out.elements += 1
            decoded = clock()
            try:
                if detail:
                    with rec.span("session.push"):
                        session.push(*pair)
                else:
                    session.push(*pair)
            except Exception as exc:
                out.failed += 1
                out.error = repr(exc)
            end = clock()
            if detail:
                rec.add("wire.decode", start, decoded, root)
            is_sp = type(pair[1]) is SecurityPunctuation
            if after_sp and not is_sp:
                switches.append(len(latencies))
            after_sp = is_sp
            latencies.append(end - start)
            if remaining and len(latencies) % chunk == 0:
                # Chunk boundary: read the machine speed off the clock.
                with rec.span("host.calibrate"):
                    after = calibrate()
                out.stretches.append(((end - stretch) / 1e9,
                                      (cal + after) / 2))
                cal = after
                stretch = clock()
        with rec.span("session.close"):
            session.close()
        end = clock()
    out.stretches.append(((end - stretch) / 1e9, (cal + calibrate()) / 2))
    out.stages = session.report().stages
    out.audit_events = _audit_events(dsms)
    return out


def replay(spec: dict, **kwargs) -> Replay:
    """One replay in the workload's own drive."""
    if spec["drive"] == "push":
        return replay_push(spec, **kwargs)
    return replay_run(spec, **kwargs)


def delivered_tids(lines: dict[str, list[str]]) -> dict[str, list]:
    """Tuple ids per query, read back from the encoded result lines
    (what a subscriber actually receives).  A line that is not a wire
    record raises ``ValueError``, ``KeyError`` or ``TypeError``."""
    out: dict[str, list] = {}
    for name, encoded in lines.items():
        tids = out[name] = []
        for line in encoded:
            record = json.loads(line)
            if record["k"] == "t":
                tids.append(record["tid"])
    return out


def check(run: Replay, expected: dict[str, str]) -> bool:
    """Correctness gate: an undecodable result line or a digest
    mismatch fails every op of the replay."""
    if run.error is None:
        try:
            delivered = digest(delivered_tids(run.lines))
        except (ValueError, KeyError, TypeError) as exc:
            run.error = f"undecodable result line: {exc!r}"
        else:
            if delivered != expected:
                run.error = "delivered (query, tid) digest != expected"
        if run.error is not None:
            run.failed = run.elements
    return run.error is None


def set_up(spec: dict) -> dict:
    """The set-up a cold process pays: import ``repro`` (already done,
    on the T_START clock), construct the DSMS, register the queries,
    one ``build_plan()``, and a checked warm-up replay.

    A warm-up that fails the gate is reported in the record, not
    raised: the run goes on, so the result line still carries every
    metric, with ``correct: false``.
    """
    new_dsms(spec).build_plan()
    warm = replay(spec)
    check(warm, spec["expected"])
    setup_s = time.perf_counter() - T_START
    cal_s = (CAL_START + calibrate()) / 2
    return {"setup_s": setup_s, "cal_s": cal_s,
            "ref_setup_s": setup_s * CAL_REF_S / cal_s,
            "elements": warm.elements, "failed": warm.failed,
            "error": warm.error}


def chunk_quantiles(run: Replay) -> list[dict]:
    """p50/p99 of push latency and p50 of policy-switch latency per
    position chunk of one session replay, in microseconds at the
    reference machine speed."""
    size = _chunk_size(len(run.latencies))
    out = []
    for index, (_, cal_s) in enumerate(run.stretches):
        lo, hi = index * size, (index + 1) * size
        chunk = sorted(run.latencies[lo:hi])
        switch = [run.latencies[i] for i in run.switches if lo <= i < hi]
        if not chunk or not switch:
            continue
        scale = CAL_REF_S / cal_s / 1e3
        out.append({
            "p50": chunk[len(chunk) // 2] * scale,
            "p99": chunk[len(chunk) * 99 // 100] * scale,
            "switch_p50": statistics.median(switch) * scale,
            "n": len(chunk), "n_switch": len(switch), "cal_s": cal_s})
    return out


def peak_rss_mb() -> float:
    """This process's own peak resident set.

    ``VmHWM`` belongs to the address space, so it starts afresh at
    exec; ``ru_maxrss`` does not — a child inherits its parent's peak
    across fork/exec, which would report the generator's memory.
    """
    with open("/proc/self/status") as fp:
        for line in fp:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise SystemExit("no VmHWM in /proc/self/status")


def _summary(run: Replay) -> dict:
    return {"wall_s": run.wall_s, "ref_wall_s": run.ref_wall_s,
            "elements": run.elements, "failed": run.failed,
            "error": run.error}


def measure(spec: dict, seconds: float) -> dict:
    """End-to-end metrics: timed replays for ``seconds`` seconds.

    Batch workloads spend 60% of the time on ``run`` replays
    (throughput) and the rest on session replays of the same wire
    files (latencies), taking turns, so that a disturbed stretch of
    the box hits a minority of either kind and the medians hold;
    ``push`` workloads get both from the same replays.
    """
    setup = set_up(spec)
    push_only = spec["drive"] == "push"
    throughput: list[dict] = []
    latency: list[dict] = []
    chunks: list[dict] = []

    def timed(drive, summaries: list[dict], latencies: bool) -> float:
        start = time.perf_counter()
        # Off the clock: the garbage of earlier replays is the
        # benchmark's, not the engine's; it shall neither trigger a
        # collection inside this replay nor count in the peak RSS.
        gc.collect()
        run = drive(spec)
        check(run, spec["expected"])
        summaries.append(_summary(run))
        if latencies:
            chunks.extend(chunk_quantiles(run))
        return time.perf_counter() - start

    if not push_only:
        replay_push(spec, limit=LATENCY_WARMUP)
    begun = time.perf_counter()
    run_s = push_s = 0.0
    while len(throughput) < 3 or time.perf_counter() - begun < seconds:
        if push_only or 2 * run_s <= 3 * push_s:
            run_s += timed(replay, throughput, push_only)
        else:
            push_s += timed(replay_push, latency, True)
    return {
        "setup": setup, "throughput": throughput, "latency": latency,
        "chunks": chunks, "peak_rss_mb": peak_rss_mb(),
    }


def main(argv: list[str]) -> int:
    spec_path, phase = argv[0], argv[1]
    with open(spec_path) as fp:
        spec = json.load(fp)
    if phase == "setup":
        result = set_up(spec)
    elif phase == "measure":
        result = measure(spec, float(argv[2]))
    elif phase == "trace":
        from layers import trace

        result = trace(spec, float(argv[2]), argv[3])
    elif phase == "reference":
        run = replay_run(spec, join_variant="nl")
        result = {"tids": delivered_tids(run.lines), "error": run.error}
    else:
        raise SystemExit(f"unknown phase: {phase!r}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
