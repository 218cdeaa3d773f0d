"""Workload catalogue and seeded wire-file generator.

Plain Python on purpose: nothing here imports ``repro``.  The
generator writes the JSONL wire format directly (the provider-side
contract of ``repro.stream.wire``), so the inputs of a workload depend
only on ``--seed`` and this file, never on engine code a later PR may
change — and the expected deliveries are computed from the generator's
own segment roles and thresholds, independently of the engine.

Roles and thresholds are fixed; the seed varies the data.  The
proportions a workload is defined by (accessible segments, matching
join keys, compatible segments) are exact for every seed — the seed
shuffles *which* segments and tuples carry them — so runs on different
seeds measure the same amount of work.  Sizes are tuned so that one
replay takes roughly 0.3-0.7 s on the 2-core reference box: a
``--seconds 10`` run then holds eight or more timed replays, and the
reported medians are steady.
"""

from __future__ import annotations

import hashlib
import json
import os
import random

QUERY_ROLE = "q_role"
FILTER_SCHEMA = {"sid": "synthetic", "attributes": ["object_id", "x", "y"],
                 "key": "object_id"}
JOIN_WINDOW = 400.0
JOIN_ROLE = "shared"

#: name -> parameters.  ``drive`` is how the throughput replays feed
#: the engine: ``run`` = ``DSMS.run()`` over a registered stream,
#: ``push`` = ``StreamingSession.push`` line by line.  Why each one is
#: here is said once, in BENCHMARK.json, and at length in the README.
WORKLOADS: dict[str, dict] = {
    "bulk_delivery": {
        "drive": "run", "tuples": 50_000, "tuples_per_sp": 100,
        "policy_size": 3, "accessible": 0.9, "queries": 2,
        "threshold": (100.0, 0.0),
    },
    "fanout_filter": {
        "drive": "run", "tuples": 12_000, "tuples_per_sp": 25,
        "policy_size": 3, "accessible": 0.6, "queries": 32,
        "threshold": (900.0, 3.0), "sharded_probe": True,
    },
    "sp_dense": {
        "drive": "run", "tuples": 8_000, "tuples_per_sp": 1,
        "policy_size": 8, "accessible": 0.6, "queries": 4,
        "threshold": (900.0, 3.0),
    },
    "sajoin_window": {
        "drive": "run", "tuples": 5_000, "tuples_per_sp": 10,
        "compatibility": 0.5, "match": 0.15, "join_values": 50,
    },
    "session_push": {
        "drive": "push", "tuples": 30_000, "tuples_per_sp": 25,
        "policy_size": 3, "accessible": 0.6, "queries": 4,
        "threshold": (900.0, 3.0),
    },
    "audited_filter": {
        "drive": "run", "tuples": 15_000, "tuples_per_sp": 100,
        "policy_size": 3, "accessible": 0.6, "queries": 4,
        "threshold": (900.0, 3.0), "audited": True,
    },
}


def _sp_line(roles: list[str], ts: float, provider: str) -> str:
    body = roles[0] if len(roles) == 1 else "{" + ", ".join(roles) + "}"
    return json.dumps({"k": "sp", "sp": f"<*, *, * | {body} | + | F | {ts}>",
                       "p": provider}, separators=(",", ":"))


def _tuple_line(sid: str, tid: int, values: dict, ts: float) -> str:
    return json.dumps({"k": "t", "sid": sid, "tid": tid, "v": values,
                       "ts": ts}, separators=(",", ":"))


def _flags(rng: random.Random, n: int, share: float) -> list[bool]:
    """``n`` flags, exactly ``round(n * share)`` of them set, in a
    seed-dependent order."""
    flags = [i < round(n * share) for i in range(n)]
    rng.shuffle(flags)
    return flags


def digest(tids_by_query: dict[str, list]) -> dict[str, str]:
    """Order-independent digest of each query's delivered tuple ids."""
    return {
        name: hashlib.sha256(
            json.dumps(sorted(tids)).encode()).hexdigest()
        for name, tids in tids_by_query.items()}


def _filter_workload(params: dict, rng: random.Random, n_tuples: int):
    """One punctuated stream + N ``select(x > t_i)`` queries.

    Each segment of ``tuples_per_sp`` tuples follows one sp granting
    ``policy_size`` roles; a share ``accessible`` of the segments
    includes QUERY_ROLE.  Query *i* holds ``{qr_i, QUERY_ROLE}`` and
    its own threshold, so no two queries share a subplan.
    """
    base, step = params["threshold"]
    queries = [
        {"name": f"q{i}", "roles": [f"qr_{i}", QUERY_ROLE],
         "select": {"stream": "synthetic", "attr": "x", "op": ">",
                    "value": base + step * i}}
        for i in range(params["queries"])]
    pool = [f"r{i}" for i in range(1, 101)]
    lines: list[str] = []
    expected: dict[str, list] = {q["name"]: [] for q in queries}
    per_sp = params["tuples_per_sp"]
    # x is uniform on [0, 1000) with one value per 1000/n stratum, so
    # every threshold selects the same share of tuples on every seed.
    xs = [(i + rng.random()) * 1000.0 / n_tuples for i in range(n_tuples)]
    rng.shuffle(xs)
    ts = 0.0
    tid = 0
    for accessible in _flags(rng, -(-n_tuples // per_sp),
                             params["accessible"]):
        ts += 1.0
        roles = rng.sample(pool, params["policy_size"] - int(accessible))
        if accessible:
            roles.append(QUERY_ROLE)
        lines.append(_sp_line(sorted(roles), ts, "synth"))
        granted = [q for q in queries if set(q["roles"]) & set(roles)]
        for _ in range(min(per_sp, n_tuples - tid)):
            ts += 1.0
            x = xs[tid]
            lines.append(_tuple_line(
                "synthetic", tid,
                {"object_id": tid, "x": x, "y": rng.uniform(0.0, 1000.0)},
                ts))
            for q in granted:
                if x > q["select"]["value"]:
                    expected[q["name"]].append(tid)
            tid += 1
    return [dict(FILTER_SCHEMA, lines=lines)], queries, expected


def _join_workload(params: dict, rng: random.Random, n_tuples: int):
    """Two punctuated streams for ``left JOIN right`` under JOIN_ROLE.

    Every left segment carries JOIN_ROLE; a ``compatibility`` share of
    the right segments carries it, the rest a private role.  Keys
    follow the Figure 9 generator: a ``match`` share of each stream's
    tuples takes keys from a small range both streams share, the rest
    from disjoint ranges.
    ``facts`` keeps what the plain-Python soundness check needs.
    """
    n_values = params["join_values"]
    shared_keys = max(1, int(n_values * params["match"]))
    per_sp = params["tuples_per_sp"]
    n_segments = -(-n_tuples // per_sp)
    streams = []
    facts: dict[str, dict[int, tuple]] = {}
    for sid in ("left", "right"):
        n_match = round(n_tuples * params["match"])
        offset = shared_keys + (n_values if sid == "right" else 0)
        keys = ([i % shared_keys for i in range(n_match)]
                + [offset + i % n_values
                   for i in range(n_tuples - n_match)])
        rng.shuffle(keys)
        compatible = _flags(rng, n_segments,
                            1.0 if sid == "left" else
                            params["compatibility"])
        lines: list[str] = []
        rows: dict[int, tuple] = {}
        ts = 0.0
        tid = 0
        for shared in compatible:
            ts += 1.0
            lines.append(_sp_line(
                [JOIN_ROLE if shared else f"private_{sid}"], ts, sid))
            for _ in range(min(per_sp, n_tuples - tid)):
                ts += 1.0
                lines.append(_tuple_line(
                    sid, tid, {"key": keys[tid], "payload": tid}, ts))
                rows[tid] = (keys[tid], ts, shared)
                tid += 1
        streams.append({"sid": sid, "attributes": ["key", "payload"],
                        "key": "key", "lines": lines})
        facts[sid] = rows
    queries = [{"name": "j", "roles": [JOIN_ROLE],
                "join": {"left": "left", "right": "right", "on": "key",
                         "window": JOIN_WINDOW, "variant": "index"}}]
    return streams, queries, facts


def unsound_pairs(pairs: list, facts: dict) -> list:
    """Delivered join pairs the generator's own facts forbid.

    A pair is sound iff both parents sat in a JOIN_ROLE segment, their
    keys match and their timestamps lie within the window.
    """
    bad = []
    for left_tid, right_tid in pairs:
        lkey, lts, lshared = facts["left"][left_tid]
        rkey, rts, rshared = facts["right"][right_tid]
        if not (lshared and rshared and lkey == rkey
                and abs(lts - rts) <= JOIN_WINDOW):
            bad.append((left_tid, right_tid))
    return bad


def build(name: str, seed: int, workdir: str,
          scale: float = 1.0) -> tuple[dict, dict | None]:
    """Generate workload ``name`` for ``seed``: write the wire file(s)
    into ``workdir`` and return ``(child spec, facts)``.

    ``expected`` holds per-query digests for the select+shield
    workloads; for the join it is filled in by the caller from the
    ``variant="nl"`` reference run, and ``facts`` (not part of the
    child spec) feeds :func:`unsound_pairs`.
    """
    params = WORKLOADS[name]
    rng = random.Random(f"{name}/{seed}")
    n_tuples = max(50, int(params["tuples"] * scale))
    facts = None
    if "threshold" in params:
        streams, queries, expected = _filter_workload(params, rng, n_tuples)
        expected = digest(expected)
    else:
        streams, queries, facts = _join_workload(params, rng, n_tuples)
        expected = None
    for stream in streams:
        lines = stream.pop("lines")
        stream["path"] = os.path.join(workdir, f"{stream['sid']}.jsonl")
        stream["elements"] = len(lines)
        with open(stream["path"], "w") as fp:
            fp.write("\n".join(lines))
            fp.write("\n")
    return {
        "workload": name, "seed": seed, "drive": params["drive"],
        "audited": params.get("audited", False),
        "sharded_probe": params.get("sharded_probe", False),
        "streams": streams, "queries": queries, "expected": expected,
        "elements": sum(s["elements"] for s in streams),
    }, facts
