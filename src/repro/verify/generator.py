"""Seeded random scenario generation for the differential harness.

A *scenario* is a fully serializable description of one verification
case: input streams (as wire-format lines, interleaving sps and
tuples), query plan specs (plain nested dicts — the oracle interprets
them directly, the differ compiles them to engine expressions), the
server policies registered before the streams run and the knob
settings that produced them.

Determinism discipline: every random draw comes from one
``random.Random(f"sp-verify:{seed}:{index}")`` instance (plus one
draw of its own deciding whether a ``select``/``multi_query`` scenario
carries incremental sp-batches, one drawing its server policy and one
a ``multi_query`` scenario's extra sibling selects) —
no wall clock, no global random state — so ``repro verify --seed N``
is byte-reproducible and every scenario can be regenerated from its
``(seed, index)`` pair alone.

Generated shield predicates always *contain* the query's roles
(conjunct = query roles ∪ extras).  This matches how shields arise in
practice (they guard the query specifier's roles) and is exactly the
condition under which Table II's Rule 3 two-sided push stays
delivery-equivalent — see docs/VERIFICATION.md.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field, replace
from typing import Callable

from repro.core.patterns import ANY, literal, one_of
from repro.core.punctuation import SecurityPunctuation, Sign
from repro.errors import PlanError
from repro.stream.element import StreamElement
from repro.stream.tuples import DataTuple
from repro.stream.wire import decode_element, encode_element

__all__ = ["Scenario", "generate_scenario", "ROLE_POOL", "SHAPES"]

#: Small role pool: overlaps between granted roles, denials and query
#: roles are frequent, which is where the interesting semantics live.
ROLE_POOL = ("R1", "R2", "R3", "R4")

#: Scenario shapes with generation weights.
SHAPES = (
    ("scan", 2),
    ("select", 2),
    ("project", 3),
    ("dupelim", 2),
    ("groupby", 2),
    ("join", 4),
    ("join_deep", 2),
    ("join3", 1),
    ("multi_query", 2),
    ("baseline", 3),
)


@dataclass
class Scenario:
    """One serializable verification case."""

    seed: int
    index: int
    shape: str
    knobs: dict
    #: stream id -> {"attributes": [...], "elements": [wire lines]}
    streams: dict
    #: query name -> {"roles": [...], "plan": spec}
    queries: dict
    note: str = ""
    #: Server policies registered before the streams run, as sp text
    #: (``SecurityPunctuation.to_text``).
    server: list = field(default_factory=list)

    def decoded(self) -> "dict[str, list[StreamElement]]":
        """Fresh decoded elements per stream (registration order)."""
        return {sid: [decode_element(line) for line in spec["elements"]]
                for sid, spec in self.streams.items()}

    def server_policies(self) -> "list[SecurityPunctuation]":
        """Fresh parsed server policies, in registration order."""
        return [SecurityPunctuation.parse(text) for text in self.server]

    def element_count(self) -> int:
        return sum(len(spec["elements"]) for spec in self.streams.values())

    def describe(self) -> str:
        return (f"seed={self.seed} index={self.index} shape={self.shape} "
                f"streams={len(self.streams)} "
                f"elements={self.element_count()} "
                f"queries={len(self.queries)}")

    # -- JSON round trip ------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "format": 1,
            "seed": self.seed,
            "index": self.index,
            "shape": self.shape,
            "knobs": self.knobs,
            "streams": self.streams,
            "queries": self.queries,
            "note": self.note,
            "server": self.server,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        """The scenario ``data`` spells (:class:`PlanError` when a plan
        names an unknown operator or scans an undeclared stream)."""
        for name, query in data["queries"].items():
            _check_plan(name, query["plan"], data["streams"])
        return cls(
            seed=data.get("seed", 0),
            index=data.get("index", 0),
            shape=data.get("shape", "custom"),
            knobs=data.get("knobs", {}),
            streams=data["streams"],
            queries=data["queries"],
            note=data.get("note", ""),
            server=list(data.get("server", ())),
        )

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        return cls.from_dict(json.loads(text))

    def with_streams(self, streams: dict) -> "Scenario":
        return replace(self, streams=streams)

    def with_queries(self, queries: dict) -> "Scenario":
        return replace(self, queries=queries)

    def mutate_elements(
        self,
        mutator: "Callable[[str, list[StreamElement]], list[StreamElement]]",
    ) -> "Scenario":
        """Clone with every stream's elements passed through ``mutator``."""
        streams = {}
        for sid, spec in self.streams.items():
            elements = mutator(sid, [decode_element(line)
                                     for line in spec["elements"]])
            streams[sid] = {
                "attributes": list(spec["attributes"]),
                "elements": [encode_element(e) for e in elements],
            }
        return self.with_streams(streams)

    def baseline_compatible(self) -> bool:
        """Whether the two baselines can express this scenario.

        Both baselines model flat stream-level enforcement: a single
        stream, pure-scan plans and wildcard-DDP sps (the tuple- and
        attribute-granular cases are exactly what they cannot express
        without a query processor), and no server policy (neither
        refines a provider's).
        """
        if len(self.streams) != 1 or self.server:
            return False
        for query in self.queries.values():
            if query["plan"]["op"] != "scan":
                return False
        for spec in self.streams.values():
            for line in spec["elements"]:
                element = decode_element(line)
                if isinstance(element, SecurityPunctuation):
                    ddp = element.ddp
                    if not (ddp.tuple_id.is_wildcard()
                            and ddp.attribute.is_wildcard()):
                        return False
        return True


# -- stream generation -------------------------------------------------------

@dataclass
class _StreamState:
    sid: str
    attributes: tuple
    elements: list = field(default_factory=list)
    ts: float = 0.0
    next_tid: int = 0


#: The operators a plan spec may name (``differ.expr_from_spec``).
_SPEC_OPS = frozenset({"scan", "shield", "select", "project", "dupelim",
                       "groupby", "join"})


def _check_plan(name: str, spec: dict, streams: dict) -> None:
    op = spec.get("op")
    if op not in _SPEC_OPS:
        raise PlanError(f"query {name!r}: unknown plan op {op!r}")
    if op == "scan" and spec.get("stream") not in streams:
        raise PlanError(f"query {name!r} scans undeclared stream "
                        f"{spec.get('stream')!r}")
    for key in ("input", "left", "right"):
        if key in spec:
            _check_plan(name, spec[key], streams)


def _draw_roles(rng: random.Random, k_max: int = 3) -> list[str]:
    k = rng.randint(1, min(k_max, len(ROLE_POOL)))
    return sorted(rng.sample(ROLE_POOL, k))


def _gen_sp_batch(rng: random.Random, state: _StreamState,
                  knobs: dict, upcoming_tids: list) -> None:
    """Append one sp-batch (all sps share a timestamp) to the stream."""
    state.ts += round(rng.uniform(0.5, 2.0), 2)
    batch_ts = state.ts
    size = rng.randint(1, knobs["sp_batch_max"])
    if knobs.get("p_incremental") and rng.random() < knobs["p_incremental"]:
        # An incremental batch edits the roles in force, sp by sp in
        # order (its stream carries wildcard-scoped sps only).
        for _ in range(size):
            sp = SecurityPunctuation.grant(
                _draw_roles(rng, 2), batch_ts, provider=state.sid,
                incremental=True)
            if rng.random() < 0.4:
                sp = sp.with_sign(Sign.NEGATIVE)
            state.elements.append(sp)
        return
    for position in range(size):
        stream_pattern = (literal(state.sid)
                          if rng.random() < knobs["p_stream_scoped"]
                          else ANY)
        tuple_pattern = ANY
        attribute_pattern = ANY
        if rng.random() < knobs["p_tuple_scoped"] and upcoming_tids:
            sample = rng.sample(upcoming_tids,
                                rng.randint(1, len(upcoming_tids)))
            tuple_pattern = one_of(sorted(sample))
        if rng.random() < knobs["p_attr_scoped"]:
            attribute_pattern = literal(rng.choice(state.attributes))
        negative = (position > 0 or size == 1) \
            and rng.random() < knobs["p_negative"]
        sp = SecurityPunctuation.grant(
            _draw_roles(rng), batch_ts,
            stream=stream_pattern, tuple_id=tuple_pattern,
            attribute=attribute_pattern,
            immutable=rng.random() < knobs["p_immutable"],
            provider=state.sid,
        )
        if negative:
            sp = sp.with_sign(Sign.NEGATIVE)
        state.elements.append(sp)


def _gen_tuples(rng: random.Random, state: _StreamState, count: int,
                share_batch_ts: bool) -> list:
    tids = []
    for position in range(count):
        if not (share_batch_ts and position == 0):
            state.ts += round(rng.uniform(0.5, 1.5), 2)
        values = {}
        for attr in state.attributes:
            if attr.startswith("k"):
                values[attr] = rng.randint(0, 2)
            elif attr.startswith("a"):
                values[attr] = rng.randint(0, 4)
            else:
                values[attr] = rng.randint(0, 9)
        tid = state.next_tid
        state.next_tid += 1
        tids.append(tid)
        state.elements.append(
            DataTuple(state.sid, tid, values, state.ts))
    return tids


def _gen_stream(rng: random.Random, sid: str, attributes: tuple,
                knobs: dict, *, wildcard_only: bool = False) -> dict:
    state = _StreamState(sid, attributes, ts=rng.choice([0.0, 0.25, 0.5]))
    local = dict(knobs, p_stream_scoped=0.8)
    if wildcard_only or knobs.get("p_incremental"):
        local["p_tuple_scoped"] = 0.0
        local["p_attr_scoped"] = 0.0
    if knobs.get("p_incremental"):
        # Incremental sps edit a fully wildcard-scoped policy only.
        local["p_stream_scoped"] = 0.0
    # Denial-by-default prefix: tuples before any sp.
    if rng.random() < 0.3:
        _gen_tuples(rng, state, rng.randint(1, 2), share_batch_ts=False)
    n_segments = rng.randint(2, knobs["segments_max"])
    for _ in range(n_segments):
        n_tuples = rng.randint(0, local["tuples_per_sp_max"])
        upcoming = list(range(state.next_tid, state.next_tid + n_tuples))
        _gen_sp_batch(rng, state, local, upcoming)
        if rng.random() < 0.15:
            # Empty segment: the next batch overrides immediately.
            continue
        share = rng.random() < 0.2
        _gen_tuples(rng, state, n_tuples, share_batch_ts=share)
    # Trailing sp-batch with no tuples.
    if rng.random() < 0.3:
        _gen_sp_batch(rng, state, local, [])
    return {
        "attributes": list(attributes),
        "elements": [encode_element(e) for e in state.elements],
    }


# -- plan specs ---------------------------------------------------------------

def _scan(sid: str) -> dict:
    return {"op": "scan", "stream": sid}


def _shield_spec(rng: random.Random, qroles: list, n_max: int = 2) -> list:
    """Conjuncts, each a superset of the query's roles."""
    conjuncts = []
    for _ in range(rng.randint(1, n_max)):
        extras = rng.sample(ROLE_POOL, rng.randint(0, 2))
        conjuncts.append(sorted(set(qroles) | set(extras)))
    return conjuncts


def _maybe_shield(rng: random.Random, spec: dict, qroles: list,
                  p: float = 0.6) -> dict:
    if rng.random() < p:
        return {"op": "shield", "input": spec,
                "predicates": _shield_spec(rng, qroles)}
    return spec


def _select_spec(rng: random.Random, attributes: tuple) -> dict:
    return {
        "attribute": rng.choice(attributes),
        "op": rng.choice(["=", "!=", "<", "<=", ">", ">="]),
        "value": rng.randint(0, 6),
    }


def _window(rng: random.Random) -> float:
    return float(rng.choice([4, 8, 16, 40]))


# -- whole scenarios ----------------------------------------------------------

def _knobs(rng: random.Random) -> dict:
    return {
        "tuples_per_sp_max": rng.randint(1, 6),
        "sp_batch_max": rng.randint(1, 3),
        "segments_max": rng.randint(3, 8),
        "p_negative": rng.choice([0.0, 0.25, 0.5]),
        "p_tuple_scoped": rng.choice([0.0, 0.3]),
        "p_attr_scoped": rng.choice([0.0, 0.3]),
        "p_immutable": rng.choice([0.0, 0.3]),
    }


def _stream_attrs(i: int) -> tuple:
    # Globally distinct attribute names: merged join tuples never
    # prefix-rename, so result values stay comparable across plans.
    return (f"a{i}", f"b{i}", f"k{i}")


def generate_scenario(seed: int, index: int) -> Scenario:
    """The ``index``-th scenario of fuzz run ``seed`` (pure function)."""
    rng = random.Random(f"sp-verify:{seed}:{index}")
    knobs = _knobs(rng)
    shapes, weights = zip(*SHAPES)
    shape = rng.choices(shapes, weights=weights, k=1)[0]
    if shape in ("select", "multi_query") and random.Random(
            f"sp-verify:{seed}:{index}:incremental").random() < 0.5:
        # Incremental batches in the shapes that carry a select (σ
        # discards the sps of a segment none of whose tuples passes).
        # Drawn apart from ``rng``: a scenario without them is the one
        # generated before they existed.
        knobs["p_incremental"] = 0.4

    streams: dict = {}
    queries: dict = {}
    qroles = sorted(rng.sample(ROLE_POOL, rng.randint(1, 2)))

    def add_stream(i: int, wildcard_only: bool = False) -> str:
        sid = f"s{i}"
        streams[sid] = _gen_stream(rng, sid, _stream_attrs(i), knobs,
                                   wildcard_only=wildcard_only)
        return sid

    if shape == "scan":
        sid = add_stream(0)
        plan = _maybe_shield(rng, _scan(sid), qroles, p=0.5)
    elif shape == "select":
        sid = add_stream(0)
        plan = _maybe_shield(rng, {
            "op": "select", "input": _maybe_shield(rng, _scan(sid), qroles),
            "condition": _select_spec(rng, _stream_attrs(0)),
        }, qroles, p=0.4)
    elif shape == "project":
        sid = add_stream(0)
        attrs = _stream_attrs(0)
        kept = sorted(rng.sample(attrs, rng.randint(1, 2)))
        plan = _maybe_shield(rng, {
            "op": "project", "input": _maybe_shield(rng, _scan(sid), qroles),
            "attributes": kept,
        }, qroles, p=0.4)
    elif shape == "dupelim":
        sid = add_stream(0)
        attrs = _stream_attrs(0)
        plan = _maybe_shield(rng, {
            "op": "dupelim", "input": _maybe_shield(rng, _scan(sid), qroles),
            "window": _window(rng),
            "attributes": ([rng.choice(attrs)]
                           if rng.random() < 0.7 else None),
        }, qroles, p=0.4)
    elif shape == "groupby":
        sid = add_stream(0)
        plan = _maybe_shield(rng, {
            "op": "groupby", "input": _maybe_shield(rng, _scan(sid), qroles),
            "key": rng.choice([None, f"a{0}"]),
            "agg": rng.choice(["sum", "count", "min", "max"]),
            "attribute": f"b{0}",
            "window": _window(rng),
        }, qroles, p=0.4)
    elif shape in ("join", "join_deep"):
        left_sid = add_stream(0)
        right_sid = add_stream(1)
        left: dict = _scan(left_sid)
        right: dict = _scan(right_sid)
        if shape == "join_deep":
            if rng.random() < 0.5:
                left = {"op": "select", "input": left,
                        "condition": _select_spec(rng, _stream_attrs(0))}
            left = _maybe_shield(rng, left, qroles, p=0.5)
            right = _maybe_shield(rng, right, qroles, p=0.5)
        plan = _maybe_shield(rng, {
            "op": "join", "left": left, "right": right,
            "left_on": "k0", "right_on": "k1",
            "window": _window(rng),
        }, qroles, p=0.6)
    elif shape == "join3":
        add_stream(0)
        add_stream(1)
        add_stream(2)
        inner = {"op": "join", "left": _scan("s0"), "right": _scan("s1"),
                 "left_on": "k0", "right_on": "k1",
                 "window": _window(rng)}
        plan = _maybe_shield(rng, {
            "op": "join", "left": inner, "right": _scan("s2"),
            "left_on": "k0", "right_on": "k2",
            "window": _window(rng),
        }, qroles, p=0.6)
    elif shape == "multi_query":
        sid = add_stream(0)
        plan = _maybe_shield(rng, _scan(sid), qroles, p=0.5)
        other_roles = sorted(rng.sample(ROLE_POOL, rng.randint(1, 2)))
        condition = _select_spec(rng, _stream_attrs(0))
        if sibling := rng.random() < 0.5:  # q0 a sibling select of q1
            condition["op"] = rng.choice(["<", "<=", ">", ">="])
        select = {"op": "select", "input": _scan(sid), "condition": condition}
        queries["q1"] = {"roles": other_roles, "plan": _maybe_shield(
            rng, select, other_roles, p=0.5)}
        if sibling:
            twin = dict(condition, value=rng.randint(0, 6))
            plan = _maybe_shield(rng, dict(select, input=_scan(sid),
                                           condition=twin), qroles, p=0.5)
            queries.update(_siblings(seed, index, select,
                                     {condition["value"], twin["value"]}))
    else:  # baseline
        sid = add_stream(0, wildcard_only=True)
        plan = _scan(sid)

    queries["q0"] = {"roles": qroles, "plan": plan}
    # Registration order must be deterministic: rebuild sorted.
    queries = {name: queries[name] for name in sorted(queries)}
    return Scenario(seed=seed, index=index, shape=shape, knobs=knobs,
                    streams=streams, queries=queries,
                    server=_server_policy(seed, index, shape, knobs))


def _siblings(seed: int, index: int, select: dict, taken: set) -> dict:
    """``q2``… : one to three more sibling selects of a ``multi_query``
    scenario's ``q1``, each with a constant no sibling has, so its
    selection group has three to five members.  Drawn apart from the
    scenario's own ``rng``, like :func:`_server_policy`: everything
    else is what was generated before them."""
    rng = random.Random(f"sp-verify:{seed}:{index}:siblings")
    free = [value for value in range(7) if value not in taken]
    queries = {}
    for number, value in enumerate(rng.sample(free, rng.randint(1, 3)), 2):
        roles = sorted(rng.sample(ROLE_POOL, rng.randint(1, 2)))
        condition = dict(select["condition"], value=value)
        queries[f"q{number}"] = {"roles": roles, "plan": _maybe_shield(
            rng, dict(select, input=dict(select["input"]),
                      condition=condition), roles, p=0.5)}
    return queries


def _server_policy(seed: int, index: int, shape: str, knobs: dict) -> list:
    """0-1 wildcard-scoped server grant or denial, as sp text, over a
    scenario of absolute batches (not the baseline shape: neither
    baseline refines a provider's policy).  Drawn apart from the
    scenario's own ``rng``: the streams and queries are the ones
    generated before server policies existed."""
    if knobs.get("p_incremental") or shape == "baseline":
        return []
    rng = random.Random(f"sp-verify:{seed}:{index}:server")
    if rng.random() >= 0.4:
        return []
    roles = _draw_roles(rng)
    sp = (SecurityPunctuation.grant(roles, 0.0) if rng.random() < 0.5
          else SecurityPunctuation.deny(roles, 0.0))
    return [sp.to_text()]
