"""Design ablations: what each of the framework's choices buys.

PF vs FP probe order in the nested-loop SAJoin (Section V.B.1); the
SPIndex skipping rule (Lemma 5.1) on and off; bitmap vs set policy
encoding; Security Shield placement before σ, between σ and π, or
after the query (Section IV.A); incremental vs absolute sps for a large
standing policy.  Each returns rows, counts beside its timings: the
counts show what a choice saves, and two settings of one choice must
deliver the same results.
"""

from __future__ import annotations

import random

from repro.core.bitmap import RoleBitmap, RoleUniverse
from repro.core.punctuation import SecurityPunctuation
from repro.experiments.fig7 import drive_chain, query_operators
from repro.experiments.fig9 import drive_join
from repro.metrics.measurement import Timer, deep_sizeof
from repro.operators.index_join import IndexSAJoin
from repro.operators.join import NestedLoopSAJoin
from repro.operators.shield import SecurityShield
from repro.stream.element import StreamElement
from repro.stream.tuples import DataTuple
from repro.stream.wire import encode_element
from repro.workloads.synthetic import (QUERY_ROLE, join_streams,
                                       punctuated_stream, role_names)

__all__ = ["ablation_pf_fp", "ablation_skipping", "ablation_bitmap",
           "ablation_placement", "ablation_incremental"]

#: Window of both join ablations.
WINDOW = 300.0


def ablation_pf_fp(n_tuples: int = 800) -> list[dict]:
    """Probe-and-filter vs filter-and-probe, per σsp."""
    rows: list[dict] = []
    for sigma in (0.0, 0.5, 1.0):
        left, right, _, _ = join_streams(
            n_tuples, tuples_per_sp=10, compatibility=sigma,
            match_fraction=0.15, seed=29)
        for method in ("PF", "FP"):
            join = NestedLoopSAJoin("key", "key", WINDOW, method=method,
                                    left_sid="left", right_sid="right")
            rows.append({"sigma_sp": sigma, "method": method,
                         **drive_join(join, left, right)})
    return rows


def _overlap_heavy_stream(sid: str, n_tuples: int,
                          seed: int) -> list[StreamElement]:
    """Ten tuples per sp, each sp granting 3 of 4 roles: any two
    policies share a role."""
    rng = random.Random(seed)
    elements: list[StreamElement] = []
    ts = 0.0
    for tid in range(n_tuples):
        ts += 1.0
        if tid % 10 == 0:
            elements.append(SecurityPunctuation.grant(
                sorted(rng.sample(["r1", "r2", "r3", "r4"], 3)), ts))
            ts += 1.0
        elements.append(DataTuple(
            sid, tid, {"key": rng.randrange(40), "payload": tid}, ts))
    return elements


def ablation_skipping(n_tuples: int = 800) -> list[dict]:
    """The index SAJoin with the skipping rule on and off."""
    left = _overlap_heavy_stream("left", n_tuples, 31)
    right = _overlap_heavy_stream("right", n_tuples, 37)
    rows: list[dict] = []
    for skipping in (True, False):
        join = IndexSAJoin("key", "key", WINDOW, universe=RoleUniverse(),
                           skipping=skipping, left_sid="left",
                           right_sid="right")
        timings = drive_join(join, left, right)
        scanned = sum(index.entries_scanned for index in join.indexes)
        skipped = sum(index.entries_skipped for index in join.indexes)
        rows.append({"skipping": skipping, **timings,
                     "entries_scanned": scanned, "entries_skipped": skipped,
                     "segments_visited": scanned - skipped,
                     "comparisons": join.stats.comparisons})
    return rows


def ablation_bitmap(n_checks: int = 4000) -> list[dict]:
    """Compatibility checks (``not a.isdisjoint(b)``, the same call on
    both encodings) among 400 policies, and bytes per policy, per
    policy size."""
    n_policies = 400
    rng = random.Random(41)
    pairs = [(rng.randrange(n_policies), rng.randrange(n_policies))
             for _ in range(n_checks)]
    rows: list[dict] = []
    for size in (2, 10, 50):
        pool = role_names(max(100, size * 2))
        sets = [frozenset(rng.sample(pool, size))
                for _ in range(n_policies)]
        universe = RoleUniverse(pool)
        bitmaps = [RoleBitmap(universe, roles) for roles in sets]
        for encoding, policies in (("set", sets), ("bitmap", bitmaps)):
            timer = Timer()
            with timer:
                hits = 0
                for a, b in pairs:
                    if not policies[a].isdisjoint(policies[b]):
                        hits += 1
            rows.append({
                "policy_size": size, "encoding": encoding,
                "per_check_us": timer.per_item_ms(n_checks) * 1e3,
                "compatible_pairs": hits,
                "bytes_per_policy": deep_sizeof(policies) // n_policies,
            })
    return rows


def ablation_placement(n_tuples: int = 3000) -> list[dict]:
    """The region query with its shield pre, between σ and π, or post,
    under tight (10 % of segments readable) and permissive policies."""
    rows: list[dict] = []
    for regime, accessible in (("tight-policies", 0.1),
                               ("permissive-policies", 0.9)):
        elements = list(punctuated_stream(
            n_tuples, tuples_per_sp=10, policy_size=3,
            accessible_fraction=accessible, seed=47))
        for placement in ("pre", "intermediate", "post"):
            shield = SecurityShield([QUERY_ROLE])
            select, project = query_operators()
            chain = {"pre": (shield, select, project),
                     "intermediate": (select, shield, project),
                     "post": (select, project, shield)}[placement]
            timer = Timer()
            with timer:
                tuples_out = drive_chain(elements, chain)
            rows.append({"regime": regime, "placement": placement,
                         "per_tuple_ms": timer.per_item_ms(n_tuples),
                         "select_in": select.stats.tuples_in,
                         "tuples_out": tuples_out})
    return rows


def _policy_changes(policy_size: int, n_changes: int):
    """(absolute, delta) encodings of one policy evolution: a standing
    ``policy_size``-role grant (the query role among them) with one
    extra role toggled in and out before every ten tuples."""
    base = sorted(set(role_names(policy_size - 1) + [QUERY_ROLE]))
    absolute: list[StreamElement] = []
    delta: list[StreamElement] = [SecurityPunctuation.grant(base, 0.5)]
    ts = 0.0
    for change in range(n_changes):
        ts += 1.0
        if change % 2 == 0:
            absolute.append(SecurityPunctuation.grant(base + ["flicker"], ts))
            delta.append(SecurityPunctuation.add_roles(["flicker"], ts))
        else:
            absolute.append(SecurityPunctuation.grant(base, ts))
            delta.append(SecurityPunctuation.retract_roles(["flicker"], ts))
        for tid in range(change * 10, change * 10 + 10):
            ts += 1.0
            item = DataTuple("s", tid, {"v": tid}, ts)
            absolute.append(item)
            delta.append(item)
    return absolute, delta


def ablation_incremental(n_changes: int = 120) -> list[dict]:
    """Shield cost and sp wire bytes of absolute vs delta sps, ten
    tuples per policy change."""
    rows: list[dict] = []
    for size in (10, 50, 200):
        absolute, delta = _policy_changes(size, n_changes)
        for encoding, elements in (("absolute", absolute), ("delta", delta)):
            timer = Timer()
            with timer:
                tuples_out = drive_chain(elements,
                                         (SecurityShield([QUERY_ROLE]),))
            rows.append({
                "policy_size": size, "encoding": encoding,
                "ss_ms": timer.per_item_ms(n_changes * 10),
                "tuples_out": tuples_out,
                "sp_bytes": sum(len(encode_element(e)) for e in elements
                                if isinstance(e, SecurityPunctuation)),
            })
    return rows
