"""Ablation — bitmap vs plain-set policy encoding.

The paper notes policies "can also be encoded in a bitmap format for
compactness".  This bench compares the engine's plain ``frozenset``
encoding with :class:`~repro.core.bitmap.RoleBitmap` on the hot
operation of the whole framework — policy-compatibility checks, the
same ``not a.isdisjoint(b)`` call on both — and on memory per policy,
at several policy sizes.
"""

from __future__ import annotations

import random

import pytest

from repro.core.bitmap import RoleBitmap, RoleUniverse
from repro.metrics.measurement import deep_sizeof
from repro.workloads.synthetic import role_names

POLICY_SIZES = (2, 10, 50)
N_POLICIES = 400
N_CHECKS = 4000


def _policies(encoding, policy_size, seed):
    rng = random.Random(seed)
    pool = role_names(max(100, policy_size * 2))
    universe = RoleUniverse(pool)
    out = []
    for _ in range(N_POLICIES):
        roles = rng.sample(pool, policy_size)
        if encoding == "bitmap":
            out.append(RoleBitmap(universe, roles))
        else:
            out.append(frozenset(roles))
    return out


@pytest.mark.parametrize("policy_size", POLICY_SIZES)
@pytest.mark.parametrize("encoding", ["set", "bitmap"])
def test_ablation_bitmap_intersection(benchmark, encoding, policy_size):
    policies = _policies(encoding, policy_size, seed=41)
    rng = random.Random(43)
    pairs = [(rng.randrange(N_POLICIES), rng.randrange(N_POLICIES))
             for _ in range(N_CHECKS)]

    def once():
        hits = 0
        for a, b in pairs:
            if not policies[a].isdisjoint(policies[b]):
                hits += 1
        return hits

    hits = benchmark(once)
    benchmark.extra_info["encoding"] = encoding
    benchmark.extra_info["policy_size"] = policy_size
    benchmark.extra_info["compatible_pairs"] = hits
    benchmark.extra_info["bytes_per_policy"] = (
        deep_sizeof(policies) // N_POLICIES)
