"""Property suite for the segment-granular stream partitioner.

Hypothesis-style randomized cases over fixed seeds, for the
invariants that make a segment a unit of parallelism:

* the routing hash is a pure function of stream content — stable
  across calls, processes and runs (``PYTHONHASHSEED``-independent,
  pinned by golden vectors);
* chunking is a partition of the element list: concatenating chunks
  in order reproduces the stream exactly, every chunk is one sp-batch
  plus its governed tuples (or the leading denial prefix);
* segment affinity: all sps and tuples of one segment land on one
  shard, in stream order;
* no sp-scope leakage: resolving each shard's sub-stream with a fresh
  policy tracker yields exactly the roles the full stream resolves —
  no shard ever sees (or misses) policy from another shard's segment;
* streams carrying incremental sps (the one cross-segment dependency)
  are pinned whole onto a single shard;
* merging per-shard output runs reconstructs the original order.
"""

import random

import pytest

from repro.core.punctuation import SecurityPunctuation
from repro.stream.tuples import DataTuple
from repro.verify.oracle import NaiveTracker, resolve_batch

from tests.engine.partition import (NO_ANCHOR, assign_chunks, chunk_runs,
                                    merge_chunk_runs, partition_stream,
                                    shard_of, split_chunks, stable_hash)

ROLES = [("analyst",), ("admin",), ("nurse", "doctor"), ("other",)]

SEEDS = list(range(20))


def random_stream(seed, *, incremental=False):
    """A punctuated stream with the shapes the generator produces.

    Denial-by-default prefixes, multi-sp batches, empty segments,
    tuples sharing their batch's timestamp, strictly increasing batch
    timestamps.
    """
    rng = random.Random(f"partitioner:{seed}")
    elements = []
    ts = 0.0
    tid = 0
    if rng.random() < 0.4:  # leading tuple-only denial prefix
        for _ in range(rng.randrange(1, 4)):
            ts += rng.uniform(0.1, 0.5)
            tid += 1
            elements.append(DataTuple("s1", f"t{tid}", {"v": tid}, ts))
    for _ in range(rng.randrange(3, 14)):
        ts += rng.uniform(0.5, 2.0)
        for _ in range(rng.randrange(1, 3)):  # multi-sp batches
            sp = SecurityPunctuation.grant(rng.choice(ROLES), ts)
            if incremental and rng.random() < 0.3:
                sp = SecurityPunctuation.grant(rng.choice(ROLES), ts,
                                               incremental=True)
            elements.append(sp)
        if rng.random() < 0.2:
            continue  # empty segment
        share = rng.random() < 0.2
        for i in range(rng.randrange(1, 6)):
            if not (share and i == 0):
                ts += rng.uniform(0.1, 0.5)
            tid += 1
            elements.append(DataTuple("s1", f"t{tid}", {"v": tid}, ts))
    return elements


class TestStableHash:
    def test_golden_vectors(self):
        # Published FNV-1a 64-bit vectors: any change to the hash
        # breaks cross-run routing stability, so pin it exactly.
        assert stable_hash("") == 0xCBF29CE484222325
        assert stable_hash("a") == 0xAF63DC4C8601EC8C
        assert stable_hash("foobar") == 0x85944171F73967E8

    def test_stable_across_calls_and_unicode(self):
        for text in ("s1|t17", "s2|sp|3.5", "ehr|пациент", ""):
            assert stable_hash(text) == stable_hash(text)
            assert 0 <= stable_hash(text) < 2 ** 64

    def test_shard_of_range_and_determinism(self):
        for n in (1, 2, 3, 4, 7):
            seen = {shard_of(f"s1|t{i}", n) for i in range(200)}
            assert seen <= set(range(n))
            if n > 1:
                assert len(seen) > 1  # keys actually spread
        with pytest.raises(ValueError):
            shard_of("s1|t1", 0)


class TestSplitChunks:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_chunks_partition_the_stream(self, seed):
        elements = random_stream(seed)
        chunks = split_chunks("s1", elements)
        rebuilt = []
        prev_stop = 0
        for chunk in chunks:
            assert chunk.start == prev_stop  # contiguous, gap-free
            rebuilt.extend(elements[chunk.start:chunk.stop])
            prev_stop = chunk.stop
        assert prev_stop == len(elements)
        assert rebuilt == elements

    @pytest.mark.parametrize("seed", SEEDS)
    def test_each_chunk_is_one_segment(self, seed):
        elements = random_stream(seed)
        for chunk in split_chunks("s1", elements):
            sps = elements[chunk.start:chunk.tuples_at]
            tuples = elements[chunk.tuples_at:chunk.stop]
            assert all(isinstance(e, SecurityPunctuation) for e in sps)
            assert not any(isinstance(e, SecurityPunctuation)
                           for e in tuples)
            if sps:
                # One sp-batch: a maximal same-ts adjacent run.
                assert len({sp.ts for sp in sps}) == 1
                assert chunk.anchor_ts == sps[0].ts
            else:
                assert chunk.anchor_ts == NO_ANCHOR
                assert chunk.start == 0  # only the denial prefix

    def test_anchor_ordering_strictly_increases(self):
        # Generator-shaped streams have strictly increasing batch ts,
        # so chunk anchors must too — the property the merge sort
        # relies on.
        for seed in SEEDS:
            anchors = [c.anchor_ts
                       for c in split_chunks("s1", random_stream(seed))]
            assert anchors == sorted(anchors)


class TestPartitionStream:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("n_shards", [1, 2, 3, 4])
    def test_permutation_and_order_preservation(self, seed, n_shards):
        elements = random_stream(seed)
        parts = partition_stream("s1", elements, n_shards)
        assert len(parts) == n_shards
        ids = {id(e) for part in parts for e in part}
        assert len(ids) == len(elements)  # a permutation, no dup/loss
        index_of = {id(e): i for i, e in enumerate(elements)}
        for part in parts:
            positions = [index_of[id(e)] for e in part]
            assert positions == sorted(positions)  # stream order kept

    @pytest.mark.parametrize("seed", SEEDS)
    def test_routing_is_stable_across_runs(self, seed):
        elements = random_stream(seed)
        first = partition_stream("s1", elements, 4)
        again = partition_stream("s1", list(elements), 4)
        assert [[e for e in part] for part in first] \
            == [[e for e in part] for part in again]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_segment_affinity(self, seed):
        """All sps + tuples of one segment land on exactly one shard."""
        elements = random_stream(seed)
        chunks = split_chunks("s1", elements)
        parts = partition_stream("s1", elements, 4)
        member_shard = {}
        for shard, part in enumerate(parts):
            for element in part:
                member_shard[id(element)] = shard
        for chunk in chunks:
            shards = {member_shard[id(e)]
                      for e in elements[chunk.start:chunk.stop]}
            assert len(shards) <= 1

    def test_single_shard_is_identity(self):
        elements = random_stream(0)
        assert partition_stream("s1", elements, 1) == [elements]

    @pytest.mark.parametrize("seed", SEEDS[:8])
    def test_incremental_streams_are_pinned(self, seed):
        elements = random_stream(seed, incremental=True)
        if not any(isinstance(e, SecurityPunctuation) and e.incremental
                   for e in elements):
            pytest.skip("seed produced no incremental sp")
        parts = partition_stream("s1", elements, 4)
        non_empty = [part for part in parts if part]
        assert len(non_empty) == 1
        assert non_empty[0] == elements

    @pytest.mark.parametrize("seed", SEEDS)
    def test_no_sp_scope_leakage(self, seed):
        """Per-shard policy resolution == full-stream resolution.

        Each shard runs its own tracker over only its sub-stream; every
        tuple must still resolve to exactly the roles the unsharded
        tracker gives it — segments are self-contained, so no policy
        scope crosses a shard boundary.
        """
        elements = random_stream(seed)
        full = NaiveTracker()
        expected = {}
        for element in elements:
            if isinstance(element, SecurityPunctuation):
                full.observe(element)
            else:
                expected[element.tid] = resolve_batch(
                    full.governing(), element)
        for part in partition_stream("s1", elements, 4):
            local = NaiveTracker()
            for element in part:
                if isinstance(element, SecurityPunctuation):
                    local.observe(element)
                else:
                    assert resolve_batch(local.governing(), element) \
                        == expected[element.tid], element.tid


class TestChunkRunMerge:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("n_shards", [1, 2, 3, 4])
    def test_merge_inverts_partition(self, seed, n_shards):
        elements = random_stream(seed)
        parts = partition_stream("s1", elements, n_shards)
        runs = [chunk_runs("s1", part) for part in parts]
        assert merge_chunk_runs(runs) == elements

    def test_same_anchor_chunks_chain_to_one_shard(self):
        # A same-ts sp-batch re-opening after tuples (legal in
        # production streams) creates equal anchors; they must land on
        # one shard or the merge order would depend on the layout.
        ts = 5.0
        elements = [
            SecurityPunctuation.grant(("analyst",), ts),
            DataTuple("s1", "t1", {"v": 1}, ts),
            SecurityPunctuation.grant(("admin",), ts),
            DataTuple("s1", "t2", {"v": 2}, ts),
        ]
        chunks = split_chunks("s1", elements)
        assert len(chunks) == 2
        assert chunks[0].anchor_ts == chunks[1].anchor_ts
        for n_shards in (2, 3, 4):
            assignment = assign_chunks(chunks, n_shards)
            assert len(set(assignment)) == 1
            parts = partition_stream("s1", elements, n_shards)
            runs = [chunk_runs("s1", part) for part in parts]
            assert merge_chunk_runs(runs) == elements
