import numpy as np
import pytest
from hypothesis import given, strategies as st

from flowsift import hashing
from flowsift.framework import (FrameworkSketch, flow_id32, flow_id32_batch,
                                timestamp_weights)
from flowsift.packets import PacketRecord, PacketType
from flowsift.traceio import Trace

from conftest import make_key


def feed(sketch, ids, weights=None):
    ids = np.asarray(ids, dtype=np.int64)
    sketch.update(ids, np.ones(len(ids), dtype=np.int64) if weights is None else weights)


def bucket_of(sketch, flow_id):
    """Scalar reference for the sketch's bucket choice."""
    return hashing.bucket_of_fold(sketch.bucket_hash, hashing.fold64_int(flow_id),
                                  sketch.buckets)


def touched_positions(sketch, bucket):
    """1-indexed sub-bucket positions with nonzero packet counts."""
    return {pos for pos in range(1, 2 * sketch.id_bits + 1)
            if sketch.counts[bucket, pos - 1] > 0}


@pytest.mark.parametrize("flow_id,expected", [
    (0b0000, {1, 3, 5, 7}),
    (0b1111, {2, 4, 6, 8}),
    (0b0101, {2, 3, 6, 7}),
])
def test_bit_to_subbucket_mapping(flow_id, expected):
    # bit k is the k-th least significant; pair (2k-1, 2k) holds (0, 1)
    s = FrameworkSketch(1, 4, run_seed=1)
    feed(s, [flow_id])
    assert touched_positions(s, 0) == expected


def test_single_flow_recovered_exactly():
    s = FrameworkSketch(16, 4, run_seed=2)
    feed(s, [9] * 100)
    assert 9 in s.recover()


def test_empty_stream_recovers_nothing():
    s = FrameworkSketch(16, 8, run_seed=3)
    feed(s, [])
    assert s.recover() == []


def test_oversized_flow_id_rejected():
    s = FrameworkSketch(4, 4)
    for bad in (16, -1):
        with pytest.raises(ValueError):
            feed(s, [3, bad])
    assert not s.counts.any()


def test_mismatched_weights_rejected():
    s = FrameworkSketch(4, 4)
    with pytest.raises(ValueError):
        s.update(np.array([1, 2]), np.array([1]))


def test_planted_dominant_flow_recovered_monte_carlo():
    # planted holds 10x the combined mass of 500 background flows
    hits = 0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        s = FrameworkSketch(64, 16, run_seed=seed)
        planted = int(rng.integers(0, 1 << 16))
        feed(s, rng.integers(0, 1 << 16, 500))
        feed(s, [planted] * 5000)
        if planted in s.recover():
            hits += 1
    assert hits >= 45


def test_recovery_exact_whenever_dominance_holds():
    # oracle-checked: in every bucket where one flow's count exceeds the
    # rest combined, that flow's id is recovered bit-exactly
    for seed in range(20):
        rng = np.random.default_rng(100 + seed)
        s = FrameworkSketch(8, 12, run_seed=seed)
        ids = rng.integers(0, 1 << 12, 300)
        feed(s, ids)
        by_bucket = {}
        for fid, c in zip(*np.unique(ids, return_counts=True)):
            by_bucket.setdefault(bucket_of(s, int(fid)), {})[int(fid)] = int(c)
        recovered = {r.bucket: r.flow_id for r in s.recover_detailed()}
        for bucket, flows in by_bucket.items():
            top_id, top_count = max(flows.items(), key=lambda kv: kv[1])
            if top_count > sum(flows.values()) - top_count:
                assert recovered[bucket] == top_id


def test_flow_additivity_per_bit_position():
    rng = np.random.default_rng(5)
    s = FrameworkSketch(32, 10, run_seed=5)
    total = 2_000
    feed(s, rng.integers(0, 1 << 10, total))
    for k in range(1, 11):
        assert s.counts[:, 2 * k - 2].sum() + s.counts[:, 2 * k - 1].sum() == total


@pytest.mark.parametrize("weight", ["packets", "bytes"])
def test_estimator_values_are_flow_additive(weight, rng):
    ids = rng.integers(0, 1 << 12, 200)
    sizes = rng.integers(64, 1500, 200)
    weights = np.ones(200, dtype=np.int64) if weight == "packets" else sizes
    merged = FrameworkSketch(16, 12, run_seed=4)
    parts = [FrameworkSketch(16, 12, run_seed=4) for _ in range(2)]
    merged.update(ids, weights)
    for i, part in enumerate(parts):
        part.update(ids[i::2], weights[i::2])
    assert np.array_equal(merged.counts, parts[0].counts + parts[1].counts)


def test_timestamp_sum_estimator_telescopes():
    key = make_key(2)
    trace = Trace.from_records([
        PacketRecord(key, PacketType.SYN, 1, 0, 10_000, 60),
        PacketRecord(key.reversed(), PacketType.SYNACK, 0, 1, 25_000, 60)])
    assert timestamp_weights(trace, epoch_start_ns=0, time_unit_ns=1000).sum() == 15


def test_flow_id32_deterministic_and_bounded(rng):
    for _ in range(100):
        key = bytes(rng.integers(0, 256, 13, dtype=np.uint8))
        fid = flow_id32(key, run_seed=9)
        assert 0 <= fid < (1 << 32)
        assert fid == flow_id32(key, run_seed=9)


def test_margins_reported_per_bucket():
    s = FrameworkSketch(4, 6, run_seed=11)
    feed(s, [33] * 50)
    rec = s.recover_detailed()
    assert all(r.margin >= 0 for r in rec)
    assert any(r.flow_id == 33 and r.margin == 50 for r in rec)


# -- properties ---------------------------------------------------------------

ID_BITS = 10
ids_and_weights = st.integers(1, 200).flatmap(lambda n: st.tuples(
    st.lists(st.integers(0, (1 << ID_BITS) - 1), min_size=n, max_size=n),
    st.lists(st.integers(-(1 << 20), 1 << 20), min_size=n, max_size=n)))


def reference_recover(sketch):
    """Scalar loop over the sums: the recovery rule bit by bit."""
    found = []
    for b in range(sketch.buckets):
        if sketch.bucket_updates[b] == 0:
            continue
        flow_id, margin = 0, float("inf")
        for k in range(sketch.id_bits):
            v0, v1 = int(sketch.counts[b, 2 * k]), int(sketch.counts[b, 2 * k + 1])
            if v1 >= v0:
                flow_id |= 1 << k
            margin = min(margin, float(abs(v0 - v1)))
        found.append((flow_id, margin, b))
    return found


@given(ids_and_weights, st.lists(st.integers(0, 200), max_size=6), st.integers(0, 2**32))
def test_split_updates_equal_one_update(data, cuts, seed):
    ids, weights = np.array(data[0]), np.array(data[1])
    whole = FrameworkSketch(8, ID_BITS, run_seed=seed)
    whole.update(ids, weights)
    split = FrameworkSketch(8, ID_BITS, run_seed=seed)
    for part_ids, part_weights in zip(np.split(ids, sorted(cuts)), np.split(weights, sorted(cuts))):
        split.update(part_ids, part_weights)
    assert np.array_equal(whole.counts, split.counts)
    assert np.array_equal(whole.bucket_updates, split.bucket_updates)
    # per-packet loop as the reference for the sums and the read-back
    expected = np.zeros_like(whole.counts)
    for fid, w in zip(ids.tolist(), weights.tolist()):
        for k in range(ID_BITS):
            expected[bucket_of(whole, fid), 2 * k + ((fid >> k) & 1)] += w
    assert np.array_equal(whole.counts, expected)
    assert [tuple(r) for r in whole.recover_detailed()] == reference_recover(whole)


@given(ids_and_weights, st.integers(0, 2**32))
def test_dominant_flow_recovered_exactly(data, seed):
    ids, weights = np.array(data[0]), np.abs(np.array(data[1])) + 1
    s = FrameworkSketch(4, ID_BITS, run_seed=seed)
    s.update(ids, weights)
    per_bucket: dict[int, dict[int, int]] = {}
    for fid, w in zip(ids.tolist(), weights.tolist()):
        flows = per_bucket.setdefault(bucket_of(s, fid), {})
        flows[fid] = flows.get(fid, 0) + w
    recovered = {r.bucket: r.flow_id for r in s.recover_detailed()}
    assert set(recovered) == set(per_bucket)
    for bucket, flows in per_bucket.items():
        top_id, top = max(flows.items(), key=lambda kv: kv[1])
        if top > sum(flows.values()) - top:
            assert recovered[bucket] == top_id


@given(st.lists(st.binary(min_size=13, max_size=13), min_size=1, max_size=50),
       st.integers(0, 2**32), st.integers(1, 1000))
def test_vector_ids_and_buckets_match_scalar(keys, seed, buckets):
    matrix = np.frombuffer(b"".join(keys), dtype=np.uint8).reshape(len(keys), 13)
    ids = flow_id32_batch(hashing.fold64_matrix(matrix), seed)
    assert ids.tolist() == [flow_id32(key, seed) for key in keys]
    s = FrameworkSketch(buckets, 32, run_seed=seed)
    for fid in ids.tolist():
        before = s.bucket_updates.copy()
        s.update(np.array([fid]), np.array([1]))
        assert np.flatnonzero(s.bucket_updates - before).tolist() == [bucket_of(s, fid)]
