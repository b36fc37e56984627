import numpy as np
import pytest
from hypothesis import given, strategies as st

from flowsift import hashing
from flowsift.countsketch import CountSketchTable
from flowsift.hashing import bucket_of_fold, fold64, sign_of_fold
from flowsift.reporter import CandidateLog, controller_topk

from conftest import random_keys

KEY_POOL = random_keys(np.random.default_rng(7), 20)
updates_st = st.lists(st.tuples(st.sampled_from(KEY_POOL), st.integers(-1000, 1000)),
                      max_size=60)
shape_st = st.tuples(st.integers(1, 5), st.integers(1, 32), st.integers(0, 2**32))


def test_update_then_cancel_leaves_zero_table():
    t = CountSketchTable(5, 64, run_seed=1)
    t.update(b"key-a", 5)
    t.update(b"key-a", -5)
    assert not t.counters.any()
    assert t.total_l1 == 10


def test_update_touches_exactly_one_counter_per_row():
    t = CountSketchTable(3, 8, run_seed=2)
    t.update(b"key-b", 7)
    nonzero = np.abs(t.counters)
    assert (nonzero.sum(axis=1) == 7).all()
    assert ((nonzero == 7).sum(axis=1) == 1).all()


def test_row_sums_match_replayed_signed_updates(rng):
    t = CountSketchTable(4, 32, run_seed=3)
    keys = random_keys(rng, 50)
    expected = np.zeros(4, dtype=np.int64)
    for _ in range(1000):
        key = keys[rng.integers(len(keys))]
        delta = int(rng.integers(-20, 21))
        t.update(key, delta)
        x = fold64(key)
        for j in range(4):
            expected[j] += sign_of_fold(t.sign_hashes[j], x) * delta
    assert (t.counters.sum(axis=1) == expected).all()


def test_single_flow_estimate_is_exact():
    t = CountSketchTable(5, 64, run_seed=4)
    t.update(b"only-flow", 15)
    assert t.estimate(b"only-flow") == 15


def test_untouched_key_on_empty_table_estimates_zero():
    t = CountSketchTable(5, 64, run_seed=5)
    assert t.estimate(b"never-seen") == 0


def test_even_row_count_takes_lower_middle():
    rows = [hashing.HashPair(1, 0) for _ in range(2)]
    # Force both rows to bucket 0 with opposite effective values via signs.
    t = CountSketchTable(2, 1, row_hashes=rows,
                         sign_hashes=[hashing.HashPair(1, 0),
                                      hashing.HashPair(1, 1 << 63)])
    t.counters[0, 0] = 10
    t.counters[1, 0] = 10
    x = fold64(b"k")
    vals = sorted(sign_of_fold(sh, x) * int(t.counters[j, bucket_of_fold(rh, x, 1)])
                  for j, (rh, sh) in enumerate(zip(t.row_hashes, t.sign_hashes)))
    assert t.estimate(b"k") == vals[0]


def test_epsilon_ell2_bound_on_zipf_stream(rng):
    # eps = 0.067 (B=2000), R=5; fraction of flows within eps * l2 >= 95%
    n_flows, updates = 10_000, 100_000
    within = total = 0
    for seed in range(5):
        local = np.random.default_rng(seed)
        keys = random_keys(local, n_flows)
        ranks = local.zipf(1.1, updates)
        idx = np.minimum(ranks - 1, n_flows - 1)
        truth = np.bincount(idx, minlength=n_flows)
        t = CountSketchTable(5, 2000, run_seed=seed * 7 + 1)
        folds = np.array([fold64(k) for k in keys], dtype=np.uint64)
        t.update_batch(folds[idx], np.ones(updates, dtype=np.int64))
        bound = t.epsilon * np.sqrt((truth.astype(float) ** 2).sum())
        est = t.estimate_batch(folds)
        within += int((np.abs(est - truth) <= bound).sum())
        total += n_flows
    assert within / total >= 0.95


def test_merge_linearity_exact(rng):
    keys = random_keys(rng, 200)
    a = CountSketchTable(5, 128, run_seed=9)
    b = CountSketchTable(5, 128, run_seed=9)
    combined = CountSketchTable(5, 128, run_seed=9)
    for i, key in enumerate(keys):
        delta = (i % 17) - 8
        if delta == 0:
            continue
        (a if i % 2 else b).update(key, delta)
        combined.update(key, delta)
    a.merge(b)
    assert (a.counters == combined.counters).all()
    assert a.total_l1 == combined.total_l1


def test_merge_rejects_seed_mismatch():
    a = CountSketchTable(5, 128, run_seed=1)
    b = CountSketchTable(5, 128, run_seed=2)
    with pytest.raises(ValueError):
        a.merge(b)


def test_expectation_of_row_estimates_unbiased(rng):
    # planted flow among background of equal l2 mass; mean of signed
    # per-row estimates over seed draws within 5% of truth
    planted, value = b"planted-flow", 2000
    background = random_keys(rng, 400)
    acc = 0.0
    trials = 200
    for seed in range(trials):
        t = CountSketchTable(1, 100, run_seed=seed)
        t.update(planted, value)
        for key in background:
            t.update(key, 100)   # l2 mass 400*100^2 = planted^2
        acc += t.estimate(planted)
    assert abs(acc / trials - value) <= 0.05 * value


def test_row_estimator_variance_bounded(rng):
    planted, value = b"planted-flow", 1000
    background = random_keys(rng, 300)
    B = 64
    samples = []
    for seed in range(200):
        t = CountSketchTable(1, B, run_seed=seed)
        t.update(planted, value)
        for i, key in enumerate(background):
            t.update(key, 50 + (i % 7))
        samples.append(t.estimate(planted))
    true_sq = sum((50 + (i % 7)) ** 2 for i in range(300))
    assert np.var(samples) <= 1.5 * true_sq / B


def _log(keys) -> CandidateLog:
    return CandidateLog([(key, 0, 0.0) for key in keys])


def test_heavy_keys_empty_and_threshold_zero(rng):
    t = CountSketchTable(5, 256, run_seed=11)
    assert t.signed_magnitudes([], 10) == []
    assert controller_topk(t, CandidateLog(), 10).entries == []
    keys = random_keys(rng, 10)
    for i, k in enumerate(keys):
        t.update(k, i + 1)
    ranked = controller_topk(t, _log(keys), 10).entries
    assert len(ranked) == 10
    values = [v for _, v in ranked]
    assert values == sorted(values, reverse=True)


def test_heavy_keys_recovers_planted_heavy(rng):
    hits = 0
    for seed in range(20):
        local = np.random.default_rng(seed)
        keys = random_keys(local, 1001)
        planted, light = keys[0], keys[1:]
        t = CountSketchTable(5, 2000, run_seed=seed)
        t.update(planted, 10_000)
        for k in light:
            t.update(k, 10)
        top = max(t.signed_magnitudes(keys, len(keys)), key=lambda kv: kv[1])
        if top[0] == planted and top[1] >= 5_000:
            hits += 1
    assert hits >= 18


def test_heavy_keys_ties_break_on_key_bytes():
    t = CountSketchTable(5, 4096, run_seed=13)
    t.update(b"bbbbbbbbbbbbb", 5)
    t.update(b"aaaaaaaaaaaaa", 5)
    ranked = controller_topk(t, _log([b"bbbbbbbbbbbbb", b"aaaaaaaaaaaaa"]), 2).entries
    assert ranked[0][0] == b"aaaaaaaaaaaaa"


def test_snapshot_round_trip(rng):
    t = CountSketchTable(5, 64, run_seed=21)
    for i, key in enumerate(random_keys(rng, 40)):
        t.update(key, i - 20)
    back = CountSketchTable.from_bytes(t.to_bytes())
    assert (back.counters == t.counters).all()
    assert back.total_l1 == t.total_l1
    assert back.seed_signature() == t.seed_signature()


def test_snapshot_length_is_checked_exactly():
    data = CountSketchTable(3, 16, run_seed=2).to_bytes()
    for bad in (data[:10], data[:-1], data + b"\x00\x00"):
        with pytest.raises(ValueError, match="snapshot"):
            CountSketchTable.from_bytes(bad)


def test_unknown_hash_family_code_is_rejected():
    data = bytearray(CountSketchTable(2, 4, run_seed=2).to_bytes())
    assert data[5] == 0
    data[5] = 9
    with pytest.raises(ValueError, match="hash-family code 9"):
        CountSketchTable.from_bytes(bytes(data))


def test_checked_mode_reports_row_and_bucket():
    t = CountSketchTable(2, 4, run_seed=1)
    t.counters[:, :] = (1 << 62) - 2
    with pytest.raises(OverflowError, match=r"row \d+ bucket \d+"):
        t.update(b"boom", 5)


def test_checked_overflow_updates_every_row_before_raising():
    t = CountSketchTable(3, 4, run_seed=1)
    t.update(b"calm", 3)
    fold = hashing.fold64_keys([b"boom"])
    buckets = [int(bucket_of_fold(rh, int(fold[0]), 4)) for rh in t.row_hashes]
    signs = [int(sign_of_fold(sh, int(fold[0]))) for sh in t.sign_hashes]
    t.counters[0, :] = signs[0] * ((1 << 62) - 2)   # row 0 overflows by 3
    expected = t.counters.copy()
    for j, (b, sign) in enumerate(zip(buckets, signs)):
        expected[j, b] += sign * 5
    with pytest.raises(OverflowError, match=f"row 0 bucket {buckets[0]}"):
        t.update_batch(fold, np.array([5]))
    assert (t.counters == expected).all()
    assert t.total_l1 == 3


def test_shape_from_epsilon_delta():
    # B = ceil(9 / eps^2) is the fewest buckets whose implied epsilon meets eps
    eps = 0.067
    buckets = int(np.ceil(9 / eps ** 2))
    t = CountSketchTable(5, buckets)
    assert t.buckets == 2005 and t.rows == 5
    assert t.epsilon <= eps
    assert CountSketchTable(5, buckets - 1).epsilon > eps


def test_batch_estimate_matches_scalar(rng):
    t = CountSketchTable(5, 512, run_seed=30)
    keys = random_keys(rng, 300)
    folds = np.array([fold64(k) for k in keys], dtype=np.uint64)
    t.update_batch(folds, rng.integers(-50, 51, 300))
    est = t.estimate_batch(folds)
    for i in (0, 7, 123, 299):
        assert est[i] == t.estimate(keys[i])


_REPLAY_RNG = np.random.default_rng(41)
_REPLAY = [(KEY_POOL[int(i)], int(d)) for i, d in zip(_REPLAY_RNG.integers(0, 20, 300),
                                                       _REPLAY_RNG.integers(-9, 10, 300))]


def _check_scalar_replay(rows, buckets, seed, updates, reload):
    # pure-Python replay: one counter per row, lower-middle median. With
    # ``reload`` the table goes through a snapshot halfway, and the second
    # half of the updates must land in the reloaded counters.
    t = CountSketchTable(rows, buckets, run_seed=seed)
    counters = [[0] * buckets for _ in range(rows)]
    for i, (key, delta) in enumerate(updates):
        if reload and i == len(updates) // 2:
            t = CountSketchTable.from_bytes(t.to_bytes())
        t.update(key, delta)
        x = fold64(key)
        for j in range(rows):
            b = bucket_of_fold(t.row_hashes[j], x, buckets)
            counters[j][b] += sign_of_fold(t.sign_hashes[j], x) * delta
    assert t.counters.tolist() == counters
    assert t.total_l1 == sum(abs(d) for _, d in updates)
    folds = np.array([fold64(k) for k in KEY_POOL], dtype=np.uint64)
    est = t.estimate_batch(folds)
    for i, key in enumerate(KEY_POOL):
        x = fold64(key)
        vals = sorted(sign_of_fold(t.sign_hashes[j], x)
                      * counters[j][bucket_of_fold(t.row_hashes[j], x, buckets)]
                      for j in range(rows))
        assert t.estimate(key) == est[i] == vals[(rows - 1) // 2]


@pytest.mark.parametrize("rows", [3, 4])
def test_table_matches_scalar_replay(rows):
    _check_scalar_replay(rows, 16, 40 + rows, _REPLAY, reload=rows == 4)


@given(st.integers(1, 7), st.integers(1, 64), st.integers(0, 2**64 - 1),
       st.lists(st.tuples(st.sampled_from(KEY_POOL), st.integers(-9, 9)), max_size=80),
       st.booleans())
def test_table_matches_scalar_replay_any_shape(rows, buckets, seed, updates, reload):
    _check_scalar_replay(rows, buckets, seed, updates, reload)


def _batch(updates):
    folds = np.array([fold64(k) for k, _ in updates], dtype=np.uint64)
    return folds, np.array([d for _, d in updates], dtype=np.int64)


@given(updates_st, shape_st)
def test_per_key_updates_equal_one_batch(updates, shape):
    rows, buckets, seed = shape
    one, batch = (CountSketchTable(rows, buckets, run_seed=seed) for _ in range(2))
    for key, delta in updates:
        one.update(key, delta)
    batch.update_batch(*_batch(updates))
    assert (one.counters == batch.counters).all()
    assert one.total_l1 == batch.total_l1


@given(updates_st, st.integers(0, 60), shape_st)
def test_split_stream_merged_equals_whole(updates, cut, shape):
    rows, buckets, seed = shape
    head, tail, whole = (CountSketchTable(rows, buckets, run_seed=seed) for _ in range(3))
    head.update_batch(*_batch(updates[:cut]))
    tail.update_batch(*_batch(updates[cut:]))
    whole.update_batch(*_batch(updates))
    head.merge(tail)
    assert (head.counters == whole.counters).all()
    assert head.total_l1 == whole.total_l1


@given(updates_st, shape_st)
def test_snapshot_round_trip_keeps_estimates(updates, shape):
    rows, buckets, seed = shape
    t = CountSketchTable(rows, buckets, run_seed=seed)
    t.update_batch(*_batch(updates))
    back = CountSketchTable.from_bytes(t.to_bytes())
    assert (back.counters == t.counters).all()
    assert back.total_l1 == t.total_l1
    folds = np.array([fold64(k) for k in KEY_POOL], dtype=np.uint64)
    assert (back.estimate_batch(folds) == t.estimate_batch(folds)).all()
    assert back.signed_magnitudes(KEY_POOL, 20) == t.signed_magnitudes(KEY_POOL, 20)


# equal-width keys over a three-byte alphabet: many share a prefix, and
# some are equal
tie_keys_st = st.lists(st.binary(min_size=4, max_size=4).map(
    lambda b: bytes(c % 3 * 0x7F for c in b)), max_size=40)


@given(tie_keys_st, st.lists(st.integers(-5, 5), min_size=40, max_size=40),
       st.integers(1, 3), st.integers(1, 4), st.integers(0, 2**16), st.integers(0, 45))
def test_signed_magnitudes_matches_sorted_reference(keys, deltas, rows, buckets, seed, k):
    # a 1-4 bucket table puts most keys in shared cells, so values tie often
    t = CountSketchTable(rows, buckets, run_seed=seed)
    for key, delta in zip(keys, deltas):
        t.update(key, delta)
    reference = sorted(((key, float(abs(t.estimate(key)))) for key in keys),
                       key=lambda item: (-item[1], item[0]))
    assert t.signed_magnitudes(keys, k) == reference[:k]
