import numpy as np
import pytest
from scipy import stats

from flowsift import hashing
from flowsift.hashing import (bucket, bucket_batch, derive_hash_pair, fold64,
                              fold64_ints, fold64_matrix, sign, sign_batch)

from conftest import random_keys

# One hash family remains; the one-value parametrization keeps its name in
# the test ids.
FAMILIES = ("multishift",)


@pytest.mark.parametrize("family", FAMILIES)
def test_single_bucket_always_zero(family):
    pair = derive_hash_pair(7, 0, hashing.STREAM_BUCKET)
    for data in (b"", b"x", b"some-flow-key"):
        assert bucket(pair, data, 1) == 0


@pytest.mark.parametrize("family", FAMILIES)
def test_bucket_deterministic(family):
    pair = derive_hash_pair(42, 3, hashing.STREAM_BUCKET)
    assert bucket(pair, b"flow", 1024) == bucket(pair, b"flow", 1024)


@pytest.mark.parametrize("family", FAMILIES)
def test_sign_is_plus_or_minus_one(family):
    pair = derive_hash_pair(1, 0, hashing.STREAM_SIGN)
    assert {sign(pair, bytes([i])) for i in range(64)} <= {-1, 1}


@pytest.mark.parametrize("family", FAMILIES)
def test_pairwise_collision_rate(family, rng):
    # fresh seed per pair of random distinct inputs; rate should sit at 1/B
    B, n = 1024, 100_000
    collisions = 0
    for i in range(n):
        pair = derive_hash_pair(i, 0, hashing.STREAM_BUCKET)
        a = int(rng.integers(0, 1 << 62)).to_bytes(8, "little")
        b = int(rng.integers(0, 1 << 62)).to_bytes(8, "little")
        if a != b and bucket(pair, a, B) == bucket(pair, b, B):
            collisions += 1
    expected = n / B
    sigma = (n * (1 / B) * (1 - 1 / B)) ** 0.5
    assert abs(collisions - expected) <= 3 * sigma


@pytest.mark.parametrize("family", FAMILIES)
def test_sign_mean_over_seeds(family):
    total = sum(sign(derive_hash_pair(s, 0, hashing.STREAM_SIGN),
                     b"fixed-key") for s in range(10_000))
    assert abs(total / 10_000) <= 0.04


@pytest.mark.parametrize("family", FAMILIES)
def test_sign_product_uncorrelated(family):
    total = 0
    for s in range(10_000):
        pair = derive_hash_pair(s, 0, hashing.STREAM_SIGN)
        total += sign(pair, b"key-x") * sign(pair, b"key-y")
    assert abs(total / 10_000) <= 0.04


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("B", (16, 1024))
def test_bucket_uniformity_chi_square(family, B, rng):
    pair = derive_hash_pair(99, 0, hashing.STREAM_BUCKET)
    keys = random_keys(rng, 100_000)
    matrix = np.frombuffer(b"".join(keys), dtype=np.uint8).reshape(-1, 13)
    counts = np.bincount(bucket_batch(pair, fold64_matrix(matrix), B), minlength=B)
    assert stats.chisquare(counts).pvalue > 0.01


@pytest.mark.parametrize("family", FAMILIES)
def test_seed_separation_between_rows(family):
    p0 = derive_hash_pair(5, 0, hashing.STREAM_BUCKET)
    p1 = derive_hash_pair(5, 1, hashing.STREAM_BUCKET)
    inputs = [i.to_bytes(8, "little") for i in range(10_000)]
    disagree = sum(bucket(p0, x, 2) != bucket(p1, x, 2) for x in inputs)
    assert disagree >= 4_000


def test_zero_multiplier_rejected():
    with pytest.raises(ValueError):
        hashing.HashPair(0, 1)


def test_batch_matches_scalar(rng):
    pair = derive_hash_pair(17, 2, hashing.STREAM_BUCKET)
    spair = derive_hash_pair(17, 2, hashing.STREAM_SIGN)
    keys = random_keys(rng, 2_000)
    matrix = np.frombuffer(b"".join(keys), dtype=np.uint8).reshape(-1, 13)
    folds = fold64_matrix(matrix)
    buckets = bucket_batch(pair, folds, 2000)
    signs = sign_batch(spair, folds)
    for i in (0, 1, 512, 1999):
        assert folds[i] == fold64(keys[i])
        assert buckets[i] == bucket(pair, keys[i], 2000)
        assert signs[i] == sign(spair, keys[i])


def test_fold64_ints_matches_scalar():
    values = np.array([0, 1, 2, 12345, 2**63], dtype=np.uint64)
    folded = fold64_ints(values)
    for v, f in zip(values.tolist(), folded.tolist()):
        assert f == hashing.fold64_int(v)


def test_derive_is_stable_and_stream_separated():
    a = derive_hash_pair(123, 0, hashing.STREAM_BUCKET)
    b = derive_hash_pair(123, 0, hashing.STREAM_BUCKET)
    c = derive_hash_pair(123, 0, hashing.STREAM_SIGN)
    assert a == b
    assert (a.a, a.b) != (c.a, c.b)
