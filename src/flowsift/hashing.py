"""Seeded hash family for bucket selection and sign assignment.

One construction, multiply-shift over a 64-bit FNV-1a fold of the key
bytes: bucket = fastrange on the high 32 bits of a*x + b, sign = the top
bit. It is vectorizable, and statistically indistinguishable from
pairwise independence for the workloads here. Each function has a scalar
form and a vector form over prefolded keys, and the two match exactly.
The vector forms share one a*x + b kernel, ``_affine``, which broadcasts
a ``HashStack`` of h pairs to (h, n): a sketch hashes all its rows in
one call, as a switch hashes them in one stage.

All seed material derives from a single 64-bit run seed: each (row,
stream) slot gets run_seed XOR a golden-ratio multiple, expanded through
splitmix64. One integer in a config therefore replays an experiment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

MASK64 = (1 << 64) - 1
GOLDEN64 = 0x9E3779B97F4A7C15
_STREAM_SALT = 0xD1B54A32D192ED03

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3

# Hash stream namespaces: independent seed material per role.
STREAM_BUCKET = 1
STREAM_SIGN = 2
STREAM_PAIR_SIGN = 3
STREAM_FRAMEWORK = 4
STREAM_FLOW_ID = 5
STREAM_BLOOM = 6
STREAM_CACHE = 7
STREAM_DISTINCT = 8


def splitmix64(state: int) -> tuple[int, int]:
    """Advance a splitmix64 state; returns (next_state, output)."""
    state = (state + GOLDEN64) & MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return state, z ^ (z >> 31)


@dataclass(frozen=True)
class HashPair:
    """(a, b) seed material for one hash function; a is odd, never zero."""

    a: int
    b: int

    def __post_init__(self) -> None:
        if self.a == 0:
            raise ValueError("multiplier a must be nonzero")


class HashStack(NamedTuple):
    """h hash pairs as (h, 1) uint64 columns, evaluated in one broadcast."""

    a: np.ndarray
    b: np.ndarray


def stack(pairs: "list[HashPair]") -> HashStack:
    return HashStack(*np.array([(p.a, p.b) for p in pairs], dtype=np.uint64).T[:, :, None])


def derive_hash_pair(run_seed: int, row: int, stream: int) -> HashPair:
    """Split one run seed into the (a, b) pair for a (row, stream) slot."""
    state = (run_seed ^ ((row + 1) * GOLDEN64) ^ (stream * _STREAM_SALT)) & MASK64
    state, a = splitmix64(state)
    state, b = splitmix64(state)
    return HashPair(a | 1, b)


# -- byte folding -------------------------------------------------------------

def fold64(data: bytes) -> int:
    """FNV-1a fold of arbitrary bytes to 64 bits."""
    h = _FNV_OFFSET
    for byte in data:
        h = ((h ^ byte) * _FNV_PRIME) & MASK64
    return h


def fold64_keys(keys) -> np.ndarray:
    """fold64 of each byte key, any widths, as a uint64 array."""
    return np.array([fold64(key) for key in keys], dtype=np.uint64)


def fold64_int(value: int) -> int:
    return fold64(int(value).to_bytes(8, "little"))


def fold64_matrix(m: np.ndarray) -> np.ndarray:
    """Row-wise FNV-1a over an (n, k) uint8 matrix; matches fold64 exactly."""
    h = np.full(m.shape[0], _FNV_OFFSET, dtype=np.uint64)
    prime = np.uint64(_FNV_PRIME)
    for col in range(m.shape[1]):
        h ^= m[:, col]          # in place: no temporaries per column
        h *= prime
    return h


def fold64_ints(values: np.ndarray) -> np.ndarray:
    """Vector FNV-1a over 8-byte little-endian encodings of uint64 values."""
    return fold64_matrix(np.ascontiguousarray(values, dtype="<u8").view(np.uint8).reshape(-1, 8))


# -- evaluation ---------------------------------------------------------------

def bucket_of_fold(pair: HashPair, x: int, buckets: int) -> int:
    """Bucket index in [0, buckets) for a prefolded key."""
    if buckets < 1:
        raise ValueError("bucket count must be >= 1")
    z = (pair.a * x + pair.b) & MASK64
    return ((z >> 32) * buckets) >> 32


def bucket(pair: HashPair, data: bytes, buckets: int) -> int:
    return bucket_of_fold(pair, fold64(data), buckets)


def sign_of_fold(pair: HashPair, x: int) -> int:
    """+1 or -1, balanced over seeds, for a prefolded key."""
    z = (pair.a * x + pair.b) & MASK64
    return 1 if (z >> 63) == 0 else -1


def sign(pair: HashPair, data: bytes) -> int:
    return sign_of_fold(pair, fold64(data))


# -- vector paths (exact match with the scalar forms) -------------------------

def _affine(pair: "HashPair | HashStack", folds: np.ndarray) -> np.ndarray:
    """a*x + b mod 2^64 over prefolded keys: (n,) for a pair, (h, n) for a stack."""
    return np.uint64(pair.a) * np.asarray(folds, dtype=np.uint64) + np.uint64(pair.b)


def bucket_batch(pair: "HashPair | HashStack", folds: np.ndarray, buckets: int) -> np.ndarray:
    z = _affine(pair, folds)
    return (((z >> np.uint64(32)) * np.uint64(buckets)) >> np.uint64(32)).astype(np.int64)


def sign_batch(pair: "HashPair | HashStack", folds: np.ndarray) -> np.ndarray:
    return (1 - 2 * (_affine(pair, folds) >> np.uint64(63)).astype(np.int64))
