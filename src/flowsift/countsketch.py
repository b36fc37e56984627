"""Signed-counter sketch table with median-of-rows estimation.

The R x B table is the shared substrate of the latency, loss, and
retransmission detectors: R independent (bucket, sign) hash pairs, one
signed 64-bit counter array per row. An update touches exactly one
counter per row; an estimate is the median across rows of the
sign-corrected counters. Merging two tables built with identical seeds
is counter-wise addition and exactly equals processing the concatenated
stream.

Every operation runs over a batch of prefolded keys; the per-key
``update`` and ``estimate`` are batches of one.

The estimate contract (the ε·ℓ2 bound): with B = 9/ε² buckets per row
(``epsilon`` reads ε back from B) and pairwise-independent hashes, one
row's sign-corrected counter estimates a key's net count f_x without
bias and with variance at most ‖f‖₂²/B, where ‖f‖₂ is the ℓ2 norm of
every key's net count, so by Chebyshev it misses f_x by more than
ε·‖f‖₂ with probability at most 1/9. The median of R rows misses only
when at least ⌈R/2⌉ rows do: probability at most 3.4% at R = 3, 1.2% at
R = 5 and 0.4% at R = 7. Signed (turnstile) updates keep the bound.

Doubling the buckets refines every row. With the same ``run_seed``, a
key's bucket at 2B, floor-divided by 2, is its bucket at B (the bucket
hash scales one 32-bit value by B, and 2B/2 = B), and its signs are the
same: each bucket splits in two, so the keys a key collides with at 2B
are a subset of those at B, in every row. Budgets that double the
buckets (2,000 to 16,000 at the desk points) therefore only remove
colliders; the error bound halves its variance, but one estimate's
error need not shrink, since the removed colliders may have cancelled.

Counters are 64-bit even though the hardware analog used 32-bit ones:
timestamp sums overflow 32 bits immediately. Memory budgets elsewhere
do their arithmetic in emulated 32-bit counter units.
"""

from __future__ import annotations

import struct

import numpy as np

from . import hashing
from .hashing import HashPair
from .reports import rank_order

_SNAPSHOT_MAGIC = b"LMCS"
_SNAPSHOT_VERSION = 1
_SNAPSHOT_FAMILY = 0    # header byte 5: the multiply-shift hash family, the only one

# update_batch raises once a counter reaches this magnitude, before int64 wraps.
_OVERFLOW_LIMIT = 1 << 62


class CountSketchTable:
    """R x B signed-counter table with per-row bucket and sign hashes.

    Single writer during updates; read after updates quiesce. Concurrent
    update and read is undefined.
    """

    def __init__(self, rows: int, buckets: int, *, run_seed: int = 0,
                 row_hashes: "list[HashPair] | None" = None,
                 sign_hashes: "list[HashPair] | None" = None):
        if rows < 1 or buckets < 1:
            raise ValueError("rows and buckets must be >= 1")
        self.rows = rows
        self.buckets = buckets
        self.counters = np.zeros((rows, buckets), dtype=np.int64)
        self.total_l1 = 0
        if row_hashes is None:
            row_hashes = [hashing.derive_hash_pair(run_seed, j, hashing.STREAM_BUCKET)
                          for j in range(rows)]
        if sign_hashes is None:
            sign_hashes = [hashing.derive_hash_pair(run_seed, j, hashing.STREAM_SIGN)
                           for j in range(rows)]
        if len(row_hashes) != rows or len(sign_hashes) != rows:
            raise ValueError("need one bucket hash and one sign hash per row")
        self.row_hashes = list(row_hashes)
        self.sign_hashes = list(sign_hashes)
        self._row_stack = hashing.stack(self.row_hashes)
        self._sign_stack = hashing.stack(self.sign_hashes)
        self._row_offsets = np.arange(rows)[:, None] * buckets

    @property
    def epsilon(self) -> float:
        """The error parameter implied by B = 9 / eps^2."""
        return float(np.sqrt(9.0 / self.buckets))

    def _cells(self, folds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(rows, n) flat counter indices and signs of prefolded keys."""
        return (hashing.bucket_batch(self._row_stack, folds, self.buckets) + self._row_offsets,
                hashing.sign_batch(self._sign_stack, folds))

    # -- updates -------------------------------------------------------------

    def update(self, key: bytes, delta: int) -> None:
        """One update: a batch of one."""
        self.update_batch(hashing.fold64_keys([key]), np.array([delta], dtype=np.int64))

    def update_batch(self, folds: np.ndarray, deltas: np.ndarray) -> None:
        """Apply many updates at once; folds are prefolded 64-bit keys.
        Raises OverflowError once a counter reaches 2^62 in magnitude."""
        deltas = np.asarray(deltas, dtype=np.int64)
        idx, signs = self._cells(folds)
        # reshape of the C-order counters is a view; 1-D indices take add.at's fast path
        np.add.at(self.counters.reshape(-1), idx.ravel(), (signs * deltas).ravel())
        if np.abs(self.counters).max(initial=0) >= _OVERFLOW_LIMIT:
            j, b = np.unravel_index(int(np.abs(self.counters).argmax()), self.counters.shape)
            raise OverflowError(f"counter overflow at row {j} bucket {b}")
        self.total_l1 += int(np.abs(deltas).sum())

    # -- estimates -----------------------------------------------------------

    def estimate(self, key: bytes) -> int:
        """Median over rows of the sign-corrected counters (lower-middle
        of the two central values when the row count is even)."""
        return int(self.estimate_batch(hashing.fold64_keys([key]))[0])

    def estimate_batch(self, folds: np.ndarray) -> np.ndarray:
        idx, signs = self._cells(folds)
        return np.sort(signs * self.counters.take(idx), axis=0)[(self.rows - 1) // 2]

    # -- queries -------------------------------------------------------------

    def signed_magnitudes(self, keys: list[bytes], k: int) -> list[tuple[bytes, float]]:
        """The first k of (key, |signed-median estimate|) over equal-width
        keys in ``rank_order``.

        Only the keys at or above the k-th largest value, which hold the
        first k, are ranked.
        """
        if not keys or k < 1:
            return []
        matrix = np.frombuffer(b"".join(keys), dtype=np.uint8).reshape(len(keys), -1)
        values = np.abs(self.estimate_batch(hashing.fold64_matrix(matrix))).astype(float)
        top = np.arange(len(keys))
        if k < len(keys):
            top = np.flatnonzero(values >= np.partition(values, -k)[-k])
        order = top[rank_order(matrix[top], values[top])[:k]].tolist()
        return [(keys[i], v) for i, v in zip(order, values[order].tolist())]

    # -- linearity -----------------------------------------------------------

    def seed_signature(self) -> tuple:
        return (self.rows, self.buckets,
                tuple((h.a, h.b) for h in self.row_hashes),
                tuple((h.a, h.b) for h in self.sign_hashes))

    def merge(self, other: "CountSketchTable") -> None:
        if self.seed_signature() != other.seed_signature():
            raise ValueError("cannot merge tables with different shapes or seeds")
        self.counters += other.counters
        self.total_l1 += other.total_l1

    # -- snapshot serialization ------------------------------------------------

    def to_bytes(self) -> bytes:
        head = struct.pack("<4sBBII q", _SNAPSHOT_MAGIC, _SNAPSHOT_VERSION,
                           _SNAPSHOT_FAMILY, self.rows, self.buckets,
                           self.total_l1)
        seeds = np.hstack([*self._row_stack, *self._sign_stack]).astype("<u8")   # a1 b1 a2 b2
        return head + seeds.tobytes() + self.counters.astype("<i8").tobytes()

    @classmethod
    def from_bytes(cls, data: bytes) -> "CountSketchTable":
        head_size = struct.calcsize("<4sBBII q")
        if len(data) < head_size:
            raise ValueError(f"snapshot of {len(data)} bytes is shorter than "
                             f"its {head_size}-byte header")
        magic, version, fam_code, rows, buckets, total_l1 = struct.unpack(
            "<4sBBII q", data[:head_size])
        if magic != _SNAPSHOT_MAGIC:
            raise ValueError(f"bad snapshot magic {magic!r}")
        if version != _SNAPSHOT_VERSION:
            raise ValueError(f"unsupported snapshot version {version}")
        if fam_code != _SNAPSHOT_FAMILY:
            raise ValueError(f"unknown snapshot hash-family code {fam_code}")
        expected = head_size + 32 * rows + 8 * rows * buckets
        if len(data) != expected:
            raise ValueError(f"snapshot is {len(data)} bytes, expected {expected} "
                             f"for {rows} x {buckets} counters")
        seeds = list(struct.iter_unpack("<QQQQ", data[head_size:head_size + 32 * rows]))
        table = cls(rows, buckets,
                    row_hashes=[HashPair(a, b) for a, b, _, _ in seeds],
                    sign_hashes=[HashPair(a, b) for _, _, a, b in seeds])
        table.counters = np.frombuffer(data, dtype="<i8", offset=head_size + 32 * rows
                                       ).reshape(rows, buckets).astype(np.int64)
        table.total_l1 = total_l1
        return table
