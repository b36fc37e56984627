"""Signed-counter sketch table with median-of-rows estimation.

The R x B table is the shared substrate of the latency, loss, and
retransmission detectors: R independent (bucket, sign) hash pairs, one
signed 64-bit counter array per row. An update touches exactly one
counter per row; an estimate is the median across rows of the
sign-corrected counters. Merging two tables built with identical seeds
is counter-wise addition and exactly equals processing the concatenated
stream.

Every operation runs over a batch of prefolded keys; the per-key
``update``, ``estimate`` and ``estimate_abs`` are batches of one.

Counters are 64-bit even though the hardware analog used 32-bit ones:
timestamp sums overflow 32 bits immediately. Memory budgets elsewhere
do their arithmetic in emulated 32-bit counter units.
"""

from __future__ import annotations

import struct

import numpy as np

from . import hashing
from .hashing import HashPair

_SNAPSHOT_MAGIC = b"LMCS"
_SNAPSHOT_VERSION = 1
_SNAPSHOT_FAMILY = 0    # header byte 5: the multiply-shift hash family, the only one

# Checked mode aborts before a counter can reach this magnitude.
_OVERFLOW_LIMIT = 1 << 62


class CountSketchTable:
    """R x B signed-counter table with per-row bucket and sign hashes.

    Single writer during updates; read after updates quiesce. Concurrent
    update and read is undefined.
    """

    def __init__(self, rows: int, buckets: int, *, run_seed: int = 0,
                 row_hashes: "list[HashPair] | None" = None,
                 sign_hashes: "list[HashPair] | None" = None,
                 checked: bool = False):
        if rows < 1 or buckets < 1:
            raise ValueError("rows and buckets must be >= 1")
        self.rows = rows
        self.buckets = buckets
        self.checked = checked
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

    @classmethod
    def from_epsilon_delta(cls, epsilon: float, delta: float, **kw) -> "CountSketchTable":
        """B = ceil(9 / eps^2), R = ceil(log2(1 / delta))."""
        if not (0 < epsilon < 1 and 0 < delta < 1):
            raise ValueError("epsilon and delta must lie in (0, 1)")
        buckets = int(np.ceil(9.0 / (epsilon * epsilon)))
        rows = max(1, int(np.ceil(np.log2(1.0 / delta))))
        return cls(rows, buckets, **kw)

    @property
    def epsilon(self) -> float:
        """The error parameter implied by B = 9 / eps^2."""
        return float(np.sqrt(9.0 / self.buckets))

    def _cells(self, folds: np.ndarray):
        """Per row, the bucket and the sign of each prefolded key."""
        for rh, sh in zip(self.row_hashes, self.sign_hashes):
            yield hashing.bucket_batch(rh, folds, self.buckets), hashing.sign_batch(sh, folds)

    # -- updates -------------------------------------------------------------

    def update(self, key: bytes, delta: int) -> None:
        """One update: a batch of one."""
        self.update_batch(hashing.fold64_keys([key]), np.array([delta], dtype=np.int64))

    def update_batch(self, folds: np.ndarray, deltas: np.ndarray) -> None:
        """Apply many updates at once; folds are prefolded 64-bit keys."""
        deltas = np.asarray(deltas, dtype=np.int64)
        for j, (idx, signs) in enumerate(self._cells(folds)):
            np.add.at(self.counters[j], idx, signs * deltas)
        if self.checked and np.abs(self.counters).max(initial=0) >= _OVERFLOW_LIMIT:
            j, b = np.unravel_index(int(np.abs(self.counters).argmax()), self.counters.shape)
            raise OverflowError(f"counter overflow at row {j} bucket {b}")
        self.total_l1 += int(np.abs(deltas).sum())

    # -- estimates -----------------------------------------------------------

    def estimate(self, key: bytes) -> int:
        """Median over rows of the sign-corrected counters (lower-middle
        of the two central values when the row count is even)."""
        return int(self.estimate_batch(hashing.fold64_keys([key]))[0])

    def estimate_abs(self, key: bytes) -> int:
        """Median over rows of the counter magnitudes."""
        return int(self.estimate_abs_batch(hashing.fold64_keys([key]))[0])

    def _row_estimates_batch(self, folds: np.ndarray) -> np.ndarray:
        return np.array([signs * self.counters[j, idx]
                         for j, (idx, signs) in enumerate(self._cells(folds))])

    def estimate_batch(self, folds: np.ndarray) -> np.ndarray:
        vals = np.sort(self._row_estimates_batch(folds), axis=0)
        return vals[(self.rows - 1) // 2]

    def estimate_abs_batch(self, folds: np.ndarray) -> np.ndarray:
        vals = np.sort(np.abs(self._row_estimates_batch(folds)), axis=0)
        return vals[(self.rows - 1) // 2]

    # -- queries -------------------------------------------------------------

    def heavy_keys(self, candidates, threshold: float) -> list[tuple[bytes, int]]:
        """Candidates whose magnitude estimate reaches the threshold,
        sorted descending; ties broken by key bytes ascending."""
        keys = list(candidates)
        scored = zip(keys, self.estimate_abs_batch(hashing.fold64_keys(keys)).tolist())
        kept = [(k, e) for k, e in scored if e >= threshold]
        kept.sort(key=lambda item: (-item[1], item[0]))
        return kept

    def signed_magnitudes(self, keys: list[bytes]) -> list[tuple[bytes, int]]:
        """|signed-median estimate| for many equal-width keys at once."""
        if not keys:
            return []
        matrix = np.frombuffer(b"".join(keys), dtype=np.uint8).reshape(len(keys), -1)
        values = np.abs(self.estimate_batch(hashing.fold64_matrix(matrix)))
        return list(zip(keys, values.tolist()))

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
        seeds = b"".join(struct.pack("<QQQQ", rh.a, rh.b, sh.a, sh.b)
                         for rh, sh in zip(self.row_hashes, self.sign_hashes))
        return head + seeds + self.counters.astype("<i8").tobytes()

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
        offset = head_size
        row_hashes, sign_hashes = [], []
        for j in range(rows):
            a1, b1, a2, b2 = struct.unpack_from("<QQQQ", data, offset)
            offset += 32
            row_hashes.append(HashPair(a1, b1, j))
            sign_hashes.append(HashPair(a2, b2, j))
        counters = np.frombuffer(data, dtype="<i8", count=rows * buckets,
                                 offset=offset).reshape(rows, buckets)
        table = cls(rows, buckets, row_hashes=row_hashes, sign_hashes=sign_hashes)
        table.counters = counters.astype(np.int64)
        table.total_l1 = total_l1
        return table
