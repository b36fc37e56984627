"""Switch-to-controller reporting path: gated candidate mirroring.

When a flow's running estimate crosses a threshold, its key is appended
to the candidate log exactly once; a Bloom filter (or an exact hash-set
gate, for differential testing) suppresses re-reports. A controller
later re-estimates every logged key against a sketch snapshot to rank
the top-K influential flows. Bloom false positives suppress a first
report and therefore lose that key; they never duplicate.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import hashing
from .countsketch import CountSketchTable
from .reports import HeavyReport


class BloomGate:
    """Bit-array membership gate; no false negatives, measurable false
    positives (about 0.2% at the 2^16-bit / 4-hash defaults with 4000
    keys inserted)."""

    def __init__(self, bits: int = 1 << 16, hashes: int = 4, *, run_seed: int = 0):
        if bits < 8 or hashes < 1:
            raise ValueError("need at least 8 bits and one hash")
        self.bits = bits
        self.array = np.zeros(bits, dtype=bool)
        self.inserted = 0
        self._pairs = [hashing.derive_hash_pair(run_seed, i, hashing.STREAM_BLOOM)
                       for i in range(hashes)]

    def _positions(self, key: bytes) -> list[int]:
        x = hashing.fold64(key)
        return [hashing.bucket_of_fold(p, x, self.bits) for p in self._pairs]

    def __contains__(self, key: bytes) -> bool:
        return all(self.array[pos] for pos in self._positions(key))

    def insert(self, key: bytes) -> bool:
        """Set the key's bits; True, and counted, only if one was unset."""
        positions = self._positions(key)
        if self.array[positions].all():
            return False
        self.array[positions] = True
        self.inserted += 1
        return True

    def memory_bytes(self) -> int:
        return self.bits // 8


class ExactGate:
    """TCAM-style one-to-one gate: a hash set, zero false positives."""

    def __init__(self) -> None:
        self._seen: set[bytes] = set()
        self.inserted = 0

    def __contains__(self, key: bytes) -> bool:
        return key in self._seen

    def insert(self, key: bytes) -> bool:
        """Add the key; True, and counted, only if it was new."""
        if key in self._seen:
            return False
        self._seen.add(key)
        self.inserted += 1
        return True


@dataclass
class CandidateLog:
    """Ordered (flow key, first-trigger ts, triggering value) entries.

    Keys are unique up to Bloom false positives, which suppress.
    ``seed_signature`` pins the sketch seeds the log was built against.
    """

    entries: list[tuple[bytes, int, float]] = field(default_factory=list)
    seed_signature: tuple = ()

    def keys(self) -> list[bytes]:
        return [key for key, _, _ in self.entries]

    def __len__(self) -> int:
        return len(self.entries)

    def write_csv(self, path: "str | Path") -> None:
        with open(path, "w", newline="", encoding="utf-8") as f:
            writer = csv.writer(f)
            writer.writerow(["key_hex", "ts", "value"])
            for key, ts, value in self.entries:
                writer.writerow([key.hex(), ts, value])

    @classmethod
    def read_csv(cls, path: "str | Path") -> "CandidateLog":
        log = cls()
        with open(path, "r", newline="", encoding="utf-8") as f:
            reader = csv.reader(f)
            next(reader, None)
            for row in reader:
                log.entries.append((bytes.fromhex(row[0]), int(row[1]), float(row[2])))
        return log


def maybe_report(gate, log: CandidateLog, key: bytes, estimate: float,
                 threshold: float, ts: int = 0) -> bool:
    """Mirror the key once when its estimate crosses the threshold."""
    if threshold < 0:
        raise ValueError("threshold must be >= 0")
    if estimate >= threshold and gate.insert(key):
        log.entries.append((key, ts, float(estimate)))
        return True
    return False


def controller_topk(snapshot: "bytes | CountSketchTable", log: CandidateLog,
                    k: int) -> HeavyReport:
    """Re-estimate every logged key against the snapshot; rank the top k.

    Ranks by |signed-median estimate|, matching the detectors' own top-k.
    """
    table = snapshot if isinstance(snapshot, CountSketchTable) \
        else CountSketchTable.from_bytes(snapshot)
    if log.seed_signature and log.seed_signature != table.seed_signature():
        raise ValueError("snapshot seeds do not match the candidate log's run")
    scored = [(key, float(v)) for key, v in table.signed_magnitudes(log.keys())]
    scored.sort(key=lambda item: (-item[1], item[0]))
    return HeavyReport("controller", scored[:k], total=float(table.total_l1))
