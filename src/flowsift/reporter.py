"""Switch-to-controller reporting path: gated candidate mirroring.

When a flow's running estimate crosses a threshold, its key is appended
to the candidate log exactly once; a Bloom filter (or an exact hash-set
gate, for differential testing) suppresses re-reports. A controller
later re-estimates every logged key against a sketch snapshot to rank
the top-K influential flows. Bloom false positives suppress a first
report and therefore lose that key; they never duplicate.

The Bloom gate takes a batch of prefolded keys (``insert_folds``); the
per-key ``insert``, ``in`` and ``maybe_report`` are batches of one.

``SketchDetector`` is the latency, loss and retransmission detectors' one
chunk stream: the trace's sketch input is prepared once, and each chunk
updates the sketch exactly and estimates once each flow that triggered
in it. ``GatedSketchDetector``, the latency and loss detectors' base,
adds the gate, the only dedup, fed once per chunk the flows that crossed.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import hashing
from .countsketch import CountSketchTable
from .reports import HeavyReport
from .traceio import Trace, run_starts, stable_order

CHUNK = 8192            # records per gate evaluation
GATE_BITS = 1 << 20     # the mirroring gate's Bloom bits


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
        self._stack = hashing.stack(self._pairs)

    def _positions(self, folds: np.ndarray) -> np.ndarray:
        """(n, hashes) bit positions of prefolded keys."""
        return hashing.bucket_batch(self._stack, folds, self.bits).T

    def __contains__(self, key: bytes) -> bool:
        return bool(self.array[self._positions(hashing.fold64_keys([key]))].all())

    def insert(self, key: bytes) -> bool:
        """Set the key's bits; True, and counted, only if one was unset."""
        return bool(self.insert_folds(hashing.fold64_keys([key])))

    def insert_folds(self, folds: np.ndarray) -> list[int]:
        """Insert prefolded keys in order; the indices of those that had an
        unset bit, each set and counted in ``inserted``.

        Folds whose bits are all set already are screened out at once
        (bits are never cleared). Of the rest, a fold that shares no bit
        position with another depends only on the bits set before the
        call, so all such folds are set at once; the folds that share a
        bit go one by one, because one set earlier in the call can make a
        later one a false positive.
        """
        positions = self._positions(folds)
        array = self.array
        rest = np.flatnonzero(~array[positions].all(axis=1))
        rest_pos = positions[rest]
        _, inverse, counts = np.unique(rest_pos, return_inverse=True, return_counts=True)
        shared = (counts[inverse.reshape(rest_pos.shape)] > 1).any(axis=1)
        array[rest_pos[~shared]] = True
        new = rest[~shared].tolist()
        for i, pos in zip(rest[shared].tolist(), rest_pos[shared].tolist()):
            if not all(array[p] for p in pos):
                array[pos] = True
                new.append(i)
        new.sort()
        self.inserted += len(new)
        return new

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
    return HeavyReport(table.signed_magnitudes(log.keys(), k))


class SketchInput(NamedTuple):
    """What a trace feeds a sketch detector: one entry per admitted record."""

    rows: np.ndarray        # the admitted records' row indices, ascending
    keys: np.ndarray        # (len(rows), w) uint8 key bytes
    folds: np.ndarray       # the keys' 64-bit folds
    deltas: np.ndarray      # int64 sketch updates
    trigger: np.ndarray     # True where the record may act on its flow


@dataclass
class SketchDetector:
    """A count-sketch table fed chunk by chunk: subclasses define
    ``observe_batch(trace) -> SketchInput``, which counts the records it
    skips and leaves the sketch alone, and cut its entries into chunks."""

    buckets: int = 2000
    rows: int = 5
    run_seed: int = 0

    def __post_init__(self) -> None:
        self.table = CountSketchTable(self.rows, self.buckets, run_seed=self.run_seed)
        self.skipped = 0

    def chunks(self, fed: SketchInput, cuts: list[int]):
        """Per chunk of entries between consecutive cuts, apply its updates and
        yield (chunk index, its trigger entries grouped by fold in entry
        order, where each group starts, each group's signed estimate)."""
        triggers = np.flatnonzero(fed.trigger)
        trigger_cuts = np.searchsorted(triggers, cuts).tolist()
        for i, (lo, hi) in enumerate(zip(cuts, cuts[1:])):
            self.table.update_batch(fed.folds[lo:hi], fed.deltas[lo:hi])
            entries = triggers[trigger_cuts[i]:trigger_cuts[i + 1]]
            folds = fed.folds[entries]
            order = stable_order(folds)
            ordered = folds[order]
            starts = run_starts(ordered)
            yield i, entries[order], starts, self.table.estimate_batch(ordered[starts])

    def memory_bytes(self) -> int:
        return self.rows * self.buckets * 4      # emulated 32-bit counters


@dataclass
class GatedSketchDetector(SketchDetector):
    """A count-sketch detector and its mirroring gate: one fixed-memory unit.

    Subclasses also define ``topk(candidates, k)`` over key bytes and
    ``oracle``. A flow is mirrored into ``candidates`` the first time a
    chunk of ``CHUNK`` trace records holding one of its trigger records
    ends with its |estimate| at or above ``report_epsilon`` times half the
    running total: the only threshold; ``topk`` ranks the mirrored keys.
    """

    report_epsilon: float = 0.0

    def __post_init__(self) -> None:
        super().__post_init__()
        self.gate = BloomGate(GATE_BITS, run_seed=self.run_seed)
        self.candidates = CandidateLog(seed_signature=self.table.seed_signature())

    @classmethod
    def from_config(cls, cfg) -> "GatedSketchDetector":
        """Build from a ``harness.DetectorConfig``."""
        return cls(buckets=cfg.buckets, rows=cfg.rows, run_seed=cfg.seed,
                   report_epsilon=cfg.report_epsilon)

    def observe(self, packet) -> None:
        """One packet, as a trace of one: its sketch input applied at once."""
        fed = self.observe_batch(Trace.from_records([packet]))
        self.table.update_batch(fed.folds, fed.deltas)

    def run(self, trace: Trace, k: int) -> HeavyReport:
        """Prepare the trace's sketch input once, stream it chunk by chunk
        through the sketch and the gate, then rank the mirrored keys."""
        fed = self.observe_batch(trace)
        starts = range(0, len(trace), CHUNK)
        cuts = np.searchsorted(fed.rows, [*starts, len(trace)]).tolist()
        stamps, width = trace.ts, fed.keys.shape[1]
        for i, entries, groups, signed in self.chunks(fed, cuts):
            first = entries[groups]                     # each flow's first trigger entry
            estimates = np.abs(signed)
            threshold = self.report_epsilon * self.table.total_l1 / 2.0
            crossing = np.flatnonzero(estimates >= threshold)
            now = int(stamps[min(starts[i] + CHUNK, len(trace)) - 1])
            new = crossing[self.gate.insert_folds(fed.folds[first[crossing]])]
            blob = fed.keys[first[new]].tobytes()
            self.candidates.entries.extend(
                (blob[j * width:(j + 1) * width], now, value)
                for j, value in enumerate(estimates[new].astype(float).tolist()))
        return self.topk(self.candidates.keys(), k)

    def controller_inputs(self) -> tuple[CandidateLog, bytes]:
        """The candidate log and the table snapshot the controller re-ranks."""
        return self.candidates, self.table.to_bytes()

    def memory_bytes(self) -> int:
        """Emulated 32-bit counters plus the gate's bits."""
        return super().memory_bytes() + self.gate.memory_bytes()
