"""Detector for elephant flows with a high average retransmission rate.

A packet-count sketch keeps a running elephant list: a flow enters
tracking when its estimated count reaches (eps/2) of the packets seen
so far, and leaves (state discarded) when the estimate sinks below
eps/4 of the total -- the hysteresis stops boundary thrash. Each
tracked flow carries its post-tracking packet count and an approximate
distinct count of the ids it sent; the reported retransmission ratio is
their quotient, and flows at or above k/4 make the report. The k/4
slack absorbs both the missed pre-tracking half of the stream and the
factor-2 tolerance of the distinct estimator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import hashing
from .countsketch import CountSketchTable
from .packets import KEY_BYTES, PacketType
from .reports import HeavyReport
from .traceio import Trace, check_time_order


def _bit_length(values: np.ndarray) -> np.ndarray:
    """Exact vector bit_length for uint64 (float log2 misrounds near 2^53+)."""
    v = values.astype(np.uint64).copy()
    width = np.zeros(v.shape, dtype=np.int64)
    for shift in (32, 16, 8, 4, 2, 1):
        big = v >= np.uint64(1 << shift)
        width[big] += shift
        v[big] >>= np.uint64(shift)
    width[values > 0] += 1
    return width


class DistinctEstimator:
    """Max-of-leading-zero-rank registers with harmonic-mean readout.

    Contract: within a factor 2 of the true distinct count with
    probability >= 0.9. Small ranges switch to linear counting over the
    zero registers; the reported estimate is clamped monotone so
    insertions never shrink it across the switchover.
    """

    def __init__(self, registers: int = 256, *, seed: int = 0):
        if registers < 16 or registers & (registers - 1):
            raise ValueError("register count must be a power of two >= 16")
        self.m = registers
        self.p = registers.bit_length() - 1
        self.registers = np.zeros(registers, dtype=np.uint8)
        self._hash = hashing.derive_hash_pair(seed, 0, hashing.STREAM_DISTINCT)
        self._floor = 0.0
        if registers >= 128:
            self.alpha = 0.7213 / (1.0 + 1.079 / registers)
        else:
            self.alpha = {16: 0.673, 32: 0.697, 64: 0.709}[registers]

    def add_batch(self, values: np.ndarray) -> None:
        # avalanche finalizer: plain a*x+b leaves arithmetic structure in
        # sequential ids, which wrecks the leading-zero statistics
        z = values.astype(np.uint64) * np.uint64(self._hash.a) + np.uint64(self._hash.b)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        h = z ^ (z >> np.uint64(31))
        idx = (h >> np.uint64(64 - self.p)).astype(np.int64)
        rest = h & np.uint64((1 << (64 - self.p)) - 1)
        width = _bit_length(rest)
        rank = ((64 - self.p) - width + 1).astype(np.uint8)
        np.maximum.at(self.registers, idx, rank)

    def estimate(self) -> float:
        if not self.registers.any():
            return 0.0
        raw = self.alpha * self.m * self.m / np.power(2.0, -self.registers.astype(np.float64)).sum()
        if raw <= 2.5 * self.m:
            zeros = int((self.registers == 0).sum())
            if zeros:
                raw = self.m * math.log(self.m / zeros)
        self._floor = max(self._floor, raw)
        return self._floor

    def memory_bytes(self) -> int:
        return self.m


class TrackedFlow:
    """Per-elephant state: packets and distinct ids since tracking began.

    Batched ids are buffered and flushed into the estimators lazily;
    register updates commute (max semantics), so flush order is free.
    """

    __slots__ = ("key", "fold", "n", "estimators", "since_ts", "_pending")

    def __init__(self, key: bytes, since_ts: int, *, registers: int,
                 instances: int, seed: int):
        self.key = key
        self.fold = hashing.fold64(key)
        self.n = 0
        self.since_ts = since_ts
        self._pending: list[np.ndarray] = []
        self.estimators = [
            DistinctEstimator(registers, seed=seed ^ self.fold ^ (i * hashing.GOLDEN64))
            for i in range(instances)
        ]

    def add_batch(self, seqs: np.ndarray) -> None:
        self.n += len(seqs)
        self._pending.append(seqs)

    def _flush(self) -> None:
        if self._pending:
            seqs = np.concatenate(self._pending)
            self._pending.clear()
            for est in self.estimators:
                est.add_batch(seqs)

    def distinct(self) -> float:
        """Median across the independent estimator instances."""
        self._flush()
        return float(np.median([est.estimate() for est in self.estimators]))

    def ratio(self) -> float:
        d = self.distinct()
        return self.n / d if d > 0 else 0.0


@dataclass
class RetransmitDetector:
    """Elephant tracking plus per-flow retransmission ratios."""

    buckets: int = 2000
    rows: int = 5
    run_seed: int = 0
    epsilon: float = 0.001
    registers: int = 256
    instances: int = 3
    capacity_slack: int = 64

    def __post_init__(self) -> None:
        self.sketch = CountSketchTable(self.rows, self.buckets, run_seed=self.run_seed)
        self.tracked: dict[bytes, TrackedFlow] = {}
        self.total = 0
        self.capacity = int(2.0 / self.epsilon) + self.capacity_slack
        self.skipped = 0
        self._last_ts = 0     # latest DATA timestamp seen

    def _tracked_estimates(self) -> list[tuple[int, bytes]]:
        """(sketch estimate, key) of every tracked flow, in one batch."""
        folds = np.fromiter((flow.fold for flow in self.tracked.values()),
                            dtype=np.uint64, count=len(self.tracked))
        return list(zip(self.sketch.estimate_batch(folds).tolist(), self.tracked))

    def _admit(self, key: bytes, estimate: int, ts: int) -> None:
        if estimate < self.epsilon / 2.0 * self.total or key in self.tracked:
            return
        if len(self.tracked) >= self.capacity:
            del self.tracked[min(self._tracked_estimates())[1]]
        self.tracked[key] = TrackedFlow(key, ts, registers=self.registers,
                                        instances=self.instances, seed=self.run_seed)

    def _sweep(self) -> None:
        """Drop every tracked flow the sketch has stopped reporting."""
        drop_thr = self.epsilon / 4.0 * self.total
        for estimate, key in self._tracked_estimates():
            if estimate < drop_thr:
                del self.tracked[key]

    def observe(self, packet) -> None:
        """One packet, as a trace of one."""
        self.observe_trace(Trace.from_records([packet]), chunk=1)

    def observe_trace(self, trace: Trace, chunk: int = 4096) -> None:
        """Chunked streaming over a time-sorted trace: sketch updates are
        exact; tracking admission and discontinuation are evaluated at
        chunk boundaries.

        Each chunk updates the sketch, estimates its flows, sweeps the
        tracked flows the sketch stopped reporting, admits flows at or
        above the admission threshold, and adds the chunk's ids to the
        tracked flows. Raises ValueError when a DATA timestamp is earlier
        than the one before it, in this trace or an earlier one.
        """
        data = trace.select(trace.ptype == int(PacketType.DATA))
        check_time_order(data.ts, self._last_ts, "retransmission detection")
        self.skipped += len(trace) - len(data)
        if len(data) == 0:
            return
        self._last_ts = int(data.ts[-1])
        keys = data.key_matrix()
        folds = hashing.fold64_matrix(keys)
        key_blob = keys.tobytes()
        seqs = data.seq.astype(np.uint64)
        stamps = data.ts
        for lo in range(0, len(data), chunk):
            hi = min(lo + chunk, len(data))
            chunk_folds = folds[lo:hi]
            self.sketch.update_batch(chunk_folds, np.ones(hi - lo, dtype=np.int64))
            self.total += hi - lo
            order = np.argsort(chunk_folds, kind="stable")
            uniq, starts = np.unique(chunk_folds[order], return_index=True)
            bounds = np.append(starts, hi - lo)
            estimates = self.sketch.estimate_batch(uniq)
            admit_thr = self.epsilon / 2.0 * self.total
            chunk_seqs = seqs[lo:hi]
            self._sweep()
            for u, est in enumerate(estimates.tolist()):
                i = lo + int(order[starts[u]])
                key = key_blob[i * KEY_BYTES:(i + 1) * KEY_BYTES]
                flow = self.tracked.get(key)
                if flow is None and est >= admit_thr:
                    self._admit(key, est, int(stamps[i]))
                    flow = self.tracked.get(key)
                if flow is not None:
                    flow.add_batch(chunk_seqs[order[starts[u]:bounds[u + 1]]])

    def report(self, k_threshold: float) -> HeavyReport:
        """Tracked flows whose ratio reaches k/4, sorted by ratio."""
        if k_threshold <= 1:
            raise ValueError("retransmission threshold k must exceed 1")
        thr = k_threshold / 4.0
        entries = [(key, flow.ratio()) for key, flow in self.tracked.items()]
        entries = [(key, r) for key, r in entries if r >= thr]
        entries.sort(key=lambda item: (-item[1], item[0]))
        return HeavyReport("retransmit", entries, total=float(self.total), threshold=thr)

    def memory_bytes(self) -> int:
        sketch = self.rows * self.buckets * 4    # emulated 32-bit counters
        per_flow = 13 + 8 + 8 + self.registers * self.instances
        return sketch + len(self.tracked) * per_flow
