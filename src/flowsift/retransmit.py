"""Detector for elephant flows with a high average retransmission rate.

A packet-count sketch keeps a running elephant list: a flow enters
tracking when its estimated count reaches (eps/2) of the packets seen so
far, and leaves (state discarded) when the estimate sinks below eps/4 of
the total -- the hysteresis stops boundary thrash. The sketch is
``reporter.SketchDetector``'s chunk stream, cut every ``chunk`` DATA
records; admission, the sweep and the ids added are decided per chunk.
Each tracked flow carries its post-tracking packet count and an
approximate distinct count of the ids it sent; the reported
retransmission ratio is their quotient, and flows at or above k/4 make
the report. The k/4 slack absorbs both the missed pre-tracking half of
the stream and the factor-2 tolerance of the distinct estimator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import hashing
from .oracle import rtx_counts
from .packets import KEY_BYTES, PacketType
from .reporter import SketchDetector, SketchInput
from .reports import HeavyReport, ranked
from .traceio import Trace, check_time_order


def _bit_length(values: np.ndarray) -> np.ndarray:
    """Exact vector bit_length for uint64, from the float64 exponent.

    A value with more than 53 significant bits can round up to the next
    power of two, which reads one bit too wide; that one case is detected
    by shifting the value down by the width less one and finding zero.
    """
    v = np.asarray(values, dtype=np.uint64)
    width = np.frexp(v.astype(np.float64))[1].astype(np.int64)
    rounded_up = ((v >> np.maximum(width - 1, 0).astype(np.uint64)) == 0) & (v > 0)
    return width - rounded_up


def _register_ranks(hashes: hashing.HashStack, values: np.ndarray,
                    p: int) -> tuple[np.ndarray, np.ndarray]:
    """(register index, leading-zero rank) of every value under each of h
    hash pairs, both of shape (h, n), for 2^p registers."""
    # avalanche finalizer: plain a*x+b leaves arithmetic structure in
    # sequential ids, which wrecks the leading-zero statistics
    z = hashing._affine(hashes, values)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    h = z ^ (z >> np.uint64(31))
    idx = (h >> np.uint64(64 - p)).astype(np.int64)
    rest = h & np.uint64((1 << (64 - p)) - 1)
    rank = ((64 - p) - _bit_length(rest) + 1).astype(np.uint8)
    return idx, rank


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
        idx, rank = _register_ranks(hashing.stack([self._hash]), values, self.p)
        np.maximum.at(self.registers, idx[0], rank[0])

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


class TrackedFlow:
    """Per-elephant state: packets and distinct ids since tracking began.

    Batched ids are buffered and flushed into the estimators once they
    number at least the register count, and by ``distinct``; so fewer
    ids than registers wait, and the buffer does not grow with the
    stream. Register updates commute (max semantics), so flush order is
    free.
    """

    __slots__ = ("key", "fold", "n", "estimators", "since_ts", "_pending", "_buffered")

    def __init__(self, key: bytes, since_ts: int, *, registers: int,
                 instances: int, seed: int):
        self.key = key
        self.fold = hashing.fold64(key)
        self.n = 0
        self.since_ts = since_ts
        self._pending: list[np.ndarray] = []
        self._buffered = 0          # ids in ``_pending``
        self.estimators = [
            DistinctEstimator(registers, seed=seed ^ self.fold ^ (i * hashing.GOLDEN64))
            for i in range(instances)
        ]

    def add_batch(self, seqs: np.ndarray) -> None:
        self.n += len(seqs)
        self._pending.append(seqs)
        self._buffered += len(seqs)
        if self._buffered >= self.estimators[0].m:
            self._flush()

    def _flush(self) -> None:
        """Hash the buffered ids for every instance at once, then fold each
        instance's ranks into its registers."""
        if self._pending:
            seqs = np.concatenate(self._pending)
            self._pending.clear()
            self._buffered = 0
            hashes = hashing.stack([est._hash for est in self.estimators])
            idx, rank = _register_ranks(hashes, seqs, self.estimators[0].p)
            for est, est_idx, est_rank in zip(self.estimators, idx, rank):
                np.maximum.at(est.registers, est_idx, est_rank)

    def distinct(self) -> float:
        """Median across the independent estimator instances."""
        self._flush()
        return float(np.median([est.estimate() for est in self.estimators]))

    def ratio(self) -> float:
        d = self.distinct()
        return self.n / d if d > 0 else 0.0


@dataclass
class RetransmitDetector(SketchDetector):
    """Elephant tracking plus per-flow retransmission ratios."""

    epsilon: float = 0.001
    registers: int = 256
    instances: int = 3
    capacity_slack: int = 64
    k_threshold: float = 1.05       # run() reports ratios at or above k/4

    def __post_init__(self) -> None:
        super().__post_init__()
        self.tracked: dict[bytes, TrackedFlow] = {}
        self.capacity = int(2.0 / self.epsilon) + self.capacity_slack
        self._last_ts = 0     # latest DATA timestamp seen

    @classmethod
    def from_config(cls, cfg) -> "RetransmitDetector":
        """Build from a ``harness.DetectorConfig``; 1,024 registers per estimator."""
        return cls(buckets=cfg.buckets, rows=cfg.rows, run_seed=cfg.seed,
                   epsilon=cfg.epsilon, k_threshold=cfg.k_threshold, registers=1024)

    @staticmethod
    def oracle(trace: Trace, cfg) -> tuple[np.ndarray, np.ndarray]:
        """Exact average transmissions per distinct id of every data flow,
        zeroed where no id was sent twice on average."""
        keys, packets, distinct = rtx_counts(trace)
        average = packets / distinct
        return keys, np.where(average > 1.0, average, 0.0)

    def _tracked_estimates(self) -> list[tuple[int, bytes]]:
        """(sketch estimate, key) of every tracked flow, in one batch."""
        folds = np.fromiter((flow.fold for flow in self.tracked.values()),
                            dtype=np.uint64, count=len(self.tracked))
        return list(zip(self.table.estimate_batch(folds).tolist(), self.tracked))

    def _admit(self, key: bytes, estimate: int, ts: int) -> None:
        if estimate < self.epsilon / 2.0 * self.table.total_l1 or key in self.tracked:
            return
        if len(self.tracked) >= self.capacity:
            del self.tracked[min(self._tracked_estimates())[1]]
        self.tracked[key] = TrackedFlow(key, ts, registers=self.registers,
                                        instances=self.instances, seed=self.run_seed)

    def _sweep(self) -> np.ndarray:
        """Drop every tracked flow the sketch has stopped reporting; return
        the folds of the flows still tracked, sorted."""
        drop_thr = self.epsilon / 4.0 * self.table.total_l1
        for estimate, key in self._tracked_estimates():
            if estimate < drop_thr:
                del self.tracked[key]
        return np.sort(np.fromiter((flow.fold for flow in self.tracked.values()),
                                   dtype=np.uint64, count=len(self.tracked)))

    def observe_batch(self, trace: Trace) -> SketchInput:
        """The trace's sketch input: every DATA record's key, fold and count
        of one, each a trigger (see ``_data_input``)."""
        return self._data_input(trace)[0]

    def _data_input(self, trace: Trace) -> tuple[SketchInput, Trace]:
        """The trace's sketch input and its DATA records, gathered once.
        Checks the DATA time order (see ``observe_trace``) before it books
        the skipped records and the latest DATA timestamp."""
        rows = np.flatnonzero(trace.ptype == int(PacketType.DATA))
        data = trace.select(rows)
        check_time_order(data.ts, self._last_ts, "retransmission detection")
        self.skipped += len(trace) - len(rows)
        self._last_ts = int(data.ts.max(initial=self._last_ts))
        keys = data.key_matrix()
        fed = SketchInput(rows, keys, hashing.fold64_matrix(keys),
                          np.ones(len(rows), dtype=np.int64), np.ones(len(rows), dtype=bool))
        return fed, data

    def observe_trace(self, trace: Trace, chunk: int = 4096) -> None:
        """Chunked streaming over a time-sorted trace: sketch updates are
        exact; tracking admission and discontinuation are evaluated at
        chunk boundaries, every ``chunk`` DATA records.

        Each chunk updates the sketch, estimates its flows, sweeps the
        tracked flows the sketch stopped reporting, admits flows at or
        above the admission threshold, and adds the chunk's ids to the
        tracked flows. Raises ValueError when a DATA timestamp is earlier
        than the one before it, in this trace or an earlier one.
        """
        fed, data = self._data_input(trace)
        n = len(fed.rows)
        key_blob = fed.keys.tobytes()
        seqs = data.seq
        for _, entries, starts, estimates in self.chunks(fed, [*range(0, n, chunk), n]):
            uniq = fed.folds[entries[starts]]
            admit_thr = self.epsilon / 2.0 * self.table.total_l1
            tracked_folds = self._sweep()
            # a flow neither tracked nor at the admission threshold finds no
            # entry and is not admitted: only the others are visited
            at = np.minimum(np.searchsorted(tracked_folds, uniq), len(tracked_folds) - 1)
            in_tracked = tracked_folds[at] == uniq if len(tracked_folds) else False
            visit = ((estimates >= admit_thr) | in_tracked).nonzero()[0]
            bounds = starts.tolist() + [len(entries)]
            firsts = entries[starts].tolist()       # each flow's first entry in the chunk
            ests = estimates.tolist()
            ordered_seqs = seqs[entries]
            for u in visit.tolist():
                i = firsts[u]
                key = key_blob[i * KEY_BYTES:(i + 1) * KEY_BYTES]
                flow = self.tracked.get(key)
                if flow is None and ests[u] >= admit_thr:
                    self._admit(key, ests[u], int(data.ts[i]))
                    flow = self.tracked.get(key)
                if flow is not None:
                    flow.add_batch(ordered_seqs[bounds[u]:bounds[u + 1]])

    def report(self, k_threshold: float) -> HeavyReport:
        """Tracked flows whose ratio reaches k/4, sorted by ratio."""
        if k_threshold <= 1:
            raise ValueError("retransmission threshold k must exceed 1")
        thr = k_threshold / 4.0
        entries = [(key, flow.ratio()) for key, flow in self.tracked.items()]
        return HeavyReport(ranked([(key, r) for key, r in entries if r >= thr]))

    def run(self, trace: Trace, k: int) -> HeavyReport:
        self.observe_trace(trace)
        return HeavyReport(self.report(self.k_threshold).entries[:max(k, 0)])

    def controller_inputs(self) -> tuple[None, None]:
        return None, None       # no controller re-rank: the report is final

    def memory_bytes(self) -> int:
        """The sketch, each tracked flow's key, fold, count and registers,
        and the ids tracked flows buffer (fewer than ``registers`` each)."""
        per_flow = 13 + 8 + 8 + self.registers * self.instances
        buffered = sum(ids.nbytes for flow in self.tracked.values() for ids in flow._pending)
        return super().memory_bytes() + len(self.tracked) * per_flow + buffered
