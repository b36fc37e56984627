"""Detector for flows whose cumulative round-trip time is heavy.

Each filtered packet updates the sketch under the flow's canonical
endpoint pair with a signed, epoch-relative timestamp: positive when
the packet traveled lo -> hi, negative otherwise. A matched
request/response pair therefore telescopes to its round-trip time,
and the magnitude estimate of a flow approaches its total RTT.

An unmatched request leaves its own (epoch-relative) timestamp in the
flow's estimate: the documented overestimation mode. The default type
filter pairs only SYN with SYNACK, which keeps one pair per connection
and minimizes exposure to missing ACKs; DATA/ACK pairing is opt-in.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import hashing
from .countsketch import CountSketchTable
from .packets import CanonicalPair, FlowKey, PacketType, canonicalize
from .reports import HeavyReport
from .traceio import Trace


@dataclass(frozen=True)
class TypeFilter:
    """Pairing rule: which packet types count as requests and responses."""

    requests: frozenset
    responses: frozenset

    @classmethod
    def syn_handshake(cls) -> "TypeFilter":
        return cls(frozenset({PacketType.SYN}), frozenset({PacketType.SYNACK}))

    @classmethod
    def data_ack(cls) -> "TypeFilter":
        return cls(frozenset({PacketType.DATA}), frozenset({PacketType.ACK}))

    @classmethod
    def all_pairs(cls) -> "TypeFilter":
        return cls(frozenset({PacketType.SYN, PacketType.DATA}),
                   frozenset({PacketType.SYNACK, PacketType.ACK}))

    @classmethod
    def named(cls, name: str) -> "TypeFilter":
        presets = {"syn": cls.syn_handshake, "data": cls.data_ack, "all": cls.all_pairs}
        if name not in presets:
            raise ValueError(f"unknown type filter {name!r}; expected one of {sorted(presets)}")
        return presets[name]()


@dataclass
class LatencyDetector:
    """Signed-timestamp sketch over canonical flow pairs.

    time_unit_ns scales timestamps into counter units (default 1 us,
    which keeps minute-long epochs inside 63-bit sums); timestamps are
    made epoch-relative before scaling.
    """

    buckets: int = 2000
    rows: int = 5
    run_seed: int = 0
    type_filter: TypeFilter = field(default_factory=TypeFilter.syn_handshake)
    time_unit_ns: int = 1000
    epoch_start_ns: int = 0
    table: CountSketchTable = None

    def __post_init__(self) -> None:
        if self.table is None:
            self.table = CountSketchTable(self.rows, self.buckets, run_seed=self.run_seed)
        else:
            self.rows, self.buckets = self.table.rows, self.table.buckets
        self.skipped = 0

    @property
    def epsilon(self) -> float:
        return self.table.epsilon

    def observe(self, packet) -> None:
        """One packet, as a trace of one."""
        self.observe_batch(Trace.from_records([packet]))

    def observe_batch(self, trace: Trace) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Update the sketch with every admitted packet of the trace.

        Returns the admitted mask over the trace, then the canonical pair
        bytes and their folds for the admitted packets in trace order, for
        the caller's trigger logic.
        """
        admitted = np.isin(trace.ptype,
                           [int(t) for t in (self.type_filter.requests | self.type_filter.responses)])
        self.skipped += int(len(trace) - admitted.sum())
        sub = trace.select(admitted)
        ts = sub.ts.astype(np.int64)
        if ts.min(initial=np.iinfo(np.int64).max) < self.epoch_start_ns:
            bad = int((ts < self.epoch_start_ns).sum())
            raise ValueError(f"{bad} timestamps earlier than epoch start {self.epoch_start_ns}")
        matrix, fwd = sub.canonical_matrix()
        folds = hashing.fold64_matrix(matrix)
        mag = (ts - self.epoch_start_ns) // self.time_unit_ns
        self.table.update_batch(folds, np.where(fwd, mag, -mag))
        return admitted, matrix, folds

    def estimate(self, key: "FlowKey | CanonicalPair | bytes") -> int:
        return self.table.estimate(_pair_bytes(key))

    def estimate_abs(self, key: "FlowKey | CanonicalPair | bytes") -> int:
        return self.table.estimate_abs(_pair_bytes(key))

    def threshold(self, epsilon: "float | None" = None) -> float:
        """eps * total_l1 / 2: total_l1 counts both directions, the
        round-trip total is taken as half."""
        eps = self.epsilon if epsilon is None else epsilon
        return eps * self.table.total_l1 / 2.0

    def topk(self, candidates, k: int, epsilon: "float | None" = None) -> HeavyReport:
        """Top-k candidates at/above the threshold.

        Ranked by the magnitude of the signed-median estimate: collider
        mass entering a flow's buckets carries incoherent signs and
        cancels there, where a median over row magnitudes would keep it.
        """
        thr = self.threshold(epsilon)
        scored = self.table.signed_magnitudes([_pair_bytes(c) for c in candidates])
        scored = [(key, float(v)) for key, v in scored if v >= thr]
        scored.sort(key=lambda item: (-item[1], item[0]))
        return HeavyReport("latency", scored[:k],
                           total=float(self.table.total_l1), threshold=thr)


def _pair_bytes(key) -> bytes:
    if isinstance(key, bytes):
        return key
    if isinstance(key, FlowKey):
        return canonicalize(key).to_bytes()
    return key.to_bytes()
