"""Detector for flows whose cumulative round-trip time is heavy.

Each filtered packet updates the sketch under the flow's canonical
endpoint pair with a signed timestamp: positive when the packet
traveled lo -> hi, negative otherwise. A matched request/response pair
therefore telescopes to its round-trip time, and the magnitude estimate
of a flow approaches its total RTT.

An unmatched request leaves its own timestamp in the flow's estimate:
the documented overestimation mode. The default type filter pairs only
SYN with SYNACK, which keeps one pair per connection and minimizes
exposure to missing ACKs; DATA/ACK pairing is opt-in.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import hashing
from .packets import CanonicalPair, FlowKey, PacketType, canonicalize
from .reporter import GatedSketchDetector
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
class LatencyDetector(GatedSketchDetector):
    """Signed-timestamp sketch over canonical flow pairs.

    time_unit_ns scales timestamps into counter units (default 1 us,
    which keeps minute-long epochs inside 63-bit sums). The gate
    evaluates flows that carried a response.
    """

    type_filter: TypeFilter = field(default_factory=TypeFilter.syn_handshake)
    time_unit_ns: int = 1000

    @classmethod
    def from_config(cls, cfg) -> "LatencyDetector":
        return cls(buckets=cfg.buckets, rows=cfg.rows, run_seed=cfg.seed,
                   report_epsilon=cfg.report_epsilon,
                   type_filter=TypeFilter.named(cfg.type_filter),
                   time_unit_ns=cfg.time_unit_ns)

    @property
    def trigger_types(self) -> frozenset:
        return self.type_filter.responses

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
        matrix, fwd = sub.canonical_matrix()
        folds = hashing.fold64_matrix(matrix)
        mag = sub.ts.astype(np.int64) // self.time_unit_ns
        self.table.update_batch(folds, np.where(fwd, mag, -mag))
        return admitted, matrix, folds

    def estimate(self, key: "FlowKey | CanonicalPair | bytes") -> int:
        return self.table.estimate(_pair_bytes(key))

    def topk(self, candidates, k: int, epsilon: "float | None" = None) -> HeavyReport:
        """Top-k candidates at/above the threshold.

        Ranked by the magnitude of the signed-median estimate: collider
        mass entering a flow's buckets carries incoherent signs and
        cancels there, where a median over row magnitudes would keep it.
        """
        # eps * total_l1 / 2: total_l1 counts both directions, the
        # round-trip total is taken as half
        thr = (self.epsilon if epsilon is None else epsilon) * self.table.total_l1 / 2.0
        scored = [(key, v) for key, v in self.table.signed_magnitudes(
            [_pair_bytes(c) for c in candidates]) if v >= thr]
        return HeavyReport("latency", scored[:k],
                           total=float(self.table.total_l1), threshold=thr)


def _pair_bytes(key) -> bytes:
    if isinstance(key, bytes):
        return key
    if isinstance(key, FlowKey):
        return canonicalize(key).to_bytes()
    return key.to_bytes()
