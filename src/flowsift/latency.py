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
from .oracle import rtt_totals
from .packets import CanonicalPair, FlowKey, TypeFilter, canonicalize
from .reporter import GatedSketchDetector, SketchInput
from .reports import HeavyReport
from .traceio import Trace


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

    @staticmethod
    def oracle(trace: Trace, cfg) -> tuple[np.ndarray, np.ndarray]:
        """Exact round-trip total per canonical pair under the config's filter."""
        return rtt_totals(trace, TypeFilter.named(cfg.type_filter),
                          time_unit_ns=cfg.time_unit_ns)

    def observe_batch(self, trace: Trace) -> SketchInput:
        """The trace's sketch input: every admitted packet's canonical pair
        bytes and fold, and its timestamp in counter units, signed by
        direction; responses trigger. Counts the skipped packets."""
        kinds = self.type_filter.requests | self.type_filter.responses
        rows = np.flatnonzero(np.isin(trace.ptype, [int(t) for t in kinds]))
        self.skipped += len(trace) - len(rows)
        sub = trace.select(rows)
        matrix, fwd = sub.canonical_matrix()
        mag = sub.ts.astype(np.int64) // self.time_unit_ns
        trigger = np.isin(sub.ptype, [int(t) for t in self.type_filter.responses])
        return SketchInput(rows, matrix, hashing.fold64_matrix(matrix),
                           np.where(fwd, mag, -mag), trigger)

    def estimate(self, key: "FlowKey | CanonicalPair | bytes") -> int:
        return self.table.estimate(_pair_bytes(key))

    def topk(self, candidates: list[bytes], k: int) -> HeavyReport:
        """The k candidate pair bytes of largest magnitude.

        Ranked by the magnitude of the signed-median estimate: collider
        mass entering a flow's buckets carries incoherent signs and
        cancels there, where a median over row magnitudes would keep it.
        """
        return HeavyReport(self.table.signed_magnitudes(candidates, k))


def _pair_bytes(key) -> bytes:
    if isinstance(key, bytes):
        return key
    if isinstance(key, FlowKey):
        return canonicalize(key).to_bytes()
    return key.to_bytes()
