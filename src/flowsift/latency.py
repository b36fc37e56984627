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
from .reporter import GatedSketchDetector
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

    def topk(self, candidates, k: int) -> HeavyReport:
        """The k candidates of largest magnitude.

        Ranked by the magnitude of the signed-median estimate: collider
        mass entering a flow's buckets carries incoherent signs and
        cancels there, where a median over row magnitudes would keep it.
        """
        return HeavyReport(self.table.signed_magnitudes(
            [_pair_bytes(c) for c in candidates])[:k])


def _pair_bytes(key) -> bytes:
    if isinstance(key, bytes):
        return key
    if isinstance(key, FlowKey):
        return canonicalize(key).to_bytes()
    return key.to_bytes()
