"""Detector for flows with heavy packet loss.

Consecutive packet ids are paired: ids 2i-1 and 2i map to +g(i) and
-g(i) for a +/-1 hash g over the pair index, so a complete flow cancels
to at most one leftover step while each half-missing pair contributes
one +/-1 step. A flow with m uniformly lost packets therefore random-
walks to magnitude sqrt(2m/pi) in expectation; that expectation is the
whole guarantee, and the inversion back to a loss count is expectation-
only as well. Removing both members of a pair contributes nothing: the
documented blind spot for aligned burst loss.

The sketch's per-row key signs ride on top of the pair-step deltas,
decorrelating same-length flows that would otherwise leave identical
leftover steps in a shared bucket.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import hashing
from .countsketch import CountSketchTable
from .packets import FlowKey, PacketType
from .reports import HeavyReport
from .traceio import Trace


@dataclass
class LossDetector:
    """Paired-id +/-1 sketch over data-direction flow keys."""

    buckets: int = 2000
    rows: int = 5
    run_seed: int = 0
    table: CountSketchTable = None

    def __post_init__(self) -> None:
        if self.table is None:
            self.table = CountSketchTable(self.rows, self.buckets, run_seed=self.run_seed)
        else:
            self.rows, self.buckets = self.table.rows, self.table.buckets
        self.pair_sign_hash = hashing.derive_hash_pair(
            self.run_seed, 0, hashing.STREAM_PAIR_SIGN)
        self.skipped = 0

    @property
    def epsilon(self) -> float:
        return self.table.epsilon

    def observe(self, packet) -> None:
        """One packet, as a trace of one."""
        self.observe_batch(Trace.from_records([packet]))

    def observe_batch(self, trace: Trace) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Update the sketch with every DATA record of the trace.

        Returns the DATA mask over the trace, then the key bytes and their
        folds for the DATA records in trace order.
        """
        admitted = trace.ptype == int(PacketType.DATA)
        data = trace.select(admitted)
        self.skipped += len(trace) - len(data)
        seq = data.seq.astype(np.int64)
        if seq.min(initial=1) < 1:
            raise ValueError("packet ids must be >= 1")
        pair_folds = hashing.fold64_ints(((seq + 1) // 2).astype(np.uint64))
        g = hashing.sign_batch(self.pair_sign_hash, pair_folds)
        keys = data.key_matrix()
        folds = hashing.fold64_matrix(keys)
        self.table.update_batch(folds, np.where(seq % 2 == 1, g, -g))
        return admitted, keys, folds

    def estimate(self, key: "FlowKey | bytes") -> int:
        return self.table.estimate(_key_bytes(key))

    def estimate_abs(self, key: "FlowKey | bytes") -> int:
        return self.table.estimate_abs(_key_bytes(key))

    def topk(self, candidates, k: int, epsilon: "float | None" = None) -> HeavyReport:
        """Top-k by walk magnitude; the report carries the sum of the
        candidates' magnitudes as the normalization thresholded against.

        Magnitude means |signed-median estimate|: collider walks carry
        incoherent signs across rows and cancel in the signed median.
        """
        scored = self.table.signed_magnitudes([_key_bytes(c) for c in candidates])
        scored = [(key, float(v)) for key, v in scored]
        scored.sort(key=lambda item: (-item[1], item[0]))
        total = float(sum(v for _, v in scored))
        eps = self.epsilon if epsilon is None else epsilon
        thr = eps * total
        entries = [(key, v) for key, v in scored if v >= thr][:k]
        return HeavyReport("loss", entries, total=total, threshold=thr)


def loss_count_estimate(walk_magnitude: float) -> int:
    """Invert the expected walk length: m ~= pi * f^2 / 2 lost packets.

    Expectation-only; individual walks spread widely around it.
    """
    if walk_magnitude < 0:
        raise ValueError("walk magnitude must be >= 0")
    return round(math.pi * walk_magnitude * walk_magnitude / 2.0)


def _key_bytes(key) -> bytes:
    return key if isinstance(key, bytes) else key.to_bytes()
