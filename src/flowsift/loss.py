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
from .oracle import loss_counts
from .packets import FlowKey, PacketType
from .reporter import GatedSketchDetector, SketchInput
from .reports import HeavyReport
from .traceio import Trace


@dataclass
class LossDetector(GatedSketchDetector):
    """Paired-id +/-1 sketch over data-direction flow keys; the gate
    evaluates flows that carried DATA."""

    def __post_init__(self) -> None:
        super().__post_init__()
        self.pair_sign_hash = hashing.derive_hash_pair(
            self.run_seed, 0, hashing.STREAM_PAIR_SIGN)

    @staticmethod
    def oracle(trace: Trace, cfg) -> tuple[np.ndarray, np.ndarray]:
        """Exact missing-id count per data flow."""
        return loss_counts(trace)

    def observe_batch(self, trace: Trace) -> SketchInput:
        """The trace's sketch input: every DATA record's key bytes and
        fold, and its paired-id step; every DATA record triggers. Counts
        the skipped records."""
        rows = np.flatnonzero(trace.ptype == int(PacketType.DATA))
        self.skipped += len(trace) - len(rows)
        data = trace.select(rows)
        seq = data.seq.astype(np.int64)
        if seq.min(initial=1) < 1:
            raise ValueError("packet ids must be >= 1")
        pair_folds = hashing.fold64_ints(((seq + 1) // 2).astype(np.uint64))
        g = hashing.sign_batch(self.pair_sign_hash, pair_folds)
        keys = data.key_matrix()
        return SketchInput(rows, keys, hashing.fold64_matrix(keys),
                           np.where(seq % 2 == 1, g, -g), np.ones(len(rows), dtype=bool))

    def estimate(self, key: "FlowKey | bytes") -> int:
        return self.table.estimate(_key_bytes(key))

    def topk(self, candidates: list[bytes], k: int) -> HeavyReport:
        """The k candidate key bytes of largest walk magnitude.

        Magnitude means |signed-median estimate|: collider walks carry
        incoherent signs across rows and cancel in the signed median.
        """
        return HeavyReport(self.table.signed_magnitudes(candidates, k))


def loss_count_estimate(walk_magnitude: float) -> int:
    """Invert the expected walk length: m ~= pi * f^2 / 2 lost packets.

    Expectation-only; individual walks spread widely around it.
    """
    if walk_magnitude < 0:
        raise ValueError("walk magnitude must be >= 0")
    return round(math.pi * walk_magnitude * walk_magnitude / 2.0)


def _key_bytes(key) -> bytes:
    return key if isinstance(key, bytes) else key.to_bytes()
