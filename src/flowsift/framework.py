"""Generic heavy-flow identity recovery for flow-additive statistics.

Flows hash into M buckets; each bucket holds 2L sums, one pair per bit
of the L-bit flow id. A packet adds its weight to the sum matching each
bit's value, so a flow that dominates its bucket can be read back bit
by bit: bit k is 0 exactly when the "bit k = 0" sum outweighs its
partner. Recovery is exact whenever the dominant flow's statistic
exceeds the sum of everything else that shares its bucket; when it does
not, the recovered id is garbage, so each candidate carries its
dominance margin and callers decide what to trust.

Every statistic served is linear in a per-packet weight, which the
caller supplies as an array: ones for packet counts, the sizes for
bytes, ``timestamp_weights`` for the signed timestamp sum.

Bit k means the k-th least significant bit. A tie resolves to bit 1;
ties cannot occur while the dominance inequality is strict.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import hashing
from .packets import PacketType
from .traceio import Trace

_RESPONSES = [int(PacketType.ACK), int(PacketType.SYNACK)]


class RecoveredFlow(NamedTuple):
    flow_id: int
    margin: float   # smallest |pair difference| across the id's bits
    bucket: int


class FrameworkSketch:
    """An (M, 2L) int64 array of per-bit sums with bitwise id recovery.

    Column 2k + v of bucket b sums the weights of the packets in b whose
    id has bit k equal to v.
    """

    def __init__(self, buckets: int, id_bits: int, *, run_seed: int = 0):
        if buckets < 1 or id_bits < 1:
            raise ValueError("need at least one bucket and one id bit")
        self.buckets = buckets
        self.id_bits = id_bits
        self.counts = np.zeros((buckets, 2 * id_bits), dtype=np.int64)
        self.bucket_updates = np.zeros(buckets, dtype=np.int64)
        self.bucket_hash = hashing.derive_hash_pair(run_seed, 0, hashing.STREAM_FRAMEWORK)

    def update(self, flow_ids: np.ndarray, weights: np.ndarray) -> None:
        """Add weights[i] under flow_ids[i], for every i."""
        ids = np.asarray(flow_ids)
        weights = np.asarray(weights, dtype=np.int64)
        if ids.shape != weights.shape or ids.ndim != 1:
            raise ValueError("flow ids and weights must be equal-length 1-d arrays")
        if len(ids) and (int(ids.min()) < 0 or int(ids.max()) >> self.id_bits):
            raise ValueError(f"flow ids must fit in {self.id_bits} bits")
        ids = ids.astype(np.uint64)
        rows = hashing.bucket_batch(self.bucket_hash, hashing.fold64_ints(ids), self.buckets)
        np.add.at(self.bucket_updates, rows, 1)
        for k in range(self.id_bits):
            bit = ((ids >> np.uint64(k)) & np.uint64(1)).astype(np.int64)
            np.add.at(self.counts, (rows, 2 * k + bit), weights)

    def recover_detailed(self) -> list[RecoveredFlow]:
        """One candidate per touched bucket, with its dominance margin."""
        touched = np.flatnonzero(self.bucket_updates)
        zeros, ones = self.counts[touched, 0::2], self.counts[touched, 1::2]
        bits = (ones >= zeros).astype(np.uint64)
        ids = (bits << np.arange(self.id_bits, dtype=np.uint64)).sum(axis=1, dtype=np.uint64)
        margins = np.abs(zeros - ones).min(axis=1)
        return [RecoveredFlow(flow_id, float(margin), bucket) for flow_id, margin, bucket
                in zip(ids.tolist(), margins.tolist(), touched.tolist())]


def timestamp_weights(trace: Trace, time_unit_ns: int = 1000) -> np.ndarray:
    """Signed timestamps: responses (ACK, SYNACK) add, everything else
    subtracts.

    Within one bucket pair this is the latency detector's trick: over a
    flow's matched request/response pairs the sum telescopes to the
    flow's total round-trip time.
    """
    t = trace.ts.astype(np.int64) // time_unit_ns
    return np.where(np.isin(trace.ptype, _RESPONSES), t, -t)


def flow_id32_batch(folds: np.ndarray, run_seed: int = 0) -> np.ndarray:
    """Map prefolded keys into the framework's 32-bit id universe.

    Collisions are accepted and measured, not prevented.
    """
    pair = hashing.derive_hash_pair(run_seed, 0, hashing.STREAM_FLOW_ID)
    return hashing._affine(pair, folds) >> np.uint64(32)


def flow_id32(key: bytes, run_seed: int = 0) -> int:
    """``flow_id32_batch`` for one key's bytes."""
    return int(flow_id32_batch(np.array([hashing.fold64(key)], dtype=np.uint64), run_seed)[0])
