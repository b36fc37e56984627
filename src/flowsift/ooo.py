"""Detector for flows with many out-of-order packets.

A packet is out of order when its id is at or below the flow's highest
seen id and the flow was active within the recency window (default
3 ms). Per-flow state (max id, last packet time) lives in a bounded
cache of ``STAGES`` hashed stages, one register array each, as in a
one-pass switch pipeline. A packet reads its key's candidate slots, one
per stage, in stage order: it updates its key's live entry, or else
takes the first free slot, and is dropped when every candidate holds a
live entry of another key. No entry moves and a live entry is never
displaced. Expiry is lazy, as in a switch register array: no timer or
queue removes a stale entry; a read compares its last time with the
window, treats it as absent, and the slot is overwritten. The cache's
one per-packet loop needs DATA timestamps in non-decreasing order and
raises ValueError on a timestamp that goes back.
Qualifying packets feed a weighted frequent-items table with 1/eps
slots, so any flow holding more than an eps fraction of the total
out-of-order weight is guaranteed a slot at stream end, and every slot
weight is an underestimate of the flow's true weight.

The frequent-items decrement differs from the naive scheme in one way:
when a new flow displaces the minimum slot, every slot is decremented
by the old minimum (not by the event weight minus it), which keeps all
weights nonnegative while preserving both guarantees above.

A duplicate is out of order by definition: a repeated id is at or below
its flow's highest seen id, so a copy inside the window is late, for the
cache and for ``oracle.oracle_ooo`` alike. On the desk duplicate preset
(trace and detector seed 0) the detector reports all 100 victims.

Memory monotonicity holds for the cache's hashing, not its placement.
At capacity 2c with the same ``run_seed``, every key's stage-j slot,
floor-divided by 2, is its stage-j slot at capacity c (the stage hash
scales one 32-bit value by the stage width, and 2w/2 = w): each slot
splits in two, so keys that share no candidate at c share none at 2c.
First-fit placement does not nest: which candidate a key takes, and
whether it is dropped, depends on which slots other keys hold at that
packet, and that differs between the two capacities. So absorbed weight
can fall when a starved cache doubles: in 5 of 120 doublings from 8 to
256 slots on small reorder traces (300 flows, 20 victims), once from
2,028 late bytes at 8 slots to 0 at 16.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import hashing
from .oracle import ooo_weights
from .packets import PacketType
from .reports import HeavyReport, ranked
from .traceio import KEY_VOID, Trace, check_time_order

# Accounting per entry/slot, in bytes: key plus the stated payload.
CACHE_ENTRY_BYTES = 13 + 8 + 8   # key, max_seq, last_ts
TOP_SLOT_BYTES = 13 + 8          # key, weight
_LIST_BLOCK = 1 << 16             # rows RecencyCache.observe hashes and turns into lists at once
STAGES = 4                        # RecencyCache's hashed stages, one candidate slot each


def ooo_shape(budget_bytes: int) -> tuple[int, int]:
    """Split an out-of-order budget: ~1/4 top-table slots, rest cache
    (capacity rounded down to a power of two, at least ``STAGES``)."""
    slots = max(1, budget_bytes // 4 // TOP_SLOT_BYTES)
    cache_budget = budget_bytes - slots * TOP_SLOT_BYTES
    capacity = 1 << max(2, (cache_budget // CACHE_ENTRY_BYTES).bit_length() - 1)
    return slots, capacity


class RecencyCache:
    """Bounded map flow key -> (max seq, last packet ts) within a window.

    ``STAGES`` stages of capacity/``STAGES`` slots (d-left hashing,
    Broder & Mitzenmacher, INFOCOM 2001, laid out as HashPipe's
    per-stage register arrays, Sivaraman et al., SOSR 2017): each key has
    one candidate slot per stage, stage j's at offset j·capacity/STAGES,
    all hashed in one ``HashStack`` call per block of rows. An entry is
    ``[key, max_seq, last_ts]`` and a key lives in at most one of its
    candidates. Each packet makes one pass over its candidates: a live
    entry of its key is updated, a stale one is cleared, and the first
    free or stale candidate is remembered; with no live entry the key
    takes that slot, or is dropped (counted in ``dropped``) when every
    candidate holds a live entry of another key. A live entry is never
    displaced.

    Expiry is lazy, as in a switch register array: an entry is stale
    once ``last_ts < ts - window_ns`` at the packet being processed, and
    a read treats it as free. Staleness only grows with time, so this
    keeps exactly the entries that expiring every stale one before each
    packet would keep.

    ``observe`` is the only way in, and it needs DATA timestamps in
    non-decreasing order, within a batch and across batches.
    """

    def __init__(self, capacity: int = 1 << 16, window_ns: int = 3_000_000,
                 *, run_seed: int = 0):
        if capacity < STAGES or capacity % STAGES:
            raise ValueError(f"capacity must be a multiple of {STAGES} and >= {STAGES}: "
                             f"{STAGES} stages of capacity/{STAGES} slots")
        self.capacity = capacity
        self.window_ns = window_ns
        self.dropped = 0
        self._stages = hashing.stack([hashing.derive_hash_pair(run_seed, j, hashing.STREAM_CACHE)
                                      for j in range(STAGES)])
        self._width = capacity // STAGES
        self._slots: list[list | None] = [None] * capacity
        self._last_ts = 0       # the latest DATA timestamp seen

    def __len__(self) -> int:
        """Entries live at the latest timestamp seen."""
        return len(self.active_flows())

    def observe(self, data: Trace) -> list[int]:
        """Feed a batch of DATA records; return the indices of the
        out-of-order packets, in arrival order.

        Raises ValueError when a timestamp is earlier than the one before
        it, in this batch or the last one the cache saw.
        """
        if len(data) == 0:
            return []
        stamps = data.ts
        check_time_order(stamps, self._last_ts, "out-of-order detection")
        self._last_ts = int(stamps[-1])
        keys = data.key_matrix()
        folds = hashing.fold64_matrix(keys)
        keys, seqs = keys.view(KEY_VOID).ravel(), data.seq
        window, slots = self.window_ns, self._slots
        late = []
        # stage slots and Python lists of one block of rows at a time: the
        # whole batch's (STAGES, n) int64 temporaries and lists would cost
        # ~100 and ~200 bytes per row
        for lo in range(0, len(data), _LIST_BLOCK):
            block = slice(lo, lo + _LIST_BLOCK)
            candidates = self._candidates(folds[block])
            for i, key, ts, seq, stage_slots in zip(
                    range(lo, lo + _LIST_BLOCK), keys[block].tolist(),
                    stamps[block].tolist(), seqs[block].tolist(),
                    zip(*candidates.tolist())):
                cutoff = ts - window
                free = None
                for slot in stage_slots:
                    entry = slots[slot]
                    if entry is not None and entry[2] >= cutoff:
                        if entry[0] == key:
                            if seq <= entry[1]:
                                late.append(i)
                            else:
                                entry[1] = seq
                            entry[2] = ts
                            break
                    elif free is None:
                        free = slot
                    elif entry is not None and entry[0] == key:
                        slots[slot] = None      # stale: the key moves to ``free``
                else:
                    if free is None:
                        self.dropped += 1
                    else:
                        slots[free] = [key, seq, ts]
        return late

    def _candidates(self, folds: np.ndarray) -> np.ndarray:
        """(STAGES, n) candidate slots of prefolded keys, stage j's at
        offset j·capacity/STAGES."""
        offsets = np.arange(0, self.capacity, self._width)[:, None]
        return hashing.bucket_batch(self._stages, folds, self._width) + offsets

    def active_flows(self) -> dict[bytes, tuple[int, int]]:
        """Live entries at the latest timestamp seen: key -> (max seq, last ts)."""
        cutoff = self._last_ts - self.window_ns
        return {entry[0]: (entry[1], entry[2]) for entry in self._slots
                if entry is not None and entry[2] >= cutoff}

    def memory_bytes(self) -> int:
        return self.capacity * CACHE_ENTRY_BYTES


class TopTable:
    """Weighted frequent-items table with r slots and a shared offset.

    Decrement-all is O(1) via the offset; a slot's effective weight is
    its stored value minus the offset and never goes negative.
    """

    def __init__(self, slots: int):
        if slots < 1:
            raise ValueError("need at least one slot")
        self.slots = slots
        self._raw: dict[bytes, int] = {}
        self._offset = 0
        self.total_weight = 0   # total absorbed weight (the P in eps*P)

    def absorb(self, key: bytes, weight: int) -> None:
        if weight <= 0:
            raise ValueError("weight must be positive")
        self.total_weight += weight
        raw = self._raw
        if key in raw:
            raw[key] += weight
            return
        if len(raw) < self.slots:
            raw[key] = self._offset + weight
            return
        min_key = min(raw, key=lambda k: (raw[k], k))
        min_eff = raw[min_key] - self._offset
        if min_eff >= weight:
            self._offset += weight          # decrement every slot; event discarded
            return
        self._offset += min_eff             # decrement every slot by the old minimum
        del raw[min_key]
        raw[key] = self._offset + (weight - min_eff)

    def weight(self, key: bytes) -> int:
        raw = self._raw.get(key)
        return 0 if raw is None else raw - self._offset

    def occupied(self) -> list[tuple[bytes, int]]:
        return [(k, v - self._offset) for k, v in self._raw.items()]

    def memory_bytes(self) -> int:
        return self.slots * TOP_SLOT_BYTES


@dataclass
class OooDetector:
    """Recency-cached out-of-order tracking over data-direction keys."""

    slots: int = 500
    cache_capacity: int = 1 << 10
    window_ns: int = 3_000_000
    weight_mode: str = "bytes"     # or "packets"
    run_seed: int = 0

    def __post_init__(self) -> None:
        if self.weight_mode not in ("bytes", "packets"):
            raise ValueError(f"weight mode must be bytes or packets, got {self.weight_mode!r}")
        self.cache = RecencyCache(self.cache_capacity, self.window_ns,
                                  run_seed=self.run_seed)
        self.table = TopTable(self.slots)
        self.skipped = 0

    @classmethod
    def from_config(cls, cfg) -> "OooDetector":
        """The ``ooo_shape`` budget split, unless the config overrides it."""
        slots, capacity = ooo_shape(cfg.budget_bytes)
        return cls(slots=slots if cfg.ooo_slots is None else cfg.ooo_slots,
                   cache_capacity=capacity if cfg.cache_capacity is None else cfg.cache_capacity,
                   window_ns=cfg.window_ns, weight_mode=cfg.weight_mode,
                   run_seed=cfg.seed)

    @staticmethod
    def oracle(trace: Trace, cfg) -> tuple[np.ndarray, np.ndarray]:
        """Exact out-of-order weight per data flow under the config's window."""
        return ooo_weights(trace, cfg.window_ns, cfg.weight_mode)

    @property
    def epsilon(self) -> float:
        return 1.0 / self.slots

    def observe_trace(self, trace: Trace) -> None:
        """Stream a time-sorted trace: the cache picks out the out-of-order
        DATA packets, and their weights are absorbed in arrival order."""
        data = trace.select(trace.ptype == int(PacketType.DATA))
        self.skipped += len(trace) - len(data)
        late = data.select(self.cache.observe(data))
        weights = late.size.tolist() if self.weight_mode == "bytes" else [1] * len(late)
        absorb = self.table.absorb
        for key, weight in zip(late.key_matrix().view(KEY_VOID).ravel().tolist(), weights):
            if weight:      # a zero-byte packet adds nothing, and takes no slot
                absorb(key, weight)

    def topk(self, k: int) -> HeavyReport:
        entries = ranked([(key, w) for key, w in self.table.occupied() if w > 0])
        return HeavyReport([(key, float(w)) for key, w in entries[:max(k, 0)]])

    def run(self, trace: Trace, k: int) -> HeavyReport:
        self.observe_trace(trace)
        return self.topk(k)

    def controller_inputs(self) -> tuple[None, None]:
        return None, None       # no controller re-rank: the report is final

    def memory_bytes(self) -> int:
        return self.table.memory_bytes() + self.cache.memory_bytes()
