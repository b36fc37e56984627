"""Detector for flows with many out-of-order packets.

A packet is out of order when its id is at or below the flow's highest
seen id and the flow was active within the recency window (default
3 ms). Per-flow state (max id, last packet time) lives in a bounded
two-way cuckoo cache. Each entry sits in its slot together with its key
and alternate slot, hashed once per batch, so a kick moves an occupant
to its stored alternate without re-hashing. Expiry is lazy, as in a
switch register array: no timer or queue removes a stale entry; a read
compares its last time with the window, treats it as absent, and the
slot is overwritten. The cache's one per-packet loop needs DATA
timestamps in non-decreasing order and raises ValueError on a
timestamp that goes back.
Qualifying packets feed a weighted frequent-items table with 1/eps
slots, so any flow holding more than an eps fraction of the total
out-of-order weight is guaranteed a slot at stream end, and every slot
weight is an underestimate of the flow's true weight.

The frequent-items decrement differs from the naive scheme in one way:
when a new flow displaces the minimum slot, every slot is decremented
by the old minimum (not by the event weight minus it), which keeps all
weights nonnegative while preserving both guarantees above.
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
_LIST_BLOCK = 1 << 16             # rows RecencyCache.observe turns into lists at once


def ooo_shape(budget_bytes: int) -> tuple[int, int]:
    """Split an out-of-order budget: ~1/4 top-table slots, rest cache
    (capacity rounded down to a power of two)."""
    slots = max(1, budget_bytes // 4 // TOP_SLOT_BYTES)
    cache_budget = budget_bytes - slots * TOP_SLOT_BYTES
    capacity = 1 << max(1, (cache_budget // CACHE_ENTRY_BYTES).bit_length() - 1)
    return slots, capacity


class RecencyCache:
    """Bounded map flow key -> (max seq, last packet ts) within a window.

    Two-way cuckoo layout: each key has one candidate slot in each half
    of the slot array, both hashed once per batch. An entry lives in one
    of its key's candidates as ``[key, max_seq, last_ts, alternate]``, its
    other candidate stored beside it, so a lookup reads the two
    candidates and compares keys, as a switch reads two registers.
    Expiry is lazy, as in a switch register array: an entry is stale
    once ``last_ts < ts - window_ns`` at the packet being processed, and
    every read (the key lookup, the free-slot check, each step of a kick
    chain) treats a stale entry as absent; it is unlinked when its key
    arrives again or its slot is taken. Staleness only grows with time,
    so this keeps exactly the entries that expiring every stale one
    before each packet would keep. A new key takes a free candidate,
    else kicks occupants to their stored alternates along a chain of at
    most ``_MAX_KICKS`` moves, and whichever key is still displaced at
    the end is dropped (counted in ``dropped``).

    ``observe`` is the only way in, and it needs DATA timestamps in
    non-decreasing order, within a batch and across batches.
    """

    _MAX_KICKS = 8

    def __init__(self, capacity: int = 1 << 16, window_ns: int = 3_000_000,
                 *, run_seed: int = 0):
        if capacity < 2 or capacity % 2:
            raise ValueError("capacity must be even and >= 2: two halves of capacity/2 slots")
        self.capacity = capacity
        self.window_ns = window_ns
        self.dropped = 0
        self._halves = hashing.stack([hashing.derive_hash_pair(run_seed, j, hashing.STREAM_CACHE)
                                      for j in (0, 1)])
        self._half = capacity // 2
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
        candidates = (hashing.bucket_batch(self._halves, hashing.fold64_matrix(keys),
                                           self._half)
                      + [[0], [self._half]])     # second half's offset
        keys, seqs = keys.view(KEY_VOID).ravel(), data.seq
        window, slots = self.window_ns, self._slots
        late = []
        # Python lists of one block of rows at a time: the whole batch as
        # lists would cost ~200 bytes of objects per row
        for lo in range(0, len(data), _LIST_BLOCK):
            block = slice(lo, lo + _LIST_BLOCK)
            first, second = candidates[:, block].tolist()
            for i, key, ts, seq, slot, alternate in zip(
                    range(lo, lo + _LIST_BLOCK), keys[block].tolist(),
                    stamps[block].tolist(), seqs[block].tolist(), first, second):
                cutoff = ts - window
                held, entry = slot, slots[slot]
                if entry is None or entry[0] != key:
                    held, entry = alternate, slots[alternate]
                if entry is not None and entry[0] == key:
                    if entry[2] >= cutoff:
                        if seq <= entry[1]:
                            late.append(i)
                        else:
                            entry[1] = seq
                        entry[2] = ts
                        continue
                    slots[held] = None      # stale: the key arrives as new
                self._insert([key, seq, ts, alternate], slot, cutoff)
        return late

    def _insert(self, entry: list, slot: int, cutoff: int) -> None:
        """Claim a slot for a new entry, kicking occupants to their stored
        alternates; an occupant last seen before ``cutoff`` is stale and
        its slot free. Whatever key is still displaced when the chain ends
        is dropped (possibly the new key)."""
        slots = self._slots
        occupant, other = slots[slot], slots[entry[3]]
        if (occupant is not None and occupant[2] >= cutoff
                and (other is None or other[2] < cutoff)):
            slot, entry[3] = entry[3], slot
        for _ in range(self._MAX_KICKS):
            occupant, slots[slot] = slots[slot], entry
            if occupant is None or occupant[2] < cutoff:
                return
            entry = occupant
            slot, entry[3] = entry[3], slot
        self.dropped += 1

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

    def observe(self, packet) -> None:
        """One packet, as a trace of one."""
        self.observe_trace(Trace.from_records([packet]))

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
        return HeavyReport([(key, float(w)) for key, w in entries[:k]])

    def run(self, trace: Trace, k: int) -> HeavyReport:
        self.observe_trace(trace)
        return self.topk(k)

    def controller_inputs(self) -> tuple[None, None]:
        return None, None       # no controller re-rank: the report is final

    def memory_bytes(self) -> int:
        return self.table.memory_bytes() + self.cache.memory_bytes()
