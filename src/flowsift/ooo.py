"""Detector for flows with many out-of-order packets.

A packet is out of order when its id is at or below the flow's highest
seen id and the flow was active within the recency window (default
3 ms). Per-flow state (max id, last packet time) lives in a bounded
two-way cuckoo cache; an unbounded dict mode backs oracle-style tests.
Each live entry also stores the slot it holds and its alternate slot,
hashed once per batch: expiry frees exactly that slot, a dropped key
holds none, and a kick moves an occupant to its stored alternate without re-hashing. The
cache's one per-packet loop needs DATA timestamps in non-decreasing
order and raises ValueError on a timestamp that goes back.
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

from collections import deque
from dataclasses import dataclass
from itertools import repeat

from . import hashing
from .packets import KEY_BYTES, PacketType
from .reports import HeavyReport
from .traceio import Trace, check_time_order

# Accounting per entry/slot, in bytes: key plus the stated payload.
CACHE_ENTRY_BYTES = 13 + 8 + 8   # key, max_seq, last_ts
TOP_SLOT_BYTES = 13 + 8          # key, weight


class RecencyCache:
    """Bounded map flow key -> (max seq, last packet ts) within a window.

    Two-way cuckoo layout: each key has one candidate slot in each half
    of the slot array, both hashed once per batch. A live entry is
    stored as ``[max_seq, last_ts, slot, alternate]``: the slot it holds
    and its other candidate. Expiry clears exactly that slot and a
    dropped key holds none, so a slot is occupied only by a live key. A new key takes a free
    candidate, else kicks occupants to their stored alternates along a
    chain of at most ``_MAX_KICKS`` moves, and whichever key is still
    displaced at the end is dropped (counted in ``dropped``).
    ``exact=True`` swaps in an unbounded dict with identical semantics
    for oracle-style tests.

    ``observe`` is the only way in, and it needs DATA timestamps in
    non-decreasing order, within a batch and across batches.
    """

    _MAX_KICKS = 8

    def __init__(self, capacity: int = 1 << 16, window_ns: int = 3_000_000,
                 *, run_seed: int = 0, exact: bool = False):
        self.window_ns = window_ns
        self.exact = exact
        self.dropped = 0
        self._entries: dict[bytes, list] = {}
        self._expiry: deque[tuple[int, bytes]] = deque()
        if not exact:
            if capacity < 2:
                raise ValueError("capacity must be >= 2")
            self.capacity = capacity
            self._h1 = hashing.derive_hash_pair(run_seed, 0, hashing.STREAM_CACHE)
            self._h2 = hashing.derive_hash_pair(run_seed, 1, hashing.STREAM_CACHE)
            self._half = capacity // 2
            self._slots: list[bytes | None] = [None] * capacity

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: bytes, now_ns: int) -> "tuple[int, int] | None":
        """Entry for key, or None if absent or stale at time now_ns."""
        entry = self._entries.get(key)
        if entry is None or now_ns - entry[1] > self.window_ns:
            return None
        return entry[0], entry[1]

    def observe(self, data: Trace) -> list[int]:
        """Feed a batch of DATA records; return the indices of the
        out-of-order packets, in arrival order.

        Raises ValueError when a timestamp is earlier than the one before
        it, in this batch or the last one the cache saw.
        """
        if len(data) == 0:
            return []
        stamps = data.ts
        check_time_order(stamps, self._expiry[-1][0] if self._expiry else 0,
                         "out-of-order detection")
        keys = data.key_matrix()
        if self.exact:
            first = second = repeat(None)
        else:
            folds = hashing.fold64_matrix(keys)
            first = hashing.bucket_batch(self._h1, folds, self._half).tolist()
            second = (self._half
                      + hashing.bucket_batch(self._h2, folds, self._half)).tolist()
        blob = keys.tobytes()
        entries, expiry = self._entries, self._expiry
        late = []
        for i, (ts, seq, slot, alternate) in enumerate(
                zip(stamps.tolist(), data.seq.tolist(), first, second)):
            self.expire(ts)     # afterwards every remaining entry is fresh
            key = blob[i * KEY_BYTES:(i + 1) * KEY_BYTES]
            entry = entries.get(key)
            if entry is None:
                self._insert(key, [seq, ts, slot, alternate])
            else:
                if seq <= entry[0]:
                    late.append(i)
                else:
                    entry[0] = seq
                entry[1] = ts
            expiry.append((ts, key))
        return late

    def _insert(self, key: bytes, entry: list) -> None:
        """Register a new key; in the bounded layout, claim a slot for it,
        kicking occupants to their stored alternates. Whatever key is still
        displaced when the chain ends is dropped (possibly the new key)."""
        entries = self._entries
        entries[key] = entry
        if self.exact:
            return
        slots = self._slots
        if slots[entry[2]] is not None and slots[entry[3]] is None:
            entry[2], entry[3] = entry[3], entry[2]
        for _ in range(self._MAX_KICKS):
            key, slots[entry[2]] = slots[entry[2]], key
            if key is None:
                return
            entry = entries[key]
            entry[2], entry[3] = entry[3], entry[2]
        del entries[key]
        self.dropped += 1

    def expire(self, now_ns: int) -> None:
        """Drop entries whose last packet is older than the window and
        free their slots."""
        cutoff = now_ns - self.window_ns
        expiry = self._expiry
        entries = self._entries
        while expiry and expiry[0][0] < cutoff:
            ts, key = expiry.popleft()
            entry = entries.get(key)
            if entry is not None and entry[1] == ts:
                del entries[key]
                if not self.exact:
                    self._slots[entry[2]] = None

    def active_flows(self) -> dict[bytes, tuple[int, int]]:
        return {key: (entry[0], entry[1]) for key, entry in self._entries.items()}

    def memory_bytes(self) -> int:
        count = len(self._entries) if self.exact else self.capacity
        return count * CACHE_ENTRY_BYTES


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
    exact_cache: bool = False

    def __post_init__(self) -> None:
        if self.weight_mode not in ("bytes", "packets"):
            raise ValueError(f"weight mode must be bytes or packets, got {self.weight_mode!r}")
        self.cache = RecencyCache(self.cache_capacity, self.window_ns,
                                  run_seed=self.run_seed, exact=self.exact_cache)
        self.table = TopTable(self.slots)
        self.skipped = 0

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
        blob = late.key_matrix().tobytes()
        absorb = self.table.absorb
        for i, weight in enumerate(weights):
            absorb(blob[i * KEY_BYTES:(i + 1) * KEY_BYTES], weight)

    def topk(self, k: int) -> HeavyReport:
        entries = [(key, w) for key, w in self.table.occupied() if w > 0]
        entries.sort(key=lambda item: (-item[1], item[0]))
        entries = [(key, float(w)) for key, w in entries[:k]]
        return HeavyReport("ooo", entries, total=float(self.table.total_weight),
                           threshold=self.epsilon * self.table.total_weight)

    def memory_bytes(self) -> int:
        return self.table.memory_bytes() + self.cache.memory_bytes()
