"""Trace file format ("LMT1") and the columnar in-memory trace.

Binary layout: 4-byte magic ``LMT1`` followed by a packed stream of
42-byte little-endian records, each key(13) + ptype(1) + seq(8) +
ack(8) + ts(8) + size(4). A line-oriented text form (one record per
line, hex endpoints) is accepted for hand-written fixtures.

Detectors and injectors work on the columnar ``Trace`` rather than
record objects; a million-packet epoch stays a handful of numpy arrays.
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .packets import KEY_BYTES, RECORD_BYTES, FlowKey, PacketRecord, PacketType

TRACE_MAGIC = b"LMT1"

RECORD_DTYPE = np.dtype([
    ("src", "<u4"), ("dst", "<u4"),
    ("sport", "<u2"), ("dport", "<u2"),
    ("proto", "u1"), ("ptype", "u1"),
    ("seq", "<u8"), ("ack", "<u8"),
    ("ts", "<u8"), ("size", "<u4"),
])
assert RECORD_DTYPE.itemsize == RECORD_BYTES

# Record byte columns of a flow key read in reverse: dst, src, dport, sport, proto.
_REVERSED_KEY = np.r_[4:8, 0:4, 10:12, 8:10, 12]
_FORWARD_PAIR = np.r_[0:KEY_BYTES, _REVERSED_KEY]
_BACKWARD_PAIR = np.r_[_REVERSED_KEY, 0:KEY_BYTES]


class Trace:
    """Columnar packet trace backed by one structured numpy array."""

    def __init__(self, arr: np.ndarray):
        if arr.dtype != RECORD_DTYPE:
            arr = arr.astype(RECORD_DTYPE)
        self._arr = arr

    def __len__(self) -> int:
        return len(self._arr)

    @property
    def arr(self) -> np.ndarray:
        return self._arr

    def __getattr__(self, name):
        if name in RECORD_DTYPE.names:
            return self._arr[name]
        raise AttributeError(name)

    def copy(self) -> "Trace":
        return Trace(self._arr.copy())

    def select(self, mask: np.ndarray) -> "Trace":
        return Trace(self._arr[mask])

    # -- construction ------------------------------------------------------

    @classmethod
    def empty(cls) -> "Trace":
        return cls(np.empty(0, dtype=RECORD_DTYPE))

    @classmethod
    def from_records(cls, records: Iterable[PacketRecord]) -> "Trace":
        records = list(records)
        arr = np.empty(len(records), dtype=RECORD_DTYPE)
        for i, p in enumerate(records):
            k = p.key
            arr[i] = (k.src, k.dst, k.src_port, k.dst_port, k.proto,
                      int(p.ptype), p.seq, p.ack, p.ts, p.size)
        return cls(arr)

    @classmethod
    def concatenate(cls, traces: Iterable["Trace"]) -> "Trace":
        return cls(np.concatenate([t._arr for t in traces]))

    def record(self, i: int) -> PacketRecord:
        r = self._arr[i]
        return PacketRecord(FlowKey(int(r["src"]), int(r["dst"]), int(r["sport"]),
                                    int(r["dport"]), int(r["proto"])),
                            PacketType(int(r["ptype"])), int(r["seq"]), int(r["ack"]),
                            int(r["ts"]), int(r["size"]))

    def records(self) -> Iterator[PacketRecord]:
        for i in range(len(self._arr)):
            yield self.record(i)

    # -- ordering and identity ----------------------------------------------

    def time_sorted(self) -> "Trace":
        """Stable sort by (ts, key fields, ptype, seq): deterministic file order."""
        a = self._arr
        order = np.lexsort((a["seq"], a["ptype"], a["dport"], a["sport"],
                            a["dst"], a["src"], a["ts"]))
        return Trace(a[order])

    def to_od_pairs(self) -> "Trace":
        """Collapse flow identities to origin-destination pairs.

        Whole-run setting: every key keeps (src, dst) with ports and
        proto zeroed, never mixed with 5-tuple keys in one run.
        """
        a = self._arr.copy()
        a["sport"] = 0
        a["dport"] = 0
        a["proto"] = 0
        return Trace(a)

    def sha256(self) -> str:
        return hashlib.sha256(TRACE_MAGIC + self._arr.tobytes()).hexdigest()

    # -- key material for hashing -------------------------------------------

    def key_matrix(self) -> np.ndarray:
        """(n, 13) uint8 matrix of directed flow-key bytes: the first 13
        bytes of each packed record."""
        return self._record_bytes()[:, :KEY_BYTES].copy()

    def canonical_matrix(self) -> tuple[np.ndarray, np.ndarray]:
        """(n, 26) uint8 canonical-pair bytes plus the forward-direction mask.

        A forward row is its key followed by the reversed key; any other
        row is the reversed key followed by the key.
        """
        a = self._arr
        fwd = (a["src"] < a["dst"]) | ((a["src"] == a["dst"]) & (a["sport"] <= a["dport"]))
        record = self._record_bytes()
        out = np.take(record, _FORWARD_PAIR, axis=1)
        back = np.flatnonzero(~fwd)
        out[back] = record[back[:, None], _BACKWARD_PAIR]
        return out, fwd

    def _record_bytes(self) -> np.ndarray:
        """(n, 42) uint8 view of the packed records (a copy if strided)."""
        a = np.ascontiguousarray(self._arr)
        return a.view(np.uint8).reshape(len(a), RECORD_BYTES)


def check_time_order(stamps: np.ndarray, last: int, needed_by: str) -> None:
    """Raise ValueError when a timestamp is earlier than the one before it,
    the first one included against ``last``, the latest seen before."""
    if len(stamps) and (stamps[0] < last or (stamps[1:] < stamps[:-1]).any()):
        raise ValueError(f"DATA timestamps go backwards; {needed_by} needs a "
                         f"time-sorted trace")


# -- file io ----------------------------------------------------------------

def write_trace(trace: Trace, path: "str | Path") -> None:
    path = Path(path)
    with open(path, "wb") as f:
        f.write(TRACE_MAGIC)
        trace.arr.tofile(f)


def read_trace(path: "str | Path") -> Trace:
    path = Path(path)
    with open(path, "rb") as f:
        magic = f.read(4)
        if magic != TRACE_MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}, expected {TRACE_MAGIC!r}")
        payload = os.fstat(f.fileno()).st_size - len(TRACE_MAGIC)
        if payload % RECORD_BYTES:
            raise ValueError(f"{path}: truncated trace, {payload} record bytes is not "
                             f"a multiple of {RECORD_BYTES}")
        arr = np.fromfile(f, dtype=RECORD_DTYPE)
    return Trace(arr)


def read_trace_text(path: "str | Path") -> Trace:
    records = []
    with open(path, "r", encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if line and not line.startswith("#"):
                records.append(PacketRecord.from_text(line))
    return Trace.from_records(records)


def write_trace_text(trace: Trace, path: "str | Path") -> None:
    with open(path, "w", encoding="utf-8") as f:
        for rec in trace.records():
            f.write(rec.to_text() + "\n")


def load_trace(path: "str | Path") -> Trace:
    """Read either format: binary if the magic matches, else text."""
    path = Path(path)
    with open(path, "rb") as f:
        magic = f.read(4)
    return read_trace(path) if magic == TRACE_MAGIC else read_trace_text(path)
