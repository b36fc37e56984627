"""Trace file format ("LMT1") and the columnar in-memory trace.

Binary layout: 4-byte magic ``LMT1`` followed by a packed stream of
42-byte little-endian records, each key(13) + ptype(1) + seq(8) +
ack(8) + ts(8) + size(4). A line-oriented text form (one record per
line, hex endpoints) is accepted for hand-written fixtures.

Detectors and injectors work on the columnar ``Trace`` rather than
record objects; a million-packet epoch stays a handful of numpy arrays.
A trace's records are read-only: code that derives a trace builds its
new record array first and wraps it last.
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
# one flow key as a single comparable, sortable value; tolist() gives bytes
KEY_VOID = np.dtype((np.void, KEY_BYTES))

# Record byte columns of a flow key read in reverse: dst, src, dport, sport, proto.
_REVERSED_KEY = np.r_[4:8, 0:4, 10:12, 8:10, 12]
_FORWARD_PAIR = np.r_[0:KEY_BYTES, _REVERSED_KEY]
_BACKWARD_PAIR = np.r_[_REVERSED_KEY, 0:KEY_BYTES]
# time_order's columns as np.lexsort takes them, the primary one last
TIME_KEYS = ("seq", "ptype", "dport", "sport", "dst", "src", "ts")


class DataError(ValueError):
    """Inconsistent trace/manifest data (CLI exit code 3)."""


class Trace:
    """Columnar packet trace backed by one read-only structured numpy array.

    The constructor marks the array it wraps read-only, so neither the
    trace nor its column and slice views can write into the records.
    """

    def __init__(self, arr: np.ndarray):
        if arr.dtype != RECORD_DTYPE:
            arr = arr.astype(RECORD_DTYPE)
        arr.flags.writeable = False
        self._arr = arr
        self._sha256: "str | None" = None

    def __len__(self) -> int:
        return len(self._arr)

    @property
    def arr(self) -> np.ndarray:
        return self._arr

    def __getattr__(self, name):
        if name in RECORD_DTYPE.names:
            return self._arr[name]
        raise AttributeError(name)

    def select(self, rows) -> "Trace":
        """The rows a slice (as a view), a boolean mask or an index list
        picks; the last two gather with ``np.take``, several times faster
        than fancy indexing a structured array."""
        if isinstance(rows, slice):
            return Trace(self._arr[rows])
        index = np.asarray(rows)
        if index.dtype == bool:
            if index.shape != self._arr.shape:
                raise IndexError(f"mask of {len(index)} rows for a {len(self)}-row trace")
            index = np.flatnonzero(index)
        elif index.size == 0:
            index = index.astype(np.intp)     # np.asarray([]) is float64
        return Trace(np.take(self._arr, index))

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
        """The rows in ``time_order``: by (ts, src, dst, sport, dport, ptype,
        seq), full ties in input order."""
        a = self._arr
        return Trace(np.take(a, time_order(a["ts"], lambda rows: np.take(a, rows))))

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
        """Digest of the file bytes, computed once and kept while no
        writable array can reach the records (``_sealed``); a trace over a
        view of a writable array is hashed on every call."""
        if not _sealed(self._arr):
            return self._digest()
        if self._sha256 is None:
            self._sha256 = self._digest()
        return self._sha256

    def _digest(self) -> str:
        """sha256 of the file bytes, read in place from the packed records."""
        digest = hashlib.sha256(TRACE_MAGIC)
        digest.update(self._record_bytes())
        return digest.hexdigest()

    # -- key material for hashing -------------------------------------------

    def key_matrix(self, rows: "np.ndarray | None" = None) -> np.ndarray:
        """(n, 13) uint8 matrix of directed flow-key bytes: the first 13
        bytes of each packed record, or of the records at the row indexes
        ``rows`` only, gathered straight from the packed records."""
        record = self._record_bytes()
        if rows is None:
            return record[:, :KEY_BYTES].copy()
        return record[rows, :KEY_BYTES]

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


def _sealed(arr: np.ndarray) -> bool:
    """True when every array from ``arr`` to the memory's owner is
    read-only and the owner is an array or ``bytes``. A writable view
    made of the owner before it was wrapped is not seen."""
    while isinstance(arr, np.ndarray):
        if arr.flags.writeable:
            return False
        arr = arr.base
    return arr is None or isinstance(arr, bytes)


def stable_order(values: np.ndarray) -> np.ndarray:
    """``np.argsort(values, kind="stable")`` for an integer array of at
    most 2^32 values.

    When the span max - min and the row index fit in 64 bits together,
    each row becomes the one uint64 ``(value - min) << index_bits | row``:
    these are distinct, so any sort gives the stable order, and numpy's
    vectorised quicksort sorts them several times faster than a stable
    argsort. A wider span (hash folds, say) is first replaced by each
    value's dense rank, found by one unstable argsort: the ranks keep the
    values' order and ties, and span fewer than ``n`` values.
    """
    values = np.asarray(values)
    n = len(values)
    if n < 2:
        return np.arange(n, dtype=np.intp)
    low = int(values.min())
    index_bits = (n - 1).bit_length()
    if (int(values.max()) - low).bit_length() + index_bits > 64:
        values, low = _dense_ranks(values), 0
    packed = values.astype(np.uint64)
    packed -= np.uint64(low % (1 << 64))    # modulo 2^64, exact since the span fits
    packed <<= np.uint64(index_bits)
    packed |= np.arange(n, dtype=np.uint64)
    packed.sort()
    packed &= np.uint64((1 << index_bits) - 1)
    return packed.view(np.intp)


def _dense_ranks(values: np.ndarray) -> np.ndarray:
    """Each value's rank among the distinct values, from 0, as uint64."""
    order = np.argsort(values)
    ordered = values[order]
    steps = np.zeros(len(values), dtype=np.uint64)
    np.cumsum(ordered[1:] != ordered[:-1], out=steps[1:])
    ranks = np.empty_like(steps)
    ranks[order] = steps
    return ranks


def run_starts(ordered: np.ndarray) -> np.ndarray:
    """Where each run of equal values in a sorted array begins."""
    new = np.ones(len(ordered), dtype=bool)
    new[1:] = ordered[1:] != ordered[:-1]
    return np.flatnonzero(new)


def time_order(ts: np.ndarray, rows_at) -> np.ndarray:
    """Row order of a trace by (ts, src, dst, sport, dport, ptype, seq),
    full ties in input order: the one time order of every trace flowsift
    builds.

    ``ts`` is the trace's timestamp column and ``rows_at(index)`` returns
    its records at an index array. One ``stable_order`` on ``ts`` (a
    packed-key sort whenever the timestamp span and the row count fit 64
    bits together) orders the rows; only the rows that share a timestamp
    are fetched and lexsorted by all seven columns. So a caller can order
    a trace it has not built yet, from the timestamps alone.
    """
    order = stable_order(ts)
    stamps = ts[order]
    same = stamps[1:] == stamps[:-1]
    del stamps
    at = np.flatnonzero(np.r_[same, False] | np.r_[False, same])
    tied = order[at]
    rows = rows_at(tied)
    order[at] = tied[np.lexsort([rows[c] for c in TIME_KEYS])]
    return order


def time_sorted_stamps(trace: Trace) -> np.ndarray:
    """The timestamp column of a trace in ``time_order``, as a contiguous
    copy. Raises DataError when the trace is not in that order: a timestamp
    decreases, or neighbours that share one are not in column order."""
    ts = np.ascontiguousarray(trace.ts)
    tied = np.flatnonzero(ts[1:] == ts[:-1])
    a, b = np.take(trace.arr, tied), np.take(trace.arr, tied + 1)
    after, same = np.zeros(len(tied), dtype=bool), np.ones(len(tied), dtype=bool)
    for column in reversed(TIME_KEYS[:-1]):     # src first, seq last
        after |= same & (a[column] > b[column])
        same &= a[column] == b[column]
    if after.any() or (ts[1:] < ts[:-1]).any():
        raise DataError("records are not in time order (ts, then src, dst, sport, "
                        "dport, ptype, seq)")
    return ts


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
