"""Synthetic workload generation.

Produces Zipf-sized bidirectional flows over one epoch: each flow gets
a SYN/SYNACK handshake plus DATA packets with per-flow sequence ids
1..n and an ACK per DATA delayed by the flow's base round-trip time.
Identical config and seed give a byte-identical trace. Synthesis holds
one record array, the trace itself: the records of all four packet types
are ordered by their timestamp columns first and then written straight
to their rows, a block at a time.

Data-packet counts are rounded up to even by default so every complete
flow finishes its final id pair; odd tails are covered by unit fixtures
instead of being scattered through every experiment.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .packets import PacketType
from .traceio import RECORD_DTYPE, Trace, stable_order, time_order, write_trace

ACK_SIZE = 40
HANDSHAKE_SIZE = 60
FILL_BLOCK = 1 << 12     # records built and put into the trace at once
KEY_COLUMNS = ("src", "dst", "sport", "dport")
REVERSED_KEY = ("dst", "src", "dport", "sport")     # the same endpoints, other side
# The trace's parts in input order: packet type, sent by the receiver, one
# record per DATA packet (else per flow), and fixed size (None: drawn).
PARTS = ((PacketType.DATA, False, True, None),
         (PacketType.ACK, True, True, ACK_SIZE),
         (PacketType.SYN, False, False, HANDSHAKE_SIZE),
         (PacketType.SYNACK, True, False, HANDSHAKE_SIZE))


@dataclass(frozen=True)
class SynthConfig:
    flows: int = 100_000
    packets: int = 1_000_000          # DATA-packet target before even-rounding
    zipf_s: float = 1.1
    bidirectional: bool = True
    duration_ns: int = 2_000_000_000
    rtt_min_ns: int = 20_000
    rtt_max_ns: int = 100_000
    even_flow_sizes: bool = True
    seed: int = 0

    def validate(self) -> None:
        if self.flows < 1:
            raise ValueError("need at least one flow")
        if self.packets < self.flows:
            raise ValueError(f"{self.packets} packets cannot cover {self.flows} flows")
        if not (0 < self.rtt_min_ns <= self.rtt_max_ns < self.duration_ns):
            raise ValueError("base RTT range must fit inside the epoch")


def zipf_sizes(flows: int, packets: int, s: float, even: bool) -> np.ndarray:
    """Per-rank data-packet counts summing to ~packets; min 1 per flow."""
    ranks = np.arange(1, flows + 1, dtype=np.float64)
    weights = ranks ** (-s)
    sizes = np.maximum(1, np.floor(packets * weights / weights.sum())).astype(np.int64)
    deficit = packets - int(sizes.sum())
    if deficit > 0:
        sizes[:deficit % flows] += deficit // flows + 1
        sizes[deficit % flows:] += deficit // flows
    if even:
        sizes += sizes % 2
    return sizes


def _flow_keys(rng: np.random.Generator, flows: int) -> dict[str, np.ndarray]:
    while True:
        cols = {
            "src": rng.integers(1, 1 << 32, flows, dtype=np.uint64).astype(np.uint32),
            "dst": rng.integers(1, 1 << 32, flows, dtype=np.uint64).astype(np.uint32),
            "sport": rng.integers(1024, 1 << 16, flows).astype(np.uint16),
            "dport": rng.integers(1024, 1 << 16, flows).astype(np.uint16),
        }
        packed = (cols["src"].astype(np.uint64) << np.uint64(32)) | cols["dst"]
        if len(np.unique(packed)) == flows:     # collisions are ~impossible; redraw if any
            return cols


def synthesize(cfg: SynthConfig) -> tuple[Trace, dict]:
    """Build the epoch trace and its manifest.

    The trace is the DATA, ACK, SYN and SYNACK records, in that order, put
    in ``time_order``, and it is written once, already ordered. The
    records' timestamps are ordered first, building only the records that
    tie on one; then the records are built ``FILL_BLOCK`` at a time and
    each block is put at its output rows. Besides the trace, synthesis
    holds only columns: one record array in all.
    """
    cfg.validate()
    rng = np.random.default_rng(cfg.seed)
    keys = _flow_keys(rng, cfg.flows)
    sizes = zipf_sizes(cfg.flows, cfg.packets, cfg.zipf_s, cfg.even_flow_sizes)
    n, f = int(sizes.sum()), cfg.flows
    flow_of = np.repeat(np.arange(f), sizes)
    starts = np.zeros(f, dtype=np.int64)
    starts[1:] = np.cumsum(sizes)[:-1]
    # the first row of each part: DATA, and when bidirectional ACK, SYN, SYNACK
    first = np.array([0, n, 2 * n, 2 * n + f] if cfg.bidirectional else [0])
    stamps = np.empty(2 * (n + f) if cfg.bidirectional else n, dtype=np.int64)

    # data-packet timestamps: uniform over the epoch, ordered within a flow
    margin = cfg.rtt_max_ns + 1
    ts = rng.integers(0, cfg.duration_ns - margin, n, dtype=np.int64)
    by_ts = stable_order(ts)          # np.lexsort((ts, flow_of)) as two stable passes
    np.take(ts, by_ts[stable_order(flow_of[by_ts])], out=stamps[:n])
    del ts, by_ts
    data_size = rng.integers(64, 1500, n, dtype=np.int64).astype(np.uint32)
    rtt = rng.integers(cfg.rtt_min_ns, cfg.rtt_max_ns + 1, f, dtype=np.int64)
    if cfg.bidirectional:
        ack_ts = stamps[n:2 * n]
        np.take(rtt, flow_of, out=ack_ts)
        ack_ts += stamps[:n]
        stamps[2 * n:2 * n + f] = np.maximum(stamps[starts] - 1000, 0)
        stamps[2 * n + f:] = stamps[2 * n:2 * n + f] + rtt

    def records_at(rows: np.ndarray) -> np.ndarray:
        """The records at the ascending input rows ``rows``. The forward
        ones (DATA, SYN) carry the packet id in ``seq`` and the reverse ones
        (ACK, SYNACK) in ``ack``: a DATA packet's id counts 1, 2, ... in its
        flow, an ACK's is the id of the DATA it answers, a handshake's is 1."""
        out = np.empty(len(rows), dtype=RECORD_DTYPE)
        out["proto"], out["ts"] = 6, stamps[rows]
        cuts = [*np.searchsorted(rows, first).tolist(), len(rows)]
        for (ptype, reverse, per_packet, fixed), start, lo, hi in zip(
                PARTS, first, cuts, cuts[1:]):
            i = rows[lo:hi] - start
            flow = flow_of[i] if per_packet else i
            ids = i - starts[flow] + 1 if per_packet else 1
            cols = {"ptype": int(ptype), "seq": 0 if reverse else ids,
                    "ack": ids if reverse else 0,
                    "size": data_size[i] if fixed is None else fixed}
            for name, end in zip(KEY_COLUMNS, REVERSED_KEY if reverse else KEY_COLUMNS):
                cols[name] = keys[end][flow]
            for name, value in cols.items():
                out[name][lo:hi] = value
        return out

    def tied_records(rows: np.ndarray) -> np.ndarray:
        """``records_at`` for the tied rows ``time_order`` asks for, which
        come in timestamp order."""
        by = np.argsort(rows)
        records = np.empty(len(rows), dtype=RECORD_DTYPE)
        np.put(records, by, records_at(rows[by]))
        return records

    order = time_order(stamps, tied_records)
    pos = np.empty_like(order)                 # each input row's output row
    pos[order] = np.arange(len(order))
    del order
    arr = np.empty(len(stamps), dtype=RECORD_DTYPE)
    for lo in range(0, len(arr), FILL_BLOCK):
        rows = np.arange(lo, min(lo + FILL_BLOCK, len(arr)))
        np.put(arr, pos[rows], records_at(rows), mode="clip")    # "raise" buffers
    del pos, stamps, flow_of, data_size

    trace = Trace(arr)
    manifest = {
        "kind": "synth",
        "seed": cfg.seed,
        "config": asdict(cfg),
        "flows": cfg.flows,
        "data_packets": n,
        "records": len(trace),
        "trace_sha256": trace.sha256(),
    }
    return trace, manifest


def synthesize_to_file(cfg: SynthConfig, trace_path: "str | Path",
                       manifest_path: "str | Path | None" = None) -> dict:
    trace, manifest = synthesize(cfg)
    write_trace(trace, trace_path)
    if manifest_path is not None:
        write_manifest(manifest, manifest_path)
    return manifest


def write_manifest(manifest: dict, path: "str | Path") -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")


def read_manifest(path: "str | Path") -> dict:
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)

