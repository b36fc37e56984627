"""Synthetic workload generation.

Produces Zipf-sized bidirectional flows over one epoch: each flow gets
a SYN/SYNACK handshake plus DATA packets with per-flow sequence ids
1..n and an ACK per DATA delayed by the flow's base round-trip time.
Identical config and seed give a byte-identical trace. The records of
all four packet types are written into one preallocated record array,
which ``Trace.time_sorted`` gathers into the trace.

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
from .traceio import RECORD_DTYPE, Trace, stable_order, write_trace

ACK_SIZE = 40
HANDSHAKE_SIZE = 60


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


def _reversed(ends: dict) -> dict:
    """The same endpoint columns seen from the other side."""
    return {"src": ends["dst"], "dst": ends["src"],
            "sport": ends["dport"], "dport": ends["sport"]}


def _fill(rows: np.ndarray, ptype: PacketType, ends: dict, **cols) -> None:
    """Write TCP records of one packet type into a slice of the trace."""
    rows["proto"], rows["ptype"] = 6, int(ptype)
    for name, value in {**ends, **cols}.items():
        rows[name] = value


def synthesize(cfg: SynthConfig) -> tuple[Trace, dict]:
    """Build the epoch trace and its manifest.

    The DATA, ACK, SYN and SYNACK records fill consecutive slices of one
    record array, and ``Trace.time_sorted`` gathers the trace from it: at
    most two record arrays are alive at once, the filled one and the trace.
    """
    cfg.validate()
    rng = np.random.default_rng(cfg.seed)
    keys = _flow_keys(rng, cfg.flows)
    sizes = zipf_sizes(cfg.flows, cfg.packets, cfg.zipf_s, cfg.even_flow_sizes)
    n = int(sizes.sum())
    flow_of = np.repeat(np.arange(cfg.flows), sizes)

    # data-packet timestamps: uniform over the epoch, ordered within a flow
    margin = cfg.rtt_max_ns + 1
    ts = rng.integers(0, cfg.duration_ns - margin, n, dtype=np.int64)
    by_ts = stable_order(ts)          # np.lexsort((ts, flow_of)) as two stable passes
    ts = ts[by_ts[stable_order(flow_of[by_ts])]]
    del by_ts
    starts = np.zeros(cfg.flows, dtype=np.int64)
    starts[1:] = np.cumsum(sizes)[:-1]
    seq = np.arange(n, dtype=np.int64) - starts[flow_of] + 1

    arr = np.empty(2 * (n + cfg.flows) if cfg.bidirectional else n, dtype=RECORD_DTYPE)
    ends = {col: keys[col][flow_of] for col in ("src", "dst", "sport", "dport")}
    _fill(arr[:n], PacketType.DATA, ends, seq=seq, ack=0, ts=ts,
          size=rng.integers(64, 1500, n, dtype=np.int64))
    rtt = rng.integers(cfg.rtt_min_ns, cfg.rtt_max_ns + 1, cfg.flows, dtype=np.int64)

    if cfg.bidirectional:
        _fill(arr[n:2 * n], PacketType.ACK, _reversed(ends), seq=0, ack=seq,
              ts=ts + rtt[flow_of], size=ACK_SIZE)
        syn_ts = np.maximum(np.minimum.reduceat(ts, starts) - 1000, 0)
        syn, synack = arr[2 * n:2 * n + cfg.flows], arr[2 * n + cfg.flows:]
        _fill(syn, PacketType.SYN, keys, seq=1, ack=0, ts=syn_ts, size=HANDSHAKE_SIZE)
        _fill(synack, PacketType.SYNACK, _reversed(keys), seq=0, ack=1,
              ts=syn_ts + rtt, size=HANDSHAKE_SIZE)
    del flow_of, ts, seq, ends

    trace = Trace(arr).time_sorted()
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

