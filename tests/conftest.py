import numpy as np
import pytest
from hypothesis import settings

from flowsift.packets import FlowKey, PacketRecord, PacketType
from flowsift.traceio import Trace

# One profile for every property test: per-key calls through the batch
# paths cost tens of microseconds, too slow for the default deadline.
settings.register_profile("flowsift", max_examples=50, deadline=None)
settings.load_profile("flowsift")


def make_key(i: int, proto: int = 6) -> FlowKey:
    return FlowKey(src=0x0A000000 + i, dst=0x0B000000 + (i * 7 % 251),
                   src_port=1024 + (i % 5000), dst_port=443, proto=proto)


def data_packet(key: FlowKey, seq: int, ts: int, size: int = 100) -> PacketRecord:
    return PacketRecord(key, PacketType.DATA, seq, 0, ts, size)


def flow_stream(key: FlowKey, seqs, start_ts: int = 0, gap_ns: int = 1000,
                size: int = 100):
    """DATA packets for one flow, equally spaced."""
    return [data_packet(key, s, start_ts + i * gap_ns, size)
            for i, s in enumerate(seqs)]


def random_keys(rng: np.random.Generator, n: int) -> list[bytes]:
    seen = set()
    while len(seen) < n:
        need = n - len(seen)
        src = rng.integers(1, 1 << 32, need)
        dst = rng.integers(1, 1 << 32, need)
        sport = rng.integers(1, 1 << 16, need)
        dport = rng.integers(1, 1 << 16, need)
        for a, b, c, d in zip(src, dst, sport, dport):
            seen.add(FlowKey(int(a), int(b), int(c), int(d), 6).to_bytes())
    return list(seen)[:n]


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def small_trace():
    """Three flows with interleaved handshakes and data."""
    records = []
    for i in range(3):
        key = make_key(i)
        records.append(PacketRecord(key, PacketType.SYN, 1, 0, 10_000 * i, 60))
        records.append(PacketRecord(key.reversed(), PacketType.SYNACK, 0, 1,
                                    10_000 * i + 5_000, 60))
        for s in range(1, 5):
            ts = 100_000 + 10_000 * (4 * i + s)
            records.append(PacketRecord(key, PacketType.DATA, s, 0, ts, 100))
            records.append(PacketRecord(key.reversed(), PacketType.ACK, 0, s,
                                        ts + 2_000, 40))
    records.sort(key=lambda p: p.ts)
    return Trace.from_records(records)
