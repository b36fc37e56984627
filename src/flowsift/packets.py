"""Packet event model and flow identity types.

Every detector consumes the same immutable record shape: a flow key
(5-tuple, or origin-destination pair with ports and proto zeroed), a
packet type, per-flow logical sequence ids starting at 1, and integer
nanosecond timestamps. Keys serialize to a fixed 13-byte layout that is
the hashing substrate for every sketch; a bidirectional flow is
addressed by its canonical endpoint pair, which serializes to 26 bytes.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass
from typing import NamedTuple


class PacketType(enum.IntEnum):
    DATA = 0
    ACK = 1
    SYN = 2
    SYNACK = 3
    FIN = 4


@dataclass(frozen=True)
class TypeFilter:
    """Pairing rule: which packet types count as requests and responses."""

    requests: frozenset
    responses: frozenset

    @classmethod
    def syn_handshake(cls) -> "TypeFilter":
        return cls(frozenset({PacketType.SYN}), frozenset({PacketType.SYNACK}))

    @classmethod
    def data_ack(cls) -> "TypeFilter":
        return cls(frozenset({PacketType.DATA}), frozenset({PacketType.ACK}))

    @classmethod
    def all_pairs(cls) -> "TypeFilter":
        return cls(frozenset({PacketType.SYN, PacketType.DATA}),
                   frozenset({PacketType.SYNACK, PacketType.ACK}))

    @classmethod
    def named(cls, name: str) -> "TypeFilter":
        presets = {"syn": cls.syn_handshake, "data": cls.data_ack, "all": cls.all_pairs}
        if name not in presets:
            raise ValueError(f"unknown type filter {name!r}; expected one of {sorted(presets)}")
        return presets[name]()


KEY_BYTES = 13
RECORD_BYTES = 42

_KEY_CODEC = struct.Struct("<IIHHB")          # src, dst, src_port, dst_port, proto


@dataclass(frozen=True)
class FlowKey:
    """Directed flow identity: 5-tuple of 32-bit endpoints, ports, proto.

    OD-pair mode uses the same type with ports and proto zeroed; whether
    a run is in 5-tuple or OD mode is a whole-run setting, never mixed.
    """

    src: int
    dst: int
    src_port: int = 0
    dst_port: int = 0
    proto: int = 0

    def to_bytes(self) -> bytes:
        return _KEY_CODEC.pack(self.src, self.dst, self.src_port, self.dst_port, self.proto)

    @classmethod
    def from_bytes(cls, data: bytes) -> "FlowKey":
        if len(data) != KEY_BYTES:
            raise ValueError(f"flow key must be {KEY_BYTES} bytes, got {len(data)}")
        return cls(*_KEY_CODEC.unpack(data))

    def reversed(self) -> "FlowKey":
        return FlowKey(self.dst, self.src, self.dst_port, self.src_port, self.proto)


class Endpoint(NamedTuple):
    addr: int
    port: int


@dataclass(frozen=True)
class CanonicalPair:
    """Unordered endpoint pair addressing both directions of a flow.

    ``lo`` and ``hi`` satisfy lo <= hi under (addr, port) order;
    ``forward`` records whether the observed packet traveled lo -> hi.
    A key and its reversal canonicalize to the same (lo, hi).
    """

    lo: Endpoint
    hi: Endpoint
    proto: int
    forward: bool

    def forward_key(self) -> FlowKey:
        return FlowKey(self.lo.addr, self.hi.addr, self.lo.port, self.hi.port, self.proto)

    def to_bytes(self) -> bytes:
        """26-byte serialization: the canonical directed key, then its reversal."""
        fwd = self.forward_key()
        return fwd.to_bytes() + fwd.reversed().to_bytes()


def canonicalize(key: FlowKey) -> CanonicalPair:
    """Order a key's endpoints; reversing the key flips only ``forward``.

    Self-pairs (both endpoints equal) are legal and come out forward.
    """
    a = Endpoint(key.src, key.src_port)
    b = Endpoint(key.dst, key.dst_port)
    if a <= b:
        return CanonicalPair(a, b, key.proto, True)
    return CanonicalPair(b, a, key.proto, False)


@dataclass(frozen=True)
class PacketRecord:
    """One observed packet event.

    ``seq`` is a per-flow logical packet index (1, 2, 3, ...), not a TCP
    byte offset; ``ack`` is 0 when absent. ``ts`` is integer nanoseconds.
    """

    key: FlowKey
    ptype: PacketType
    seq: int
    ack: int
    ts: int
    size: int

    def to_text(self) -> str:
        """Comma-separated form with hex endpoints, for hand-written fixtures."""
        k = self.key
        return (f"{k.src:08x},{k.dst:08x},{k.src_port},{k.dst_port},{k.proto},"
                f"{self.ptype.name},{self.seq},{self.ack},{self.ts},{self.size}")

    @classmethod
    def from_text(cls, line: str) -> "PacketRecord":
        parts = line.strip().split(",")
        if len(parts) != 10:
            raise ValueError(f"expected 10 comma-separated fields, got {len(parts)}")
        src, dst = int(parts[0], 16), int(parts[1], 16)
        sport, dport, proto = int(parts[2]), int(parts[3]), int(parts[4])
        name = parts[5].strip().upper()
        ptype = PacketType[name] if name in PacketType.__members__ else PacketType(int(parts[5]))
        return cls(FlowKey(src, dst, sport, dport, proto), ptype,
                   int(parts[6]), int(parts[7]), int(parts[8]), int(parts[9]))
