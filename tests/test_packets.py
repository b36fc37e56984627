import pytest

from flowsift.packets import (Epoch, FlowKey, PacketRecord, PacketType,
                              canonicalize, key_bytes)
from flowsift.traceio import (Trace, load_trace, read_trace, read_trace_text,
                              write_trace, write_trace_text)

from conftest import data_packet, make_key, random_keys


def test_canonicalize_ordered_key_is_forward():
    key = FlowKey(src=1, dst=2, src_port=10, dst_port=20, proto=6)
    pair = canonicalize(key)
    assert pair.forward is True
    assert pair.lo.addr == 1 and pair.hi.addr == 2


def test_canonicalize_reversed_key_flips_flag_only():
    key = FlowKey(src=2, dst=1, src_port=20, dst_port=10, proto=6)
    pair = canonicalize(key)
    assert pair.forward is False
    assert pair.lo.addr == 1 and pair.hi.addr == 2
    fwd = canonicalize(key.reversed())
    assert (fwd.lo, fwd.hi) == (pair.lo, pair.hi)
    assert fwd.to_bytes() == pair.to_bytes()


def test_canonicalize_self_pair_is_forward():
    key = FlowKey(src=7, dst=7, src_port=5, dst_port=5, proto=17)
    pair = canonicalize(key)
    assert pair.forward is True
    assert pair.lo == pair.hi


def test_canonicalize_idempotent_through_reversal(rng):
    for raw in random_keys(rng, 500):
        key = FlowKey.from_bytes(raw)
        a, b = canonicalize(key), canonicalize(key.reversed())
        assert (a.lo, a.hi) == (b.lo, b.hi)


def test_key_bytes_sizes_and_zero_key():
    assert key_bytes(FlowKey(0, 0)) == b"\x00" * 13
    pair = canonicalize(FlowKey(1, 2, 3, 4, 6))
    assert len(key_bytes(pair)) == 26


def test_key_bytes_distinct_keys_distinct_bytes():
    a = FlowKey(1, 2, 3, 4, 6)
    b = FlowKey(1, 2, 3, 4, 17)
    assert key_bytes(a) != key_bytes(b)


def test_key_bytes_injective_and_round_trip_100k(rng):
    raws = random_keys(rng, 100_000)
    assert len(set(raws)) == len(raws)
    for raw in raws[::97]:
        assert FlowKey.from_bytes(raw).to_bytes() == raw


def test_record_binary_round_trip():
    rec = PacketRecord(FlowKey(3, 4, 5, 6, 6), PacketType.SYNACK, 0, 9,
                       123_456_789, 60)
    assert PacketRecord.from_bytes(rec.to_bytes()) == rec
    assert len(rec.to_bytes()) == 42


def test_record_text_round_trip():
    rec = PacketRecord(FlowKey(0xDEADBEEF, 0x0A0B0C0D, 443, 51000, 6),
                       PacketType.DATA, 17, 0, 999, 1500)
    line = rec.to_text()
    assert line.startswith("deadbeef,0a0b0c0d,")
    assert PacketRecord.from_text(line) == rec


def test_epoch_rejects_out_of_range_timestamps():
    rec = PacketRecord(FlowKey(1, 2), PacketType.DATA, 1, 0, 50, 10)
    with pytest.raises(ValueError):
        Epoch(0, 50, [rec])
    assert len(Epoch(0, 51, [rec])) == 1


def test_trace_file_round_trip(tmp_path, small_trace):
    path = tmp_path / "t.lmt"
    write_trace(small_trace, path)
    back = read_trace(path)
    assert (back.arr == small_trace.arr).all()
    assert back.sha256() == small_trace.sha256()


def test_trace_text_round_trip(tmp_path, small_trace):
    path = tmp_path / "t.txt"
    write_trace_text(small_trace, path)
    back = read_trace_text(path)
    assert (back.arr == small_trace.arr).all()
    assert (load_trace(path).arr == small_trace.arr).all()


def test_read_trace_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.lmt"
    path.write_bytes(b"NOPE" + b"\x00" * 42)
    with pytest.raises(ValueError, match="magic"):
        read_trace(path)


def test_read_trace_rejects_truncated_file(tmp_path):
    path = tmp_path / "cut.lmt"
    write_trace(Trace.from_records(
        [data_packet(make_key(i % 10), i + 1, i) for i in range(1000)]), path)
    path.write_bytes(path.read_bytes()[:-17])
    with pytest.raises(ValueError, match="cut.lmt.*truncated"):
        read_trace(path)


def test_canonical_matrix_matches_scalar(small_trace):
    matrix, fwd = small_trace.canonical_matrix()
    for i in range(len(small_trace)):
        pair = canonicalize(small_trace.record(i).key)
        assert matrix[i].tobytes() == pair.to_bytes()
        assert bool(fwd[i]) == pair.forward


def test_key_matrix_matches_scalar(small_trace):
    matrix = small_trace.key_matrix()
    for i in range(len(small_trace)):
        assert matrix[i].tobytes() == small_trace.record(i).key.to_bytes()


def test_key_matrices_of_strided_trace(small_trace):
    strided = small_trace.select(slice(None, None, 2))
    matrix, fwd = strided.canonical_matrix()
    keys = strided.key_matrix()
    assert keys.flags.c_contiguous
    for i in range(len(strided)):
        key = strided.record(i).key
        assert keys[i].tobytes() == key.to_bytes()
        assert matrix[i].tobytes() == canonicalize(key).to_bytes()
        assert bool(fwd[i]) == canonicalize(key).forward
