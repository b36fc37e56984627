import hashlib

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from flowsift.packets import FlowKey, PacketRecord, PacketType, canonicalize
from flowsift.traceio import (RECORD_DTYPE, Trace, load_trace, read_trace,
                              read_trace_text, stable_order, write_trace,
                              write_trace_text)

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
    assert FlowKey(0, 0).to_bytes() == b"\x00" * 13
    pair = canonicalize(FlowKey(1, 2, 3, 4, 6))
    assert len(pair.to_bytes()) == 26


def test_key_bytes_distinct_keys_distinct_bytes():
    a = FlowKey(1, 2, 3, 4, 6)
    b = FlowKey(1, 2, 3, 4, 17)
    assert a.to_bytes() != b.to_bytes()


def test_key_bytes_injective_and_round_trip_100k(rng):
    raws = random_keys(rng, 100_000)
    assert len(set(raws)) == len(raws)
    for raw in raws[::97]:
        assert FlowKey.from_bytes(raw).to_bytes() == raw


def test_record_text_round_trip():
    rec = PacketRecord(FlowKey(0xDEADBEEF, 0x0A0B0C0D, 443, 51000, 6),
                       PacketType.DATA, 17, 0, 999, 1500)
    line = rec.to_text()
    assert line.startswith("deadbeef,0a0b0c0d,")
    assert PacketRecord.from_text(line) == rec


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


@given(st.integers(0, 30), st.data())
def test_select_matches_fancy_index(n, data):
    arr = np.zeros(n, dtype=RECORD_DTYPE)
    arr["seq"] = np.arange(n)
    ends = st.none() | st.integers(-n - 2, n + 2)
    rows = data.draw(st.one_of(
        st.builds(slice, ends, ends, st.none() | st.sampled_from([1, 2, 3, -1, -2])),
        st.lists(st.booleans(), min_size=n, max_size=n).map(
            lambda bits: np.array(bits, dtype=bool)),
        st.lists(st.integers(-n, n - 1) if n else st.nothing(), max_size=2 * n)))
    picked = Trace(arr).select(rows)
    assert picked.arr.tobytes() == arr[rows].tobytes()
    if isinstance(rows, slice):
        assert picked.arr.base is arr           # the gate loop's chunks are views


def test_select_rejects_a_mask_of_another_length(small_trace):
    with pytest.raises(IndexError):
        small_trace.select(np.ones(len(small_trace) - 1, dtype=bool))


# ts, src, dst, sport, dport, ptype, seq over tiny ranges force ties at every
# level; proto, ack and size tell fully tied records apart
_SORT_COLUMNS = ("ts", "src", "dst", "sport", "dport", "ptype", "seq", "proto", "ack", "size")


# timestamps near 0 or near 2^64: a trace of one kind takes the packed sort,
# a trace mixing both spans 64 bits and takes the stable-argsort fallback
_TIMESTAMPS = st.one_of(st.integers(0, 20), st.integers((1 << 64) - 21, (1 << 64) - 1))


@given(st.lists(st.tuples(_TIMESTAMPS, *(st.integers(0, 2) for _ in range(6)),
                          st.integers(0, 255), st.integers(0, 9), st.integers(0, 9)),
                max_size=40),
       st.lists(st.integers(0, 39), max_size=8))
def test_time_sorted_matches_seven_column_lexsort(rows, duplicates):
    arr = np.zeros(len(rows), dtype=RECORD_DTYPE)
    for j, col in enumerate(_SORT_COLUMNS):
        arr[col] = [row[j] for row in rows]
    arr = np.concatenate([arr, arr[[i for i in duplicates if i < len(arr)]]])
    reference = arr[np.lexsort((arr["seq"], arr["ptype"], arr["dport"], arr["sport"],
                                arr["dst"], arr["src"], arr["ts"]))]
    assert Trace(arr).time_sorted().arr.tobytes() == reference.tobytes()


_INTEGER_RANGES = {"int64": (-(1 << 63), (1 << 63) - 1), "uint64": (0, (1 << 64) - 1)}


@st.composite
def _tied_integer_arrays(draw):
    """int64 or uint64 arrays over a pool of at most six values, so rows tie;
    the pool lies within 40 of one base value, or anywhere in the range."""
    dtype = draw(st.sampled_from(sorted(_INTEGER_RANGES)))
    low, high = _INTEGER_RANGES[dtype]
    if draw(st.booleans()):
        base = draw(st.integers(low, high - 40))
        low, high = base, base + 40
    pool = draw(st.lists(st.integers(low, high), min_size=1, max_size=6))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), max_size=80))
    return np.array([pool[i] for i in picks], dtype=dtype)


@given(_tied_integer_arrays())
@example(np.array([0, (1 << 64) - 1, 0, (1 << 64) - 1, 7], dtype=np.uint64))  # 64-bit span
@example(np.array([0, (1 << 63) - 1], dtype=np.uint64))   # 63 + 1 bits: packed
@example(np.array([1 << 63, 0], dtype=np.uint64))         # 64 + 1 bits: fallback
@example(np.array([-(1 << 63), (1 << 63) - 1, -1, 0, -(1 << 63)], dtype=np.int64))
@example(np.array([-5, 3, -5, 1 << 40, -(1 << 40), 3], dtype=np.int64))
@example(np.array([], dtype=np.int64))
@example(np.array([], dtype=np.uint64))
@example(np.array([(1 << 64) - 1], dtype=np.uint64))
@example(np.array([-3], dtype=np.int64))
def test_stable_order_matches_stable_argsort(values):
    order = stable_order(values)
    assert order.dtype == np.intp
    assert order.tolist() == np.argsort(values, kind="stable").tolist()


def test_sha256_is_digest_of_file_bytes(tmp_path, small_trace):
    for trace in (small_trace, small_trace.select(slice(None, None, 2)), Trace.empty()):
        path = tmp_path / "t.lmt"
        write_trace(trace, path)
        assert trace.sha256() == hashlib.sha256(path.read_bytes()).hexdigest()


def test_trace_records_are_read_only(small_trace):
    views = (small_trace, small_trace.select(slice(1, 5)), small_trace.select([0, 2]))
    for trace in views:
        with pytest.raises(ValueError):
            trace.ts[0] = 1
        with pytest.raises(ValueError):
            trace.arr["seq"] = 0
    assert small_trace.to_od_pairs().sport.tolist() == [0] * len(small_trace)


def test_sha256_is_kept_only_while_no_writable_array_reaches_the_records(small_trace):
    arr = small_trace.arr.copy()
    trace = Trace(arr[:])              # arr itself stays writable
    before = trace.sha256()
    arr["size"] += 1
    assert trace.sha256() != before
    assert trace.sha256() == Trace(arr.copy()).sha256()
    sealed = Trace(arr.copy())
    assert sealed.sha256() == sealed.sha256() == trace.sha256()
    assert sealed._sha256 is not None and trace._sha256 is None
