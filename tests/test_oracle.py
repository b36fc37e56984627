import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from flowsift.oracle import (RtxStats, _groups, oracle_loss, oracle_ooo, oracle_rtt,
                             oracle_rtx, top_keys)
from flowsift.packets import PacketRecord, PacketType, TypeFilter, canonicalize
from flowsift.traceio import Trace

from conftest import data_packet, flow_stream, make_key

MS = 1_000_000


def test_rtt_single_pair():
    key = make_key(0)
    trace = Trace.from_records([
        PacketRecord(key, PacketType.SYN, 1, 0, 10_000, 60),
        PacketRecord(key.reversed(), PacketType.SYNACK, 0, 1, 25_000, 60),
    ])
    assert oracle_rtt(trace) == {canonicalize(key).to_bytes(): 15}


def test_rtt_empty_trace():
    assert oracle_rtt(Trace.empty()) == {}


def test_rtt_unmatched_request_modes_differ():
    key = make_key(1)
    trace = Trace.from_records([
        PacketRecord(key, PacketType.SYN, 1, 0, 40_000, 60),
    ])
    assert canonicalize(key).to_bytes() not in oracle_rtt(trace)   # only matched pairs count


def test_loss_missing_middle_id():
    trace = Trace.from_records(flow_stream(make_key(0), [1, 3]))
    assert oracle_loss(trace) == {make_key(0).to_bytes(): 1}


def test_loss_complete_flow_absent_from_map():
    trace = Trace.from_records(flow_stream(make_key(0), range(1, 11)))
    assert oracle_loss(trace) == {}


def test_ooo_basic_and_monotone():
    key = make_key(0)
    trace = Trace.from_records([data_packet(key, s, t, 100)
                                for s, t in ((1, 0), (3, MS), (2, 2 * MS))])
    assert oracle_ooo(trace) == {key.to_bytes(): 100}
    mono = Trace.from_records(flow_stream(key, range(1, 10)))
    assert oracle_ooo(mono) == {}


def test_ooo_window_expiry_resets():
    key = make_key(0)
    trace = Trace.from_records([data_packet(key, s, t, 100)
                                for s, t in ((1, 0), (3, MS), (2, 7 * MS))])
    assert oracle_ooo(trace, window_ns=3 * MS) == {}


def test_ooo_matches_sequential_reference(rng):
    # mixed gap pattern: some flows restart their session, some never do
    records = []
    for fi in range(20):
        key = make_key(fi)
        now = int(rng.integers(0, MS))
        for i in range(60):
            seq = int(rng.integers(1, 30))
            now += int(rng.integers(1, 2 * MS))
            records.append(data_packet(key, seq, now, 1))
    records.sort(key=lambda p: p.ts)
    got = oracle_ooo(Trace.from_records(records), 3 * MS, "packets")
    ref = {}
    state = {}
    for p in records:
        kb = p.key.to_bytes()
        prev = state.get(kb)
        if prev is not None and p.ts - prev[1] <= 3 * MS:
            if p.seq <= prev[0]:
                ref[kb] = ref.get(kb, 0) + 1
                state[kb] = (prev[0], p.ts)
            else:
                state[kb] = (p.seq, p.ts)
        else:
            state[kb] = (p.seq, p.ts)
    assert got == {k: v for k, v in ref.items() if v}


def test_rtx_counts():
    key = make_key(0)
    twice = Trace.from_records(flow_stream(key, [1, 1, 2, 2, 3, 3]))
    stats = oracle_rtx(twice)[key.to_bytes()]
    assert stats == RtxStats(6, 3, 2.0)
    clean = Trace.from_records(flow_stream(key, range(1, 7)))
    assert oracle_rtx(clean)[key.to_bytes()].avg_retransmissions == 1.0


def test_top_keys_edges():
    keys = np.frombuffer(b"abcde", dtype="V1")
    values = np.array([5, 9, 9, 1, 0])      # a zero value is never relevant
    assert top_keys(keys, values, 0) == []
    assert top_keys(keys, values, 99) == [b"b", b"c", b"a", b"d"]
    assert top_keys(keys, values, 2) == [b"b", b"c"]


def test_order_invariance_for_rtt_loss_rtx(rng):
    records = []
    for fi in range(10):
        key = make_key(fi)
        records += flow_stream(key, rng.permutation(np.arange(1, 30)).tolist(),
                               start_ts=fi * 100)
        records.append(PacketRecord(key, PacketType.SYN, 1, 0, fi * 7, 60))
        records.append(PacketRecord(key.reversed(), PacketType.SYNACK, 0, 1,
                                    fi * 7 + 1500, 60))
    trace = Trace.from_records(records)
    # interleave flows differently while preserving each flow's own order
    shuffled = trace.time_sorted()
    assert oracle_loss(trace) == oracle_loss(shuffled)
    assert oracle_rtx(trace) == oracle_rtx(shuffled)
    assert oracle_rtt(trace) == oracle_rtt(shuffled)


def test_ooo_is_order_sensitive():
    key = make_key(0)
    in_order = Trace.from_records([data_packet(key, s, t)
                                   for s, t in ((1, 0), (2, MS), (3, 2 * MS))])
    swapped = Trace.from_records([data_packet(key, s, t)
                                  for s, t in ((1, 0), (3, MS), (2, 2 * MS))])
    assert oracle_ooo(in_order) != oracle_ooo(swapped)


# -- vector oracles against per-flow pure-Python references -----------------

WINDOW = 10

stream_st = st.lists(st.tuples(st.integers(0, 3),                 # flow
                               st.sampled_from(list(PacketType)),
                               st.booleans(),                      # sent by the receiver
                               st.integers(0, 6),                  # seq
                               st.integers(0, 2 * WINDOW),         # gap since the last packet
                               st.integers(1, 1500)),              # size
                     max_size=60)


def build_stream(rows) -> list[PacketRecord]:
    records, now = [], 0
    for flow, ptype, back, seq, gap, size in rows:
        now += gap
        key = make_key(flow).reversed() if back else make_key(flow)
        records.append(PacketRecord(key, ptype, seq, 0, now, size))
    return records


def data_flows(records) -> dict[bytes, list[PacketRecord]]:
    flows: dict[bytes, list[PacketRecord]] = {}
    for p in records:
        if p.ptype == PacketType.DATA:
            flows.setdefault(p.key.to_bytes(), []).append(p)
    return flows


def loss_reference(records) -> dict[bytes, int]:
    out = {}
    for key, packets in data_flows(records).items():
        seqs = [p.seq for p in packets]
        if max(seqs) - len(set(seqs)) > 0:
            out[key] = max(seqs) - len(set(seqs))
    return out


def rtx_reference(records) -> dict[bytes, RtxStats]:
    out = {}
    for key, packets in data_flows(records).items():
        n, d = len(packets), len({p.seq for p in packets})
        out[key] = RtxStats(n, d, n / d)
    return out


def ooo_reference(records, window_ns: int, weight_mode: str) -> dict[bytes, int]:
    """A packet counts when its id is at or below the flow's max id since
    the last gap longer than the window; such a gap restarts the max."""
    out = {}
    for key, packets in data_flows(records).items():
        total, top, last = 0, 0, None
        for p in packets:
            if last is None or p.ts - last > window_ns:
                top = p.seq
            elif p.seq <= top:
                total += p.size if weight_mode == "bytes" else 1
            else:
                top = p.seq
            last = p.ts
        if total:
            out[key] = total
    return out


def rtt_reference(records, type_filter, unit: int):
    """The FIFO-matched response-minus-request sum per canonical pair."""
    requests: dict[bytes, list[int]] = {}
    responses: dict[bytes, list[int]] = {}
    for p in records:
        if p.ptype not in type_filter.requests | type_filter.responses:
            continue
        side = responses if p.ptype in type_filter.responses else requests
        side.setdefault(canonicalize(p.key).to_bytes(), []).append(p.ts // unit)
    matched = {}
    for key in requests.keys() | responses.keys():
        req, rsp = requests.get(key, []), responses.get(key, [])
        n = min(len(req), len(rsp))
        if sum(rsp[:n]) - sum(req[:n]):
            matched[key] = sum(rsp[:n]) - sum(req[:n])
    return matched


@given(stream_st)
@example([])
def test_loss_and_rtx_match_per_flow_reference(rows):
    records = build_stream(rows)
    trace = Trace.from_records(records)
    assert oracle_loss(trace) == loss_reference(records)
    assert oracle_rtx(trace) == rtx_reference(records)


@given(stream_st, st.sampled_from([0, WINDOW, 3 * WINDOW]),
       st.sampled_from(["bytes", "packets"]))
@example([], WINDOW, "bytes")
def test_ooo_matches_per_flow_reference(rows, window_ns, weight_mode):
    records = build_stream(rows)
    got = oracle_ooo(Trace.from_records(records), window_ns, weight_mode)
    assert got == ooo_reference(records, window_ns, weight_mode)


@given(stream_st, st.sampled_from(["syn", "data", "all"]), st.integers(1, 7))
@example([], "all", 1)
def test_rtt_matches_per_pair_reference(rows, filter_name, unit):
    records = build_stream(rows)
    type_filter = TypeFilter.named(filter_name)
    got = oracle_rtt(Trace.from_records(records), type_filter, time_unit_ns=unit)
    assert got == rtt_reference(records, type_filter, unit)


def check_groups(matrix):
    """``_groups`` against the stable argsort of the rows' void view."""
    view = np.ascontiguousarray(matrix).view((np.void, matrix.shape[1])).ravel()
    reference = np.argsort(view, kind="stable")
    ordered = view[reference].tolist()
    order, starts, keys = _groups(matrix)
    assert order.tolist() == reference.tolist()
    assert starts.tolist() == [i for i in range(len(ordered))
                               if i == 0 or ordered[i] != ordered[i - 1]]
    assert keys.tolist() == sorted(set(ordered))


@st.composite
def shared_prefix_keys(draw):
    """Rows of 13- or 26-byte keys that all start with the same bytes and
    differ only from byte ``first`` on (8, the last byte, or 5 to straddle
    the radix digits), with rows repeated."""
    width = draw(st.sampled_from([13, 26]))
    first = draw(st.sampled_from([8, width - 1, 5]))
    base = draw(st.binary(min_size=width, max_size=width))
    keys = []
    for edits in draw(st.lists(st.lists(st.tuples(st.integers(first, width - 1),
                                                  st.integers(0, 255)), max_size=3),
                               min_size=1, max_size=6)):
        key = bytearray(base)
        for pos, value in edits:
            key[pos] = value
        keys.append(bytes(key))
    rows = draw(st.lists(st.sampled_from(keys), max_size=60))
    return np.frombuffer(b"".join(rows), dtype=np.uint8).reshape(-1, width)


@given(shared_prefix_keys())
def test_groups_match_stable_argsort_of_key_bytes(matrix):
    check_groups(matrix)


@pytest.mark.parametrize("rows", [300, 70_000])   # 6- and 5-byte radix digits
@pytest.mark.parametrize("width", [13, 26])
def test_groups_match_stable_argsort_at_wider_row_counts(rows, width):
    rng = np.random.default_rng(rows + width)
    keys = np.tile(rng.integers(0, 256, width, dtype=np.uint8), (40, 1))
    keys[:, -6:] = rng.integers(0, 4, (40, 6))      # a shared prefix, a small tail
    check_groups(keys[rng.integers(0, 40, rows)])
