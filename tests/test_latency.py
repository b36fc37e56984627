import pytest

from flowsift.latency import LatencyDetector
from flowsift.packets import FlowKey, PacketRecord, PacketType, TypeFilter, canonicalize
from flowsift.traceio import Trace

from conftest import make_key


def handshake(key: FlowKey, syn_ts: int, synack_ts: int):
    return [PacketRecord(key, PacketType.SYN, 1, 0, syn_ts, 60),
            PacketRecord(key.reversed(), PacketType.SYNACK, 0, 1, synack_ts, 60)]


def pair_estimate(det: LatencyDetector, key: FlowKey) -> int:
    return det.table.estimate(canonicalize(key).to_bytes())


def test_single_pair_estimate_is_rtt():
    det = LatencyDetector(buckets=64, rows=5, run_seed=1, time_unit_ns=1000)
    key = make_key(0)
    det.observe_trace(Trace.from_records(handshake(key, 10_000, 25_000)))
    assert abs(pair_estimate(det, key)) == 15


def test_unmatched_syn_estimates_its_own_timestamp():
    det = LatencyDetector(buckets=64, rows=5, run_seed=2, time_unit_ns=1000)
    key = make_key(1)
    det.observe_trace(Trace.from_records([PacketRecord(key, PacketType.SYN, 1, 0, 40_000, 60)]))
    assert abs(pair_estimate(det, key)) == 40


def test_hundred_flows_exact_with_no_collisions():
    # B >> flows: the median across rows shrugs off any lone collision
    det = LatencyDetector(buckets=1 << 15, rows=5, run_seed=3)
    expected, records = {}, []
    for i in range(100):
        key = make_key(i)
        base = 100_000 * (i + 1)
        records += handshake(key, base, base + 1_000 * (i + 1))
        expected[canonicalize(key).to_bytes()] = i + 1
    det.observe_trace(Trace.from_records(records))
    for key, rtt in expected.items():
        assert abs(det.table.estimate(key)) == rtt


def test_type_filter_skips_and_counts():
    det = LatencyDetector(buckets=64, rows=3, run_seed=4)
    det.observe_trace(Trace.from_records([PacketRecord(make_key(2), PacketType.DATA, 1, 0,
                                                       1000, 100)]))
    assert det.skipped == 1
    assert not det.table.counters.any()


def test_direction_antisymmetry():
    records = []
    for i in range(50):
        records += handshake(make_key(i), 10_000 * i + 1000, 10_000 * i + 3500)
    fwd = Trace.from_records(records)
    swapped = fwd.arr.copy()
    swapped["src"], swapped["dst"] = fwd.arr["dst"], fwd.arr["src"]
    swapped["sport"], swapped["dport"] = fwd.arr["dport"], fwd.arr["sport"]
    # swap roles too: SYN <-> SYNACK so the filter still admits both sides
    syn = swapped["ptype"] == int(PacketType.SYN)
    synack = swapped["ptype"] == int(PacketType.SYNACK)
    swapped["ptype"][syn] = int(PacketType.SYNACK)
    swapped["ptype"][synack] = int(PacketType.SYN)
    d1 = LatencyDetector(buckets=256, rows=5, run_seed=6)
    d2 = LatencyDetector(buckets=256, rows=5, run_seed=6)
    d1.run(fwd, 1)
    d2.run(Trace(swapped), 1)
    for i in range(50):
        key = canonicalize(make_key(i)).to_bytes()
        assert abs(d1.table.estimate(key)) == abs(d2.table.estimate(key))


def test_matched_pairs_telescope_exactly():
    det = LatencyDetector(buckets=1 << 14, rows=5, run_seed=7,
                          type_filter=TypeFilter.data_ack())
    key = make_key(9)
    total, records = 0, []
    for i in range(20):
        t_req = 50_000 * (i + 1)
        rtt = 2_000 + 100 * i
        records.append(PacketRecord(key, PacketType.DATA, i + 1, 0, t_req, 100))
        records.append(PacketRecord(key.reversed(), PacketType.ACK, 0, i + 1,
                                    t_req + rtt, 40))
        total += rtt // 1000
    det.observe_trace(Trace.from_records(records))
    assert abs(pair_estimate(det, key)) == total


def test_topk_with_k_beyond_candidates():
    det = LatencyDetector(buckets=128, rows=5, run_seed=8)
    keys, records = [], []
    for i in range(5):
        key = make_key(i)
        records += handshake(key, 1000 * i, 1000 * i + 700)
        keys.append(canonicalize(key).to_bytes())
    det.observe_trace(Trace.from_records(records))
    report = det.topk(keys, k=50)
    assert len(report) == 5


def test_batch_matches_scalar(small_trace):
    d1 = LatencyDetector(buckets=128, rows=5, run_seed=10,
                         type_filter=TypeFilter.all_pairs())
    d2 = LatencyDetector(buckets=128, rows=5, run_seed=10,
                         type_filter=TypeFilter.all_pairs())
    for p in small_trace.records():
        d1.observe_trace(Trace.from_records([p]))
    d2.run(small_trace, 1)
    assert (d1.table.counters == d2.table.counters).all()
    assert d1.table.total_l1 == d2.table.total_l1


def test_total_l1_equals_sum_of_both_directions():
    # sanity probe only, never an estimate: a balanced trace leaves
    # total_l1 = sum(t_req + t_resp) in counter units
    det = LatencyDetector(buckets=64, rows=3, run_seed=11)
    expected, records = 0, []
    for i in range(10):
        syn, synack = 10_000 * (i + 1), 10_000 * (i + 1) + 2_500
        records += handshake(make_key(i), syn, synack)
        expected += syn // 1000 + synack // 1000
    det.observe_trace(Trace.from_records(records))
    assert det.table.total_l1 == expected


def test_named_filters():
    assert TypeFilter.named("syn") == TypeFilter.syn_handshake()
    assert TypeFilter.named("data") == TypeFilter.data_ack()
    assert TypeFilter.named("all") == TypeFilter.all_pairs()
    with pytest.raises(ValueError):
        TypeFilter.named("bogus")
