import numpy as np
import pytest

from flowsift.retransmit import DistinctEstimator, RetransmitDetector
from flowsift.traceio import Trace

from conftest import data_packet, flow_stream, make_key


def stream_detector(packets, **kw) -> RetransmitDetector:
    det = RetransmitDetector(buckets=512, rows=5, **kw)
    for p in packets:
        det.observe(p)
    return det


def test_estimator_empty_is_zero():
    assert DistinctEstimator(256, seed=1).estimate() == 0.0


def test_estimator_monotone_under_insertions(rng):
    est = DistinctEstimator(256, seed=2)
    prev = 0.0
    for v in rng.integers(0, 5000, 3000):
        est.add_batch(np.array([v], dtype=np.uint64))
        now = est.estimate()
        assert now >= prev
        prev = now


def test_estimator_factor_two_contract():
    # within a factor 2 in >= 90 of 100 seeds at each cardinality
    for true in (100, 1000, 10_000):
        good = 0
        for seed in range(100):
            est = DistinctEstimator(256, seed=seed)
            est.add_batch(np.arange(true, dtype=np.uint64))
            if true / 2 <= est.estimate() <= true * 2:
                good += 1
        assert good >= 90, f"cardinality {true}: {good}/100"


def test_estimator_register_count_validated():
    with pytest.raises(ValueError):
        DistinctEstimator(100)
    with pytest.raises(ValueError):
        DistinctEstimator(8)


def test_single_flow_tracked_and_ratio_near_one():
    key = make_key(0)
    det = stream_detector(flow_stream(key, range(1, 101)), epsilon=0.1, run_seed=1)
    flow = det.tracked[key.to_bytes()]
    assert 0.5 <= flow.ratio() <= 2.0


def test_triple_sent_flow_reported_at_k3():
    key = make_key(0)
    seqs = [s for s in range(1, 201) for _ in range(3)]
    det = stream_detector(flow_stream(key, seqs), epsilon=0.1, run_seed=2)
    report = det.report(3.0)
    assert report.keys() == [key.to_bytes()]
    assert report.entries[0][1] >= 0.75


def test_duplicate_free_flow_not_reported_at_k12():
    # reported ratio for a clean flow is ~1 (at most ~2 with a worst-case
    # estimator draw); k=12 puts the bar at 3
    hits = 0
    for seed in range(20):
        key = make_key(seed)
        det = stream_detector(flow_stream(key, range(1, 501)),
                              epsilon=0.1, run_seed=seed)
        if det.report(12.0).keys():
            hits += 1
    assert hits <= 2


def test_elephant_tracked_by_half_threshold():
    # single elephant: tracked no later than its (eps/2 * T)-th packet
    key = make_key(0)
    det = RetransmitDetector(buckets=512, rows=5, epsilon=0.2, run_seed=3)
    tracked_at = None
    for i, p in enumerate(flow_stream(key, range(1, 201))):
        det.observe(p)
        if tracked_at is None and key.to_bytes() in det.tracked:
            tracked_at = i + 1
    assert tracked_at is not None
    assert tracked_at <= max(1, int(0.1 * det.total))


def test_tracking_discontinued_when_estimate_sinks():
    heavy = make_key(0)
    det = RetransmitDetector(buckets=1 << 12, rows=5, epsilon=0.05, run_seed=4)
    for p in flow_stream(heavy, range(1, 51)):
        det.observe(p)
    assert heavy.to_bytes() in det.tracked
    # bury it: tail traffic dilutes the flow below eps/4 of the total,
    # and the periodic sweep notices even though the flow went silent
    for i in range(8000):
        det.observe(data_packet(make_key(i + 1), 1, 100_000 + i))
    assert heavy.to_bytes() not in det.tracked


def test_report_empty_without_tracked_flows():
    det = RetransmitDetector(buckets=256, rows=3, epsilon=0.5)
    assert det.report(3.0).entries == []


def test_zero_distinct_ratio_guard():
    det = RetransmitDetector(buckets=256, rows=3, epsilon=0.5, run_seed=5)
    from flowsift.retransmit import TrackedFlow
    flow = TrackedFlow(b"x" * 13, 0, registers=256, instances=3, seed=1)
    assert flow.ratio() == 0.0


def test_report_requires_k_above_one():
    det = RetransmitDetector(buckets=256, rows=3, epsilon=0.5)
    with pytest.raises(ValueError):
        det.report(1.0)


def test_report_sorted_by_ratio_descending():
    packets = []
    for i, reps in enumerate((4, 2, 3)):
        key = make_key(i)
        seqs = [s for s in range(1, 301) for _ in range(reps)]
        packets += flow_stream(key, seqs, start_ts=i)
    packets.sort(key=lambda p: p.ts)
    det = stream_detector(packets, epsilon=0.05, run_seed=6)
    ratios = [v for _, v in det.report(2.0).entries]
    assert ratios == sorted(ratios, reverse=True)
    assert len(ratios) == 3


def test_capacity_evicts_weakest(rng):
    det = RetransmitDetector(buckets=1 << 12, rows=5, epsilon=0.4,
                             capacity_slack=0, run_seed=7)
    # capacity = 2/eps = 5; feed 8 equal flows round-robin
    packets = []
    for i in range(8):
        packets += flow_stream(make_key(i), range(1, 40), start_ts=i)
    packets.sort(key=lambda p: p.ts)
    for p in packets:
        det.observe(p)
    assert len(det.tracked) <= 5


def test_batch_matches_scalar_semantics():
    packets = []
    for i in range(6):
        seqs = [s for s in range(1, 101) for _ in range((i % 2) + 1)]
        packets += flow_stream(make_key(i), seqs, start_ts=i)
    packets.sort(key=lambda p: p.ts)
    trace = Trace.from_records(packets)
    d1 = RetransmitDetector(buckets=512, rows=5, epsilon=0.02, run_seed=8)
    d1.observe_trace(trace, chunk=64)
    d2 = stream_detector(packets, epsilon=0.02, run_seed=8)
    assert set(d1.tracked) == set(d2.tracked)
    for key in d1.tracked:
        assert abs(d1.tracked[key].ratio() - d2.tracked[key].ratio()) < 0.25


def test_timestamps_going_back_are_rejected():
    rng = np.random.default_rng(5)
    records = [data_packet(make_key(i % 20), i // 20 + 1, i * 1000)
               for i in range(400)]
    trace = Trace.from_records(records)
    det = RetransmitDetector(buckets=512, rows=5, epsilon=0.1)
    with pytest.raises(ValueError, match="time-sorted"):
        det.observe_trace(trace.select(rng.permutation(len(trace))))
    assert det.total == 0
    det.observe_trace(trace.select(np.arange(200, 400)))
    with pytest.raises(ValueError, match="time-sorted"):
        det.observe_trace(trace.select(np.arange(200)))
    with pytest.raises(ValueError, match="time-sorted"):
        det.observe(records[0])
