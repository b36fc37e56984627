import hashlib

import numpy as np
import pytest
from hypothesis import given, strategies as st

from flowsift import hashing
from flowsift.packets import KEY_BYTES, PacketRecord, PacketType
from flowsift.retransmit import DistinctEstimator, RetransmitDetector, _bit_length
from flowsift.traceio import Trace, check_time_order

from conftest import data_packet, flow_stream, make_key


def stream_detector(packets, **kw) -> RetransmitDetector:
    """A detector fed the packets as one trace, admitting per packet."""
    det = RetransmitDetector(buckets=512, rows=5, **kw)
    det.observe_trace(Trace.from_records(packets), chunk=1)
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
    det.observe_trace(Trace.from_records(flow_stream(key, range(1, 201), gap_ns=1000)),
                      chunk=1)
    # a lone flow is never dropped once tracked, and it is tracked since the
    # timestamp of the packet that got it admitted, the i-th at (i - 1) us
    flow = det.tracked.get(key.to_bytes())
    tracked_at = None if flow is None else flow.since_ts // 1000 + 1
    assert tracked_at is not None
    assert tracked_at <= max(1, int(0.1 * det.table.total_l1))


def test_tracking_discontinued_when_estimate_sinks():
    heavy = make_key(0)
    det = RetransmitDetector(buckets=1 << 12, rows=5, epsilon=0.05, run_seed=4)
    det.observe_trace(Trace.from_records(flow_stream(heavy, range(1, 51))), chunk=1)
    assert heavy.to_bytes() in det.tracked
    # bury it: tail traffic dilutes the flow below eps/4 of the total,
    # and the periodic sweep notices even though the flow went silent
    det.observe_trace(Trace.from_records(
        [data_packet(make_key(i + 1), 1, 100_000 + i) for i in range(8000)]), chunk=1)
    assert heavy.to_bytes() not in det.tracked


def test_memory_counts_buffered_ids_until_report():
    # add_batch folds the buffered ids into the registers once they number
    # the register count, so fewer than that wait for report()
    key = make_key(0)
    det = stream_detector(flow_stream(key, [s for s in range(1, 201) for _ in range(3)]),
                          epsilon=0.1, run_seed=2)
    flow = det.tracked[key.to_bytes()]
    pending = sum(len(ids) for ids in flow._pending)
    assert flow.n > det.registers > pending > 0
    buffered = det.memory_bytes()
    det.report(3.0)          # flushes every buffered id into the registers
    assert not flow._pending
    assert buffered == det.memory_bytes() + 8 * pending
    assert det.memory_bytes() == (det.rows * det.buckets * 4
                                  + 13 + 8 + 8 + det.registers * det.instances)


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
    det.observe_trace(Trace.from_records(packets), chunk=1)
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
    d2 = RetransmitDetector(buckets=512, rows=5, epsilon=0.02, run_seed=8)
    for p in packets:
        d2.observe_trace(Trace.from_records([p]), chunk=1)
    assert set(d1.tracked) == set(d2.tracked)
    for key in d1.tracked:
        assert abs(d1.tracked[key].ratio() - d2.tracked[key].ratio()) < 0.25


def test_timestamps_going_back_are_rejected():
    # every fifth record is an ACK, skipped, so a rejected trace that got
    # as far as counting its skipped records would show in ``skipped``
    rng = np.random.default_rng(5)
    records = [data_packet(make_key(i % 20), i // 20 + 1, i * 1000) if i % 5 else
               PacketRecord(make_key(i % 20).reversed(), PacketType.ACK, 0, 1, i * 1000, 40)
               for i in range(400)]
    trace = Trace.from_records(records)
    det = RetransmitDetector(buckets=512, rows=5, epsilon=0.1)

    def rejected(call, *args):
        state = (det.skipped, det.table.total_l1, det.table.counters.copy())
        with pytest.raises(ValueError, match="time-sorted"):
            call(*args)
        assert (det.skipped, det.table.total_l1) == state[:2]
        assert (det.table.counters == state[2]).all()

    rejected(det.observe_trace, trace.select(rng.permutation(len(trace))))
    assert det.table.total_l1 == 0
    det.observe_trace(trace.select(np.arange(200, 400)))
    assert (det.skipped, det.table.total_l1) == (40, 160)
    rejected(det.observe_trace, trace.select(np.arange(200)))
    rejected(det.observe_trace, Trace.from_records([records[1]]))


def _check_bit_length(values):
    got = _bit_length(np.array(values, dtype=np.uint64)).tolist()
    assert got == [v.bit_length() for v in values]


def test_registers_are_pinned():
    # pinned from the per-instance hashing, so any change to the register
    # hashing that moves one byte fails
    est = DistinctEstimator(1024, seed=7)
    est.add_batch(np.arange(1, 5001, dtype=np.uint64))
    est.add_batch(np.array([2**64 - 1, 0, 2**63], dtype=np.uint64))
    assert hashlib.sha256(est.registers.tobytes()).hexdigest() == \
        "2675c1ea9764fb308c2cde7553703ae5a679dca70e6b757e47a84f4d4c9680c0"


@given(st.lists(st.lists(st.integers(0, (1 << 64) - 1), max_size=40), max_size=4),
       st.sampled_from([16, 256, 1024]), st.integers(1, 4), st.integers(0, (1 << 64) - 1))
def test_stacked_flush_matches_one_add_batch_per_instance(batches, registers, instances,
                                                          seed):
    from flowsift.retransmit import TrackedFlow
    flow = TrackedFlow(b"k" * KEY_BYTES, 0, registers=registers, instances=instances,
                       seed=seed)
    alone = [DistinctEstimator(registers, seed=seed ^ flow.fold ^ (i * hashing.GOLDEN64))
             for i in range(instances)]
    for batch in batches:
        values = np.array(batch, dtype=np.uint64)
        flow.add_batch(values)
        for est in alone:
            est.add_batch(values)
    flow.distinct()                     # flushes the buffered ids
    for est, ref in zip(flow.estimators, alone):
        assert est.registers.tobytes() == ref.registers.tobytes()


def test_bit_length_at_powers_of_two_and_float_rounding_edges():
    # above 2^53 a float64 can round a value up to the next power of two
    values = [0, 2**64 - 1, 2**64 - 2, 2**64 - 2**11, 2**64 - 2**11 - 1]
    values += [v for k in range(1, 64) for v in (2**k - 1, 2**k, 2**k + 1)]
    values += [2**53 + d for d in range(-8, 9)] + [2**54 + d for d in range(-8, 9)]
    _check_bit_length(values)


@given(st.lists(st.integers(0, 2**64 - 1), max_size=50))
def test_bit_length_matches_int_bit_length(values):
    _check_bit_length(values)


class VisitEveryFlow(RetransmitDetector):
    """Reference: the chunk loop that visits every distinct flow of a chunk."""

    def observe_trace(self, trace: Trace, chunk: int = 4096) -> None:
        data = trace.select(trace.ptype == int(PacketType.DATA))
        check_time_order(data.ts, self._last_ts, "retransmission detection")
        self.skipped += len(trace) - len(data)
        if len(data) == 0:
            return
        self._last_ts = int(data.ts[-1])
        keys = data.key_matrix()
        folds = hashing.fold64_matrix(keys)
        key_blob = keys.tobytes()
        seqs = data.seq.astype(np.uint64)
        stamps = data.ts
        for lo in range(0, len(data), chunk):
            hi = min(lo + chunk, len(data))
            chunk_folds = folds[lo:hi]
            self.table.update_batch(chunk_folds, np.ones(hi - lo, dtype=np.int64))
            order = np.argsort(chunk_folds, kind="stable")
            uniq, starts = np.unique(chunk_folds[order], return_index=True)
            bounds = np.append(starts, hi - lo)
            estimates = self.table.estimate_batch(uniq)
            admit_thr = self.epsilon / 2.0 * self.table.total_l1
            chunk_seqs = seqs[lo:hi]
            self._sweep()
            for u, est in enumerate(estimates.tolist()):
                i = lo + int(order[starts[u]])
                key = key_blob[i * KEY_BYTES:(i + 1) * KEY_BYTES]
                flow = self.tracked.get(key)
                if flow is None and est >= admit_thr:
                    self._admit(key, est, int(stamps[i]))
                    flow = self.tracked.get(key)
                if flow is not None:
                    flow.add_batch(chunk_seqs[order[starts[u]:bounds[u + 1]]])


# bursts of (key index, packets, first id, gap to the previous packet): few
# keys and repeated ids. A burst can get a flow admitted early and later
# ones dilute it below the admission threshold while it stays tracked.
rtx_bursts_st = st.lists(st.tuples(st.integers(0, 7), st.integers(1, 12), st.integers(0, 5),
                                   st.integers(0, 3)), min_size=1, max_size=30)


@given(rtx_bursts_st, st.integers(1, 64), st.integers(0, 150), st.integers(0, 2**16))
def test_chunk_loop_matches_visit_every_flow_reference(bursts, chunk, cut, run_seed):
    # epsilon 0.5 with no slack: capacity 4, admission at a quarter and
    # discontinuation at an eighth of the total, so admissions, capacity
    # evictions and sweeps all occur
    records, ts = [], 0
    for k, size, first, gap in bursts:
        for j in range(size):
            ts += gap
            records.append(data_packet(make_key(k), first + j // 2, ts))
    trace = Trace.from_records(records)
    shape = dict(buckets=8, rows=3, run_seed=run_seed, epsilon=0.5, capacity_slack=0,
                 registers=16)
    det, ref = RetransmitDetector(**shape), VisitEveryFlow(**shape)
    for part in (np.arange(min(cut, len(trace))), np.arange(min(cut, len(trace)), len(trace))):
        det.observe_trace(trace.select(part), chunk=chunk)
        ref.observe_trace(trace.select(part), chunk=chunk)
    assert list(det.tracked) == list(ref.tracked)
    assert det.table.total_l1 == ref.table.total_l1
    assert det.report(1.5).entries == ref.report(1.5).entries
    for key, flow in det.tracked.items():
        other = ref.tracked[key]
        assert (flow.n, flow.since_ts) == (other.n, other.since_ts)
        for est, other_est in zip(flow.estimators, other.estimators, strict=True):
            assert est.registers.tolist() == other_est.registers.tolist()
