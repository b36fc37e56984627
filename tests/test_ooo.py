from collections import deque

import numpy as np
import pytest
from hypothesis import given, strategies as st

from flowsift import hashing, ooo
from flowsift.inject import InjectionPlan, inject_reorder
from flowsift.ooo import OooDetector, RecencyCache, TopTable
from flowsift.oracle import oracle_ooo
from flowsift.packets import PacketType
from flowsift.synth import SynthConfig, synthesize
from flowsift.traceio import Trace

from conftest import data_packet, make_key

MS = 1_000_000


def observe_seqs(det, key, seq_ts_pairs, size=100):
    for seq, ts in seq_ts_pairs:
        det.observe(data_packet(key, seq, ts, size))


def test_monotone_sequence_records_nothing():
    det = OooDetector(slots=8, cache_capacity=1 << 16)
    observe_seqs(det, make_key(0), [(s, s * 100_000) for s in (1, 2, 3, 4)])
    assert det.cache.dropped == 0
    assert det.table.total_weight == 0


def test_single_reorder_within_window_counts_once():
    det = OooDetector(slots=8, cache_capacity=1 << 16)
    key = make_key(0)
    observe_seqs(det, key, [(1, 0), (3, MS), (2, 2 * MS)])
    assert det.cache.dropped == 0
    assert det.table.weight(key.to_bytes()) == 100


def test_late_arrival_after_window_resets_flow():
    det = OooDetector(slots=8, cache_capacity=1 << 16)
    key = make_key(0)
    observe_seqs(det, key, [(1, 0), (3, MS), (2, 6 * MS)])   # 5 ms gap
    assert det.cache.dropped == 0
    assert det.table.total_weight == 0
    assert det.cache.active_flows() == {key.to_bytes(): (2, 6 * MS)}


def test_duplicate_id_counts_as_out_of_order():
    det = OooDetector(slots=8, cache_capacity=1 << 16, weight_mode="packets")
    key = make_key(0)
    observe_seqs(det, key, [(1, 0), (2, MS), (2, 2 * MS)])
    assert det.cache.dropped == 0
    assert det.table.weight(key.to_bytes()) == 1


def test_non_data_packets_skipped():
    det = OooDetector(slots=8)
    det.observe_trace(Trace.from_records(
        [data_packet(make_key(0), 1, 0)]))
    from flowsift.packets import PacketRecord
    det.observe(PacketRecord(make_key(0), PacketType.ACK, 0, 1, 100, 40))
    assert det.skipped == 1


def test_topk_empty_table():
    det = OooDetector(slots=8)
    assert len(det.topk(5)) == 0


def test_single_flow_slot_weight_exact():
    det = OooDetector(slots=10, cache_capacity=1 << 16)
    key = make_key(0)
    pairs, ts = [(1, 0)], MS // 100
    for i in range(50):                       # 50 reordered packets
        pairs += [(i + 2, (2 * i + 1) * ts), (1, (2 * i + 2) * ts)]
    observe_seqs(det, key, pairs, size=64)
    assert det.cache.dropped == 0
    report = det.topk(1)
    assert report.entries[0] == (key.to_bytes(), 50 * 64.0)


def test_misra_gries_retention_fuzzed():
    # every flow above eps * P holds a slot at stream end, each trace
    for trial in range(30):
        rng = np.random.default_rng(trial)
        det = OooDetector(slots=8, cache_capacity=1 << 16, weight_mode="packets")
        truth = {}
        packets = []
        for fi in range(40):
            key = make_key(fi)
            n = int(rng.integers(2, 60))
            base = int(rng.integers(0, 1000)) * 1000
            seqs = list(range(1, n + 1))
            for i, j in enumerate(rng.integers(1, n, size=n // 4)):
                seqs.insert(int(j), 1)        # re-insert id 1: out of order
            packets += [(key, s, base + 500 * i) for i, s in enumerate(seqs)]
        packets.sort(key=lambda t: t[2])
        for key, seq, ts in packets:
            det.observe(data_packet(key, seq, ts, 1))
        assert det.cache.dropped == 0, f"trial {trial}"
        weights = oracle_ooo(Trace.from_records(
            [data_packet(k, s, t, 1) for k, s, t in packets]), det.window_ns,
            "packets")
        total = sum(weights.values())
        slots = {k for k, w in det.table.occupied()}
        for key, w in weights.items():
            if w > det.epsilon * total:
                assert key in slots, f"trial {trial}"


def test_slot_weights_never_overestimate():
    for trial in range(10):
        rng = np.random.default_rng(100 + trial)
        det = OooDetector(slots=4, cache_capacity=1 << 16, weight_mode="packets")
        records = []
        for fi in range(12):
            key = make_key(fi)
            seqs = [1, 3, 2, 5, 4, 7, 6] * int(rng.integers(1, 6))
            base = fi * 17
            records += [data_packet(key, s, (base + i) * 100_000, 1)
                        for i, s in enumerate(seqs)]
        records.sort(key=lambda p: p.ts)
        for p in records:
            det.observe(p)
        assert det.cache.dropped == 0, f"trial {trial}"
        weights = oracle_ooo(Trace.from_records(records), det.window_ns, "packets")
        for key, w in det.table.occupied():
            assert w <= weights.get(key, 0)


def test_unbounded_cache_matches_truth():
    rng = np.random.default_rng(7)
    det = OooDetector(slots=16, cache_capacity=1 << 16)
    truth = {}
    now = 0
    for _ in range(2000):
        fi = int(rng.integers(0, 30))
        key = make_key(fi)
        seq = int(rng.integers(1, 100))
        now += int(rng.integers(1, 400_000))
        det.observe(data_packet(key, seq, now))
        kb = key.to_bytes()
        prev = truth.get(kb)
        if prev is None or now - prev[1] > det.window_ns:
            truth[kb] = (seq, now)
        else:
            truth[kb] = (max(prev[0], seq), now)
    assert det.cache.dropped == 0
    live = {k: v for k, v in truth.items() if now - v[1] <= det.window_ns}
    assert det.cache.active_flows() == live


def test_full_cache_drops_are_counted():
    cache = RecencyCache(capacity=4, window_ns=10**12, run_seed=1)
    cache.observe(Trace.from_records(
        [data_packet(make_key(i), 1, i) for i in range(64)]))
    assert cache.dropped > 0
    assert len(cache) <= 4


def test_odd_cache_capacity_is_rejected():
    # four stages of capacity // 4 slots would leave the last slots unused
    for capacity in (5, 6):
        with pytest.raises(ValueError, match="multiple of 4"):
            RecencyCache(capacity=capacity)


STAGES = 4


def stage_slots(hashes, key, width):
    """A key's candidate slots, one per stage, from the scalar hash path."""
    fold = hashing.fold64(key)
    return [j * width + hashing.bucket_of_fold(h, fold, width) for j, h in enumerate(hashes)]


class EagerCache:
    """Reference: the same four-stage first-fit cache with eager expiry. A
    queue of (ts, key) removes every entry last seen before ts - window,
    and frees its slot, before each packet is looked up; a new key takes
    the first free of its stage slots, or is dropped."""

    def __init__(self, capacity, window_ns, run_seed):
        self.window_ns = window_ns
        self.dropped = 0
        self.entries = {}           # key -> [max_seq, last_ts, slot]
        self.expiry = deque()
        self.hashes = [hashing.derive_hash_pair(run_seed, j, hashing.STREAM_CACHE)
                       for j in range(STAGES)]
        self.width = capacity // STAGES
        self.slots = [None] * capacity

    def observe(self, data):
        late = []
        for i, (key, ts, seq) in enumerate(zip(
                [row.tobytes() for row in data.key_matrix()], data.ts.tolist(),
                data.seq.tolist())):
            self.expire(ts)
            entry = self.entries.get(key)
            if entry is None:
                free = [slot for slot in stage_slots(self.hashes, key, self.width)
                        if self.slots[slot] is None]
                if free:
                    self.slots[free[0]] = key
                    self.entries[key] = [seq, ts, free[0]]
                else:
                    self.dropped += 1
            else:
                if seq <= entry[0]:
                    late.append(i)
                else:
                    entry[0] = seq
                entry[1] = ts
            self.expiry.append((ts, key))
        return late

    def expire(self, now_ns):
        cutoff = now_ns - self.window_ns
        while self.expiry and self.expiry[0][0] < cutoff:
            ts, key = self.expiry.popleft()
            entry = self.entries.get(key)
            if entry is not None and entry[1] == ts:
                del self.entries[key]
                self.slots[entry[2]] = None


# (key index, id, gap to the previous packet): few keys and ids, and zero
# gaps, so that hits, repeated ids, tied timestamps and expiries all occur;
# at least 20 packets and windows up to 300 ns, so that about half the
# examples fill every stage slot of some key and drop it
packets_st = st.lists(st.tuples(st.integers(0, 15), st.integers(0, 6), st.integers(0, 15)),
                      min_size=20, max_size=80)


cache_st = (packets_st, st.integers(1, 8).map(lambda n: STAGES * n),   # capacities 4..32
            st.integers(0, 300), st.integers(0, 3), st.lists(st.integers(1, 12), max_size=80))


def cache_batches(packets, sizes):
    """The packets as one trace, cut into batches of the given sizes and then the rest."""
    records, ts = [], 0
    for k, seq, gap in packets:
        ts += gap
        records.append(data_packet(make_key(k), seq, ts))
    trace = Trace.from_records(records)
    start = 0
    for size in sizes + [len(trace)]:
        batch = trace.select(np.arange(start, min(start + size, len(trace))))
        start += len(batch)
        yield batch


@given(*cache_st)
def test_lazy_expiry_matches_eager_reference(packets, capacity, window, run_seed, sizes):
    cache = RecencyCache(capacity, window, run_seed=run_seed)
    reference = EagerCache(capacity, window, run_seed)
    for batch in cache_batches(packets, sizes):
        assert cache.observe(batch) == reference.observe(batch)
        assert cache.dropped == reference.dropped
        assert len(cache) == len(reference.entries)
        assert cache.active_flows() == {k: (e[0], e[1])
                                        for k, e in reference.entries.items()}


@given(*cache_st)
def test_every_entry_sits_in_one_of_its_candidates(packets, capacity, window, run_seed, sizes):
    # a lookup reads only the key's stage slots, so every entry, live or
    # stale, must sit in one of them, and no key may be held twice
    cache = RecencyCache(capacity, window, run_seed=run_seed)
    hashes = [hashing.derive_hash_pair(run_seed, j, hashing.STREAM_CACHE) for j in range(STAGES)]
    for batch in cache_batches(packets, sizes):
        cache.observe(batch)
        held = [(slot, entry) for slot, entry in enumerate(cache._slots) if entry is not None]
        for slot, entry in held:
            assert slot in stage_slots(hashes, entry[0], capacity // STAGES)
        assert len({entry[0] for _, entry in held}) == len(held)


@given(packets_st, cache_st[1], cache_st[2], cache_st[3])
def test_live_entry_stays_until_its_window_lapses(packets, capacity, window, run_seed):
    # whatever keys arrive, a key live in the cache is never displaced: it
    # stays in active_flows, its max id kept, until its window lapses
    cache = RecencyCache(capacity, window, run_seed=run_seed)
    live = {}
    for batch in cache_batches(packets, [1] * (len(packets) - 1)):
        cache.observe(batch)
        cutoff = int(batch.ts[0]) - window
        flows = cache.active_flows()
        for key, (seq, ts) in live.items():
            if ts >= cutoff:
                assert key in flows and flows[key][0] >= seq, key
        live = flows


@pytest.fixture(scope="module")
def reorder_trace():
    trace, _ = synthesize(SynthConfig(flows=2_000, packets=100_000, seed=0))
    plan = InjectionPlan("reorder", 0.04, victims=100, pool=100, seed=0)
    return inject_reorder(trace, plan)[0]


@pytest.fixture(scope="module")
def capacity_runs(reorder_trace):
    """Detectors with a top table larger than the flow count, one per
    cache capacity 2^4 ... 2^15, each run over the reorder trace."""
    runs = []
    for capacity in (1 << e for e in range(4, 16)):
        det = OooDetector(slots=1 << 16, cache_capacity=capacity)
        det.observe_trace(reorder_trace)
        runs.append((capacity, det))
    return runs


def test_more_cache_never_drops_more_or_absorbs_less(capacity_runs):
    dropped = [det.cache.dropped for _, det in capacity_runs]
    absorbed = [det.table.total_weight for _, det in capacity_runs]
    assert all(a >= b for a, b in zip(dropped, dropped[1:])), dropped
    assert all(a <= b for a, b in zip(absorbed, absorbed[1:])), absorbed


def test_cache_with_room_for_every_flow_matches_oracle(reorder_trace, capacity_runs):
    truth = oracle_ooo(reorder_trace)
    for capacity, det in capacity_runs:
        if capacity >= 512:
            assert det.cache.dropped == 0, capacity
            assert dict(det.table.occupied()) == truth, capacity


def test_cache_lists_per_block_keep_every_decision(reorder_trace, monkeypatch):
    # observe turns rows into Python lists one block at a time; one block
    # holding the whole batch is the reference
    data = reorder_trace.select(reorder_trace.ptype == int(PacketType.DATA))
    runs = []
    for block in (len(data) + 1, 1000, 7):
        monkeypatch.setattr(ooo, "_LIST_BLOCK", block)
        cache = RecencyCache(capacity=256, run_seed=3)
        runs.append((cache.observe(data), cache.dropped, cache.active_flows()))
    assert runs[0][1] > 0
    assert runs[1] == runs[0] and runs[2] == runs[0]


def test_zero_byte_late_packets_add_no_weight():
    # both trace formats accept a size of 0; such a late packet weighs
    # nothing, as in the oracle, and must not abort the run or take a slot
    key, other = make_key(1), make_key(2)
    trace = Trace.from_records([
        data_packet(key, 2, 0), data_packet(key, 1, 10, size=0),
        data_packet(other, 3, 20), data_packet(other, 1, 30, size=50),
        data_packet(other, 2, 40, size=0)])
    det = OooDetector(slots=1, cache_capacity=16)
    det.observe_trace(trace)
    assert dict(det.table.occupied()) == oracle_ooo(trace) == {other.to_bytes(): 50}


def test_timestamps_going_back_are_rejected():
    rng = np.random.default_rng(5)
    records = [data_packet(make_key(i % 20), i // 20 + 1, i * 1000)
               for i in range(400)]
    trace = Trace.from_records(records)
    with pytest.raises(ValueError, match="time-sorted"):
        OooDetector(slots=8).observe_trace(trace.select(rng.permutation(len(trace))))
    det = OooDetector(slots=8)
    det.observe_trace(trace.select(np.arange(200, 400)))
    with pytest.raises(ValueError, match="time-sorted"):
        det.observe_trace(trace.select(np.arange(200)))


def test_top_table_displacement_keeps_weights_nonnegative():
    t = TopTable(2)
    t.absorb(b"a", 5)
    t.absorb(b"b", 6)
    t.absorb(b"c", 100)          # displaces the minimum slot
    weights = dict(t.occupied())
    assert all(w >= 0 for w in weights.values())
    assert weights[b"c"] == 95   # 100 minus the old minimum
    assert t.total_weight == 111


def test_top_table_decrement_all_when_event_small():
    t = TopTable(2)
    t.absorb(b"a", 10)
    t.absorb(b"b", 20)
    t.absorb(b"c", 5)            # all slots >= 5: decrement, discard
    weights = dict(t.occupied())
    assert weights == {b"a": 5, b"b": 15}


def test_fast_loop_matches_scalar_observe():
    rng = np.random.default_rng(20)
    records = []
    for fi in range(50):
        key = make_key(fi)
        seqs = rng.permutation(np.arange(1, 41))
        base = int(rng.integers(0, 5_000_000))
        records += [data_packet(key, int(s), base + i * 200_000,
                                int(rng.integers(64, 1500)))
                    for i, s in enumerate(seqs)]
    records.sort(key=lambda p: p.ts)
    trace = Trace.from_records(records)
    d1 = OooDetector(slots=32, cache_capacity=64, run_seed=3)
    d2 = OooDetector(slots=32, cache_capacity=64, run_seed=3)
    d1.observe_trace(trace)
    for p in records:
        d2.observe(p)
    assert sorted(d1.table.occupied()) == sorted(d2.table.occupied())
    assert d1.cache.active_flows() == d2.cache.active_flows()
    assert d1.cache.dropped == d2.cache.dropped


def test_memory_accounting():
    det = OooDetector(slots=500, cache_capacity=1024)
    assert det.memory_bytes() == 500 * 21 + 1024 * 29
