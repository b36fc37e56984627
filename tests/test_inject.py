from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from flowsift import inject
from flowsift.inject import (InjectionPlan, inject_duplicate, inject_latency,
                             inject_loss, inject_reorder, rank_flows,
                             select_victims)
from flowsift.oracle import oracle_loss, oracle_ooo, oracle_rtt
from flowsift.packets import PacketType, TypeFilter
from flowsift.synth import SynthConfig, synthesize
from flowsift.traceio import RECORD_DTYPE, DataError, Trace, time_order


@pytest.fixture(scope="module")
def base_trace():
    trace, _ = synthesize(SynthConfig(flows=400, packets=20_000, seed=11,
                                      duration_ns=200_000_000))
    return trace


def victims_of(manifest):
    return [bytes.fromhex(v["key"]) for v in manifest["victims"]]


def test_rank_flows_heaviest_first(base_trace):
    keys, counts = rank_flows(base_trace)
    assert (np.diff(counts) <= 0).all()
    assert len(keys) == 400


def test_select_victims_deterministic(base_trace):
    plan = InjectionPlan("loss", 0.05, victims=10, pool=50, seed=3)
    assert select_victims(base_trace, plan) == select_victims(base_trace, plan)


def test_pool_larger_than_flow_count_rejected(base_trace):
    plan = InjectionPlan("loss", 0.05, victims=10, pool=1000, seed=3)
    with pytest.raises(ValueError, match="pool"):
        select_victims(base_trace, plan)


def test_bad_plans_rejected():
    with pytest.raises(ValueError):
        InjectionPlan("melt", 0.1).validate()
    with pytest.raises(ValueError):
        InjectionPlan("loss", 1.5).validate()
    with pytest.raises(ValueError):
        InjectionPlan("latency", -5).validate()
    with pytest.raises(ValueError):
        InjectionPlan("loss", 0.1, victims=5, pool=3).validate()


def test_latency_single_victim_oracle_delta(base_trace):
    plan = InjectionPlan("latency", 50_000_000, victims=1, pool=10, seed=5)
    out, manifest = inject_latency(base_trace, plan)
    victim = victims_of(manifest)[0]
    tf = TypeFilter.all_pairs()
    before = oracle_rtt(base_trace, tf)
    after = oracle_rtt(out, tf)
    from flowsift.packets import FlowKey, canonicalize
    pair = canonicalize(FlowKey.from_bytes(victim)).to_bytes()
    added = after[pair] - before[pair]
    assert added * 1000 == manifest["victims"][0]["true_value"]


def test_latency_manifest_lists_every_victim(base_trace):
    plan = InjectionPlan("latency", 50_000_000, victims=25, pool=100, seed=6)
    _, manifest = inject_latency(base_trace, plan)
    assert len(manifest["victims"]) == 25
    assert len(set(victims_of(manifest))) == 25


def test_latency_zero_delay_is_identity(base_trace):
    plan = InjectionPlan("latency", 0, victims=10, pool=50, seed=7)
    out, _ = inject_latency(base_trace, plan)
    assert out.sha256() == base_trace.sha256()


def test_latency_range_draw_within_bounds(base_trace):
    plan = InjectionPlan("latency", 30_000_000, magnitude_high=90_000_000,
                         victims=20, pool=50, seed=8)
    _, manifest = inject_latency(base_trace, plan)
    mags = [v["magnitude"] for v in manifest["victims"]]
    assert all(30_000_000 <= m <= 90_000_000 for m in mags)
    assert len(set(mags)) > 1


def test_loss_zero_rate_is_identity(base_trace):
    out, _ = inject_loss(base_trace, InjectionPlan("loss", 0.0, victims=5,
                                                   pool=20, seed=9))
    assert out.sha256() == base_trace.sha256()


def test_loss_counts_within_binomial_band(base_trace):
    plan = InjectionPlan("loss", 0.10, victims=20, pool=40, seed=10)
    out, manifest = inject_loss(base_trace, plan)
    keys, counts = rank_flows(base_trace)
    sizes = {k.tobytes(): int(c) for k, c in zip(keys, counts)}
    for entry in manifest["victims"]:
        n = sizes[bytes.fromhex(entry["key"])]
        sigma = (n * 0.1 * 0.9) ** 0.5
        assert abs(entry["true_value"] - 0.1 * n) <= 3 * sigma + 1
    assert sum(v["true_value"] for v in manifest["victims"]) \
        == len(base_trace) - len(out)


def test_loss_manifest_matches_oracle(base_trace):
    plan = InjectionPlan("loss", 0.08, victims=10, pool=30, seed=11)
    out, manifest = inject_loss(base_trace, plan)
    truth = oracle_loss(out)
    for entry in manifest["victims"]:
        key = bytes.fromhex(entry["key"])
        # ids lost above the surviving max are invisible to the oracle
        assert truth.get(key, 0) <= entry["true_value"]
        assert truth.get(key, 0) >= entry["true_value"] - 3


def test_reorder_zero_rate_is_identity(base_trace):
    out, _ = inject_reorder(base_trace, InjectionPlan("reorder", 0.0,
                                                      victims=5, pool=20, seed=12))
    assert out.sha256() == base_trace.sha256()


def test_reorder_manifest_equals_oracle(base_trace):
    plan = InjectionPlan("reorder", 0.2, victims=10, pool=20, seed=13)
    out, manifest = inject_reorder(base_trace, plan)
    truth = oracle_ooo(out, 3_000_000)
    for entry in manifest["victims"]:
        assert truth.get(bytes.fromhex(entry["key"]), 0) == entry["true_value"]


def test_reorder_moves_packet_behind_successor():
    # dense flow: a 5 ms delay lands sampled packets after higher seqs,
    # so the oracle weight comes out positive
    trace, _ = synthesize(SynthConfig(flows=2, packets=2000, seed=14,
                                      duration_ns=50_000_000,
                                      bidirectional=False))
    plan = InjectionPlan("reorder", 0.3, victims=1, pool=1, seed=14)
    _, manifest = inject_reorder(trace, plan)
    assert manifest["victims"][0]["true_value"] > 0


def test_duplicate_zero_rate_is_identity(base_trace):
    out, _ = inject_duplicate(base_trace, InjectionPlan("duplicate", 0.0,
                                                        victims=5, pool=20, seed=15))
    assert out.sha256() == base_trace.sha256()


def test_duplicate_counts_and_repeats(base_trace):
    plan = InjectionPlan("duplicate", 0.15, victims=15, pool=30, seed=16)
    out, manifest = inject_duplicate(base_trace, plan)
    assert len(out) == len(base_trace) + sum(int(v["true_value"])
                                             for v in manifest["victims"])
    keys, counts = rank_flows(base_trace)
    sizes = {k.tobytes(): int(c) for k, c in zip(keys, counts)}
    for entry in manifest["victims"]:
        n = sizes[bytes.fromhex(entry["key"])]
        sigma = (n * 0.15 * 0.85) ** 0.5
        assert abs(entry["true_value"] - 0.15 * n) <= 3 * sigma + 1


def test_injectors_preserve_non_victim_records(base_trace):
    plan = InjectionPlan("duplicate", 0.5, victims=5, pool=10, seed=17)
    out, manifest = inject_duplicate(base_trace, plan)
    victims = set(victims_of(manifest))
    view = base_trace.key_matrix()
    keep = [i for i in range(len(base_trace))
            if view[i].tobytes() not in victims]
    original = base_trace.arr[keep]
    # every untouched record appears unchanged in the output
    out_set = {out.arr[i].tobytes() for i in range(len(out))}
    assert all(original[i].tobytes() in out_set for i in range(0, len(original), 37))


# -- the merge step against the whole-trace sort it replaced -----------------

def _placement(trace, ts, moved, copies=None):
    """The whole-trace placement the merge replaced, kept as its reference:
    (each output record's input row, the output positions of the records
    ``moved`` marks, their new timestamps) when the output holds the
    input's records, then copies of its rows ``copies``, at ``ts``."""
    a, n = trace.arr, len(trace)

    def to_input(index):
        if copies is not None:
            tail = np.flatnonzero(index >= n)
            index[tail] = copies[index[tail] - n]
        return index

    def rows_at(index):
        rows = np.take(a, to_input(index.copy()))
        rows["ts"] = ts[index]
        return rows

    order = time_order(ts, rows_at)
    patch = np.flatnonzero(moved[order])
    stamps = ts[order[patch]]
    return to_input(order), patch, stamps


def _gathered(trace, source, patch, stamps):
    out = np.take(trace.arr, source)
    out["ts"][patch] = stamps
    return Trace(out)


def reference_merge(trace, rows, stamps, copied):
    n = len(trace)
    if copied:
        moved = np.r_[np.zeros(n, dtype=bool), np.ones(len(rows), dtype=bool)]
        return _gathered(trace, *_placement(trace, np.r_[trace.ts, stamps], moved, rows))
    ts = trace.ts.copy()
    ts[rows] = stamps
    moved = np.zeros(n, dtype=bool)
    moved[rows] = True
    return _gathered(trace, *_placement(trace, ts, moved))


# (ts, src, dst, sport, ptype, seq, ack) over narrow ranges, so that records
# tie on the timestamp and on every time-order column; ack tells full ties apart
record_st = st.tuples(st.integers(0, 3), st.integers(0, 1), st.integers(0, 1),
                      st.integers(0, 1), st.sampled_from([int(PacketType.DATA),
                                                          int(PacketType.ACK)]),
                      st.integers(0, 2), st.integers(0, 1 << 16))


def time_ordered(records) -> Trace:
    arr = np.zeros(len(records), dtype=RECORD_DTYPE)
    for i, column in enumerate(("ts", "src", "dst", "sport", "ptype", "seq", "ack")):
        arr[column] = [r[i] for r in records]
    return Trace(arr).time_sorted()


@st.composite
def merge_cases(draw):
    """(records, placed mask, new stamps, copied, merge block)."""
    records = draw(st.lists(record_st, max_size=24))
    n = len(records)
    placed = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    stamps = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    return records, placed, stamps, draw(st.booleans()), draw(st.integers(1, 8))


FULL_TIE = [(2, 1, 1, 1, int(PacketType.DATA), 1, ack) for ack in range(6)]
SPREAD = [(t % 4, t % 2, 0, 0, int(PacketType.DATA), t % 3, t) for t in range(12)]


@settings(derandomize=True, max_examples=300)
@given(merge_cases())
@example((FULL_TIE, [True] * 6, [2] * 6, False, 4))        # fully tied, every row moved
@example((FULL_TIE, [True, False] * 3, [2] * 6, True, 4))  # copies of fully tied rows
@example((SPREAD, [False] * 12, [0] * 12, False, 5))        # nothing placed
@example((SPREAD, [True] * 12, [3] * 12, True, 5))          # every row copied
@example((SPREAD, [i % 3 == 0 for i in range(12)], [1, 2, 3, 0] * 3, False, 5))
def test_merge_equals_the_whole_trace_sort(case):
    records, placed, stamps, copied, block = case
    trace = time_ordered(records)
    rows = np.flatnonzero(placed)
    new_ts = np.asarray(stamps, dtype=np.uint64)[rows]
    expected = reference_merge(trace, rows, new_ts, copied)
    with mock.patch.object(inject, "MERGE_BLOCK", block):
        merged = inject._merged(trace, rows, new_ts, copied)
    assert merged.arr.tobytes() == expected.arr.tobytes()


def test_merge_rejects_tied_records_out_of_column_order():
    trace = time_ordered([(5, 0, 0, 0, int(PacketType.DATA), 1, 0),
                          (5, 1, 0, 0, int(PacketType.DATA), 1, 0)])
    rows = np.array([0])
    inject._merged(trace, rows, np.array([6], dtype=np.uint64))
    swapped = Trace(trace.arr[::-1].copy())
    with pytest.raises(DataError, match="time order"):
        inject._merged(swapped, rows, np.array([6], dtype=np.uint64))


@pytest.mark.parametrize("injector,plan", [
    (inject_latency, InjectionPlan("latency", 1_000_000, victims=10, pool=50, seed=18)),
    (inject_reorder, InjectionPlan("reorder", 0.2, victims=10, pool=50, seed=18)),
    (inject_duplicate, InjectionPlan("duplicate", 0.2, victims=10, pool=50, seed=18))])
def test_moving_injectors_reject_unsorted_input(base_trace, injector, plan):
    shuffled = base_trace.select(np.random.default_rng(18).permutation(len(base_trace)))
    with pytest.raises(ValueError, match="time order"):
        injector(shuffled, plan)
